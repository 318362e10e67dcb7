#!/usr/bin/env python3
"""The eqforge benchmark: one workload per call, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload grid-default --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): grid-default, loo-cohort, fit-session.

--trace 0 measures end-to-end metrics with tracing off: set-up is measured in
SETUP_SAMPLES fresh interpreters (set-up-only children before and after the
workload child, and the workload child itself) and the median reported; the
workload child runs untraced passes or requests for --seconds.
--trace 1 gives the per-layer breakdown: one child traces set-up and one pass
between two untraced passes of the same inputs (the traced pass time minus
their mean is the tracing overhead), and a second child times one untraced
grid-default pass with the BLAS library held to one thread, as a reference.

Children run one at a time, each with a single driving thread. eqforge is
imported from `src/` of this checkout. The metric names and units are read
from BENCHMARK.json at the root of the checkout.

BLAS threads: the workload children get the caller's environment unchanged,
so they measure what a user gets. Only the reference child has
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1. The
report records the variables as the caller set them and the thread count each
loaded OpenBLAS resolved to in the workload child.

Every output is checked outside the timed region. The human-readable report
goes to stdout, followed by one JSON line: correct, attempted, failed and
metrics. The exit status is 0 only when every check passed. Spans and the
full result, with the environment, are kept under `.perfbench_work/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import FIT_BLOCK, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC_PACKAGE = ROOT / "src" / "eqforge" / "__init__.py"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_SAMPLES = 7
# Every child must end before this many seconds have passed since the start.
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="eqforge benchmark", formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="3-ear cohorts, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not SRC_PACKAGE.is_file():
        print(f"error: no eqforge source at {SRC_PACKAGE.relative_to(ROOT)}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK_JSON.read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Children(args, work, time.monotonic() + DEADLINE_S)
    ticks_before = cpu_ticks()
    try:
        if args.trace:
            metrics, report, outcome = traced(runner, args)
        else:
            metrics, report, outcome = untraced(runner, args)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.clean()
    try:
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    except KeyError as exc:
        print(f"error: declared metric {exc} was not measured", file=sys.stderr)
        return 1

    env = environment(args.seed, outcome.pop("blas_threads"))
    env["cpu_steal_share"] = steal_share(ticks_before, cpu_ticks())
    problems = outcome["problems"]
    print("env " + json.dumps(env))
    for line in report:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"checks: {'all passed' if not problems else f'{len(problems)} FAILED'}")
    for problem in problems[:20]:
        print(f"  {problem}")
    result = {
        "correct": not problems,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    (work / "result.json").write_text(
        json.dumps({"env": env, "problems": problems, **result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


class Children:
    """Starts child processes one at a time and collects their JSON results."""

    def __init__(self, args, work: Path, deadline: float):
        self.args = args
        self.work = work
        self.deadline = deadline
        self.count = 0

    def run(self, mode: str, workload: str | None = None, one_blas_thread: bool = False) -> dict:
        self.count += 1
        tag = f"{self.count}-{mode}"
        result_path = self.work / f"{tag}.json"
        env = dict(os.environ)
        if one_blas_thread:
            env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed(f"no time left for the {mode} child within {DEADLINE_S:.0f} s")
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
               "--workload", workload or self.args.workload, "--seed", str(self.args.seed),
               "--seconds", repr(self.args.seconds), "--t0", repr(t0),
               "--work", str(self.work / tag), "--result", str(result_path)]
        if self.args.tiny:
            cmd.append("--tiny")
        try:
            proc = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{mode} child did not finish within {DEADLINE_S:.0f} s") from None
        if proc.returncode != 0 or not result_path.is_file():
            raise ChildFailed(f"{mode} child exited with status {proc.returncode}")
        return json.loads(result_path.read_text())

    def clean(self) -> None:
        """Drop the children's inputs and outputs; keep results and spans."""
        for path in self.work.iterdir():
            if path.is_dir():
                shutil.rmtree(path)


def untraced(runner: Children, args) -> tuple[dict, list[str], dict]:
    # Set-up-only children before and after the workload child, so that the
    # median samples the host over the whole run, not one moment of it.
    setups = [runner.run("setup")["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
    run = runner.run("run")
    setups.append(run["setup_s"])
    setups += [runner.run("setup")["setup_s"] for _ in range(SETUP_SAMPLES - len(setups))]
    samples = run["samples_s"]
    cells = run["cells_per_sample"]
    fit = args.workload == "fit-session"
    if fit:
        # One rate per complete block of requests; every block has the same mix.
        blocks = [samples[i:i + FIT_BLOCK] for i in range(0, len(samples) - FIT_BLOCK + 1, FIT_BLOCK)]
        rates = [FIT_BLOCK / sum(block) for block in blocks]
        unit = f"{len(samples)} requests, {len(blocks)} blocks of {FIT_BLOCK}"
        items = "requests"
    else:
        rates = [cells / s for s in samples]
        unit = f"{len(samples)} passes of {cells} cells"
        items = "cells"
    cells_per_s = statistics.median(rates)
    latencies_ms = sorted(1000.0 * s for s in samples)
    tail_label, tail_ms = tail_latency(latencies_ms)
    metrics = {
        "setup_s": statistics.median(setups),
        "cells_per_s": cells_per_s,
        "latency_p50_ms": statistics.median(latencies_ms),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    report = [
        f"workload {args.workload} seed {args.seed}: {unit}, "
        f"{run['failed']} of {run['attempted']} {items} failed "
        f"(failed_frac {run['failed'] / run['attempted']:.6g})",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
    ]
    if len(rates) > 1:
        q1, _, q3 = statistics.quantiles(rates, n=4, method="inclusive")
        report.append(f"cells_per_s over {'blocks' if fit else 'passes'}: "
                      f"quartiles {q1:.4f} .. {q3:.4f}")
    report.append(f"latency tail, not a declared metric: {tail_label} {tail_ms:.4f} ms "
                  f"of {len(samples)} samples")
    outcome = {k: run[k] for k in ("attempted", "failed", "problems", "blas_threads")}
    return metrics, report, outcome


def tail_latency(sorted_ms: list[float]) -> tuple[str, float]:
    """p95, or the highest percentile with at least ten samples beyond it, or the maximum."""
    n = len(sorted_ms)
    q = 0.95 if n * 0.05 >= 10 else (1.0 - 10.0 / n if n > 10 else 1.0)
    if q == 1.0:
        return "the maximum (too few samples for a percentile with ten beyond it)", sorted_ms[-1]
    position = q * (n - 1)
    low = int(position)
    frac = position - low
    value = sorted_ms[low] + frac * (sorted_ms[min(low + 1, n - 1)] - sorted_ms[low])
    return f"p{100 * q:.1f}", value


def traced(runner: Children, args) -> tuple[dict, list[str], dict]:
    trace = runner.run("trace")
    reference = runner.run("reference", workload="grid-default", one_blas_thread=True)
    layers = dict(trace["layers"])
    layers["reference.one_blas_thread_grid_pass_s"] = reference["seconds"]
    overhead = layers["trace.overhead_s"]
    self_sum = layers["trace.self_sum_s"]
    coarse = layers["cli.self_s"] + layers["experiment.write_s"]
    report = [
        f"workload {args.workload} seed {args.seed}: traced pass "
        f"{layers['trace.traced_pass_s']:.4f} s, untraced {layers['trace.untraced_pass_s']:.4f} s,"
        f" tracing overhead {overhead:.4f} s",
        # Every span of a pass descends from cli.main, so the sum of self times
        # is cli.main's traced time less Gram hashing: a consistency figure,
        # not a coverage test. Time in functions that are not traced lands in
        # the self time of the traced caller.
        f"sum of layer self times {self_sum:.4f} s, "
        f"{self_sum - layers['trace.untraced_pass_s']:+.4f} s from the untraced pass; "
        f"{coarse / self_sum if self_sum else 0.0:.1%} of it is in cli.self_s and "
        f"experiment.write_s, which hold all untraced callees",
        f"reference: one grid-default pass with one BLAS thread "
        f"{reference['seconds']:.4f} s (resolved threads {reference['blas_threads']})",
        "self time by span:",
    ]
    report += [f"  {name:40s} {t:10.4f} s" for name, t in trace["self_by_span"].items()]
    outcome = {
        "attempted": trace["attempted"] + reference["attempted"],
        "failed": trace["failed"] + reference["failed"],
        "problems": trace["problems"] + [f"reference: {p}" for p in reference["problems"]],
        "blas_threads": trace["blas_threads"],
    }
    return layers, report, outcome


def environment(seed: int, blas_threads: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_env": {name: os.environ.get(name, "unset") for name in BLAS_THREAD_VARS},
        "blas_threads_resolved": blas_threads,
        "git_commit": git_commit(),
        "seed": seed,
    }


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine so far, from /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]; guest
    # time is already counted in user.
    return (fields[7], sum(fields[:8])) if len(fields) >= 8 else None


def steal_share(before, after) -> float | str:
    """Share of CPU time the hypervisor gave to others while the benchmark ran."""
    if before is None or after is None or after[1] == before[1]:
        return "unavailable"
    return (after[0] - before[0]) / (after[1] - before[1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


if __name__ == "__main__":
    sys.exit(main())
