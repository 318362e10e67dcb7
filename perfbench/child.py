"""One benchmark child process: set-up only, a measured run, a traced run, or the reference pass.

run.py starts one child at a time and reads the JSON it writes to --result.
The child imports eqforge from the checkout's `src/`, prepares the
workload's inputs, and then, by mode:

  setup      stops; only the set-up time is wanted
  run        runs untraced passes (grids) or requests (fit-session) within
             --seconds, checking each one's output as it goes
  trace      runs a traced pass between two untraced ones and reports
             per-layer metrics from the traced one
  reference  runs one untraced pass; run.py starts this mode with every BLAS
             thread variable set to 1

Set-up time runs from `--t0`, taken by run.py just before it started this
process (CLOCK_MONOTONIC is shared by all processes), to inputs prepared.

eqforge is imported before anything that loads numpy, so a BLAS thread policy
that eqforge applies on import takes effect here as it would for a user.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import resource
import shutil
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import eqforge.cli  # noqa: E402  (before numpy; the import is part of set-up)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import HASH_SPAN, Tracer, installed_wrappers, self_times  # noqa: E402

FIXTURE = ROOT / "tests" / "data" / "pilot_seed42.json"
FIXTURE_SEED = 42

# A measured run makes at least this many grid passes, so their outputs can be
# compared byte for byte, or serves at least this many fit requests.
MIN_PASSES = 2
MIN_REQUESTS = 2 * workloads.FIT_BLOCK
# fit-session requests replayed after the timed loop to check byte-identity.
FIT_REPLAYS = 4


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace", "reference"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    if not Path(eqforge.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"eqforge was imported from {eqforge.cli.__file__}, not from {SRC}")

    args.work.mkdir(parents=True, exist_ok=True)
    if args.mode == "trace":
        result = traced_run(args)
    else:
        inputs = workloads.prepare(args.workload, args.seed, args.work, args.tiny)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if args.mode == "run":
            result.update(measured_run(inputs, args.work, args.seconds))
        elif args.mode == "reference":
            result.update(grid_pass(inputs, args.work / "reference"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas_threads"] = blas_threads()
    args.result.write_text(json.dumps(result))
    return 0


def quiet(argv: list[str]) -> int:
    """Run the CLI with its one-line stdout reports discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return eqforge.cli.main(argv)


def fixture_applies(inputs) -> bool:
    return inputs.workload == "grid-default" and inputs.seed == FIXTURE_SEED and not inputs.tiny


def grid_pass(inputs, out_dir: Path) -> dict:
    """One timed `experiment` call, then its checks; the output tree is removed."""
    start = time.perf_counter()
    quiet(inputs.experiment_argv(out_dir))
    elapsed = time.perf_counter() - start
    problems, failed = checks.check_grid(out_dir, inputs.cells)
    if fixture_applies(inputs):
        problems += checks.check_fixture(out_dir, FIXTURE)
    digest, files, size = checks.tree_digest(out_dir)
    shutil.rmtree(out_dir)
    return {"seconds": elapsed, "digest": digest, "files": files, "bytes": size,
            "attempted": len(inputs.cells), "failed": failed, "problems": problems}


def fit_request(inputs, request, out_dir: Path) -> dict:
    """One timed design + evaluate request, then its checks; outputs are removed."""
    design, evaluate = inputs.fit_argvs(request, out_dir)
    start = time.perf_counter()
    ok = quiet(design) == 0 and quiet(evaluate) == 0
    elapsed = time.perf_counter() - start
    subject, _, delay = request
    problems = checks.check_fit(out_dir, subject, delay) if ok else []
    digest = checks.tree_digest(out_dir)[0] if ok else ""
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"seconds": elapsed, "digest": digest, "failed": 0 if ok else 1, "problems": problems}


def fit_pass(inputs, out_dir: Path, count: int) -> dict:
    """The first `count` requests of the cycle, as one pass."""
    outcomes = [fit_request(inputs, inputs.requests[i % len(inputs.requests)], out_dir)
                for i in range(count)]
    return {"seconds": sum(o["seconds"] for o in outcomes),
            "digest": "".join(o["digest"] for o in outcomes),
            "files": 0, "bytes": 0, "attempted": count,
            "failed": sum(o["failed"] for o in outcomes),
            "problems": [p for o in outcomes for p in o["problems"]]}


def one_pass(inputs, out_dir: Path) -> dict:
    if inputs.workload == "fit-session":
        return fit_pass(inputs, out_dir, workloads.FIT_TRACE_REQUESTS)
    return grid_pass(inputs, out_dir)


def measured_run(inputs, work: Path, seconds: float) -> dict:
    """Untraced passes or requests, checked as they go, within `seconds` of wall time.

    Another pass starts only while one more, as long as the last one with its
    checks, would still end within `seconds`, so a run does not overshoot by
    most of a pass.
    """
    samples: list[float] = []
    problems: list[str] = []
    attempted = failed = 0
    digests: dict[object, str] = {}
    start = last_end = time.perf_counter()
    last_wall = 0.0
    fit = inputs.workload == "fit-session"
    minimum = MIN_REQUESTS if fit else MIN_PASSES
    while len(samples) < minimum or last_end + last_wall - start <= seconds:
        i = len(samples)
        if fit:
            key = inputs.requests[i % len(inputs.requests)]
            outcome = fit_request(inputs, key, work / "fit")
            attempted += 1
        else:
            key = "pass"
            outcome = grid_pass(inputs, work / f"pass{i}")
            attempted += outcome["attempted"]
        samples.append(outcome["seconds"])
        failed += outcome["failed"]
        problems += outcome["problems"]
        if outcome["digest"]:
            first = digests.setdefault(key, outcome["digest"])
            if outcome["digest"] != first:
                problems.append(f"sample {i}: output differs from the first run of "
                                f"{'request ' + str(key) if fit else 'the pass'}")
        now = time.perf_counter()
        last_wall, last_end = now - last_end, now
    if fit:
        for key in inputs.requests[:min(FIT_REPLAYS, len(samples))]:
            again = fit_request(inputs, key, work / "fit")
            if again["digest"] != digests.get(key, again["digest"]):
                problems.append(f"replayed request {key}: output differs from its first run")
    return {"samples_s": samples, "attempted": attempted, "failed": failed,
            "cells_per_sample": 1 if fit else len(inputs.cells), "problems": problems}


def traced_run(args) -> dict:
    """Trace set-up and one pass between two untraced passes of the same inputs.

    The tracing overhead is the traced pass time minus the mean of the two
    untraced ones, which cancels warm-up and slow drift to first order.
    """
    tracer = Tracer(phase="prep")
    with tracer:
        inputs = workloads.prepare(args.workload, args.seed, args.work, args.tiny)
    before = one_pass(inputs, args.work / "before")
    tracer.phase = "pass"
    with tracer:
        traced = one_pass(inputs, args.work / "traced")
    after = one_pass(inputs, args.work / "after")
    untraced = {"seconds": (before["seconds"] + after["seconds"]) / 2}
    passes = (before, traced, after)
    problems = [p for outcome in passes for p in outcome["problems"]]
    if len({outcome["digest"] for outcome in passes}) != 1:
        problems.append("the traced and untraced passes wrote different output")
    left = installed_wrappers()
    if left:
        problems.append(f"tracing wrappers left installed: {left}")
    layers, self_by_span = layer_metrics(tracer.spans, traced, untraced)
    with open(args.result.with_name("spans.jsonl"), "w") as out:
        for span in tracer.spans:
            out.write(json.dumps({"name": span.name, "start": span.start, "end": span.end,
                                  "parent": span.parent, "phase": span.phase}) + "\n")
    return {"layers": layers, "self_by_span": self_by_span,
            "attempted": sum(outcome["attempted"] for outcome in passes),
            "failed": sum(outcome["failed"] for outcome in passes), "problems": problems}


def layer_metrics(spans, traced: dict, untraced: dict) -> tuple[dict, dict[str, float]]:
    """Per-layer metrics over the traced pass, and the self time of every span name."""
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    has_child = {s.parent for s in spans}
    conv_bytes = 0
    grams = []
    rtf_calls = rtf_hits = 0
    for index, (span, t) in enumerate(zip(spans, own)):
        if span.phase != "pass":
            continue
        self_s[span.name] += t
        calls[span.name] += 1
        if span.name == "signals.convolution_matrix":
            rows, cols = span.info
            conv_bytes += rows * cols * 8
        elif span.name == "solvers.solve_normal_equations":
            grams.append(span.info)
        elif span.name in ("conditions.individual_rtfs", "conditions.average_rtfs"):
            rtf_calls += 1
            rtf_hits += index not in has_child
    synth_s = sum(s.end - s.start for s in spans
                  if s.phase == "prep" and s.parent == -1
                  and s.name in ("cohort.synth_cohort", "cohort.synth_dummy_ear"))
    solves = calls["solvers.solve_normal_equations"]
    distinct = len(set(grams))
    layer_sum = sum(t for name, t in self_s.items() if name != HASH_SPAN)
    layers = {
        "experiment.write_s": self_s["experiment.run_experiment"],
        "experiment.bytes_written": traced["bytes"],
        "experiment.files_written": traced["files"],
        "conditions.run_condition_s": self_s["conditions.run_condition"],
        "conditions.design_for_condition_s": self_s["conditions.design_for_condition"],
        "rtf.estimate_average_s": self_s["rtf.estimate_average"],
        "rtf.estimate_average.calls": calls["rtf.estimate_average"],
        "rtf.estimate_individual_s": self_s["rtf.estimate_individual"],
        "rtf.estimate_individual.calls": calls["rtf.estimate_individual"],
        "signals.convolution_matrix_s": self_s["signals.convolution_matrix"],
        "signals.convolution_matrix.calls": calls["signals.convolution_matrix"],
        "signals.convolution_matrix.bytes": conv_bytes,
        "solvers.solve_s": self_s["solvers.solve_normal_equations"],
        "solvers.solve.calls": solves,
        "solvers.distinct_grams": distinct,
        "solvers.gram_reuse": 1.0 - distinct / solves if solves else 0.0,
        "design.design_filter_s": self_s["design.design_filter"],
        "design.design_filter.calls": calls["design.design_filter"],
        "design.design_filter_pooled_s": self_s["design.design_filter_pooled"],
        "design.design_filter_pooled.calls": calls["design.design_filter_pooled"],
        "design.build_target_s": self_s["design.build_target"],
        "design.build_target.calls": calls["design.build_target"],
        "conditions.rtf_cache.hit_ratio": rtf_hits / rtf_calls if rtf_calls else 0.0,
        "conditions.aided_response_s": self_s["conditions.aided_response"],
        "metrics.band_error_profile_s": self_s["metrics.band_error_profile"],
        "metrics.log_spectral_distance_s": self_s["metrics.log_spectral_distance"],
        "signals.magnitude_response_s": self_s["signals.magnitude_response"],
        "cohort.load_manifest_s": self_s["cohort.load_manifest"],
        "signals.read_impulse_csv_s": self_s["signals.read_impulse_csv"],
        "signals.read_impulse_csv.calls": calls["signals.read_impulse_csv"],
        "cohort.synth_s": synth_s,
        "cli.self_s": self_s["cli.main"],
        "trace.untraced_pass_s": untraced["seconds"],
        "trace.traced_pass_s": traced["seconds"],
        "trace.overhead_s": traced["seconds"] - untraced["seconds"],
        "trace.self_sum_s": layer_sum,
    }
    return layers, dict(sorted(self_s.items()))


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS library resolved to, by library file name."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    found = {}
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in names:
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_int
                found[Path(path).name] = int(getter())
                break
    return found


if __name__ == "__main__":
    sys.exit(main())
