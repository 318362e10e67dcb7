"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import DELAYS, FIT_BLOCK, FIT_CONDITIONS, WORKLOADS, fit_cycle, prepare  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert any(line.startswith(f"{m['name']} {value!r} {m['unit']}") for line in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_outside_a_checkout_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_benchmark(tmp_path, "grid-default", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_fit_cycle_serves_every_request_once_in_blocks_of_the_same_mix():
    subjects = tuple(f"s{i}" for i in range(12))
    cycle = fit_cycle(subjects, 7)
    pairs = {(c, d) for c in FIT_CONDITIONS for d in DELAYS}
    assert sorted(cycle) == sorted((s, c, d) for s in subjects for (c, d) in pairs)
    for start in range(0, len(cycle), FIT_BLOCK):
        assert {(c, d) for _, c, d in cycle[start:start + FIT_BLOCK]} == pairs
    assert fit_cycle(subjects, 7) == cycle != fit_cycle(subjects, 8)


@pytest.fixture(scope="module")
def grid_output(tmp_path_factory):
    """A tiny grid-default output tree and the inputs that made it."""
    import eqforge.cli

    work = tmp_path_factory.mktemp("grid")
    inputs = prepare("grid-default", 3, work, tiny=True)
    out = work / "out"
    assert eqforge.cli.main(inputs.experiment_argv(out)) == 0
    return inputs, out


def corrupted_copy(out: Path, tmp_path: Path) -> Path:
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    return copy


def test_checks_pass_on_a_good_tree(grid_output):
    inputs, out = grid_output
    assert checks.check_grid(out, inputs.cells) == ([], 0)


def test_checks_catch_a_residual_out_of_bound(grid_output, tmp_path):
    inputs, out = grid_output
    copy = corrupted_copy(out, tmp_path)
    run_json = sorted((copy / "runs").glob("*.json"))[0]
    payload = json.loads(run_json.read_text())
    payload["filter"]["normal_eq_residual"] = 1e-3 * (payload["filter"]["normal_eq_scale"] + 1)
    run_json.write_text(json.dumps(payload))
    problems, _ = checks.check_grid(copy, inputs.cells)
    assert len(problems) == 1 and "normal_eq_residual" in problems[0]


def test_checks_catch_a_missing_record_and_a_missing_run_file(grid_output, tmp_path):
    inputs, out = grid_output
    copy = corrupted_copy(out, tmp_path)
    summary = json.loads((copy / "summary.json").read_text())
    summary["per_subject"].pop()
    (copy / "summary.json").write_text(json.dumps(summary))
    next((copy / "runs").glob("*.csv")).unlink()
    problems, _ = checks.check_grid(copy, inputs.cells)
    assert any("do not match" in p for p in problems)
    assert any("run files missing" in p for p in problems)


def test_checks_catch_drift_from_the_fixture(grid_output, tmp_path):
    _, out = grid_output
    summary = json.loads((out / "summary.json").read_text())
    fixture = {"mean_lsd_db": {}}
    for row in summary["rows"]:
        fixture["mean_lsd_db"].setdefault(str(row["d_G"]), {})[row["condition"]] = row["mean_lsd_db"]
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(fixture))
    assert checks.check_fixture(out, path) == []
    fixture["mean_lsd_db"]["0"]["Optimal"] += 2e-6
    path.write_text(json.dumps(fixture))
    assert len(checks.check_fixture(out, path)) == 1


def test_tree_digest_sees_a_changed_byte(grid_output, tmp_path):
    _, out = grid_output
    copy = corrupted_copy(out, tmp_path)
    assert checks.tree_digest(copy) == checks.tree_digest(out)
    csv = next((copy / "runs").glob("*.csv"))
    data = bytearray(csv.read_bytes())
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
    csv.write_bytes(bytes(data))
    assert checks.tree_digest(copy)[0] != checks.tree_digest(out)[0]


def test_tracing_leaves_no_wrapper_installed(grid_output, tmp_path):
    import eqforge.cli

    inputs, _ = grid_output
    modules = {name: dict(vars(m)) for name, m in sys.modules.items()
               if m is not None and name.startswith("eqforge")}
    tracer = tracer_mod.Tracer(phase="pass")
    with tracer:
        assert tracer_mod.installed_wrappers()
        assert eqforge.cli.main(inputs.experiment_argv(tmp_path / "out")) == 0
    assert tracer_mod.installed_wrappers() == []
    for name, before in modules.items():
        after = vars(sys.modules[name])
        assert all(after[k] is v for k, v in before.items() if k in after), name
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "experiment.run_experiment", "solvers.solve_normal_equations"} <= names
    own = tracer_mod.self_times(tracer.spans)
    roots = [s for s in tracer.spans if s.parent == -1]
    assert sum(own) == pytest.approx(sum(s.end - s.start for s in roots))
