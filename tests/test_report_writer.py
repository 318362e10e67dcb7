"""The run-report writer: byte-identical to a row-at-a-time formatter, streamed per cell."""

import concurrent.futures
import dataclasses
import json

import numpy as np
import pytest

from eqforge import experiment
from eqforge.cli import main
from eqforge.cohort import CohortData, EarDataset, save_cohort
from eqforge.conditions import condition_named, evaluate, run_condition
from eqforge.design import EqDesignConfig, filter_from_json
from eqforge.experiment import RunRecord, run_experiment
from eqforge.solvers import SingularSystemError
from conftest import make_ir

CONDITIONS = ["Optimal", "NaiveInEar", "PracticalOptimal"]
DELAYS = [0, 16]


def oracle_csv(report) -> bytes:
    """The response CSV as the one-row-at-a-time, 4-field formatter wrote it."""
    row = "{:.17g},{:.17g},{:.17g},{:.17g}".format
    columns = zip(report.desired.frequencies_hz.tolist(), report.desired.magnitude_db.tolist(),
                  report.aided.magnitude_db.tolist(), report.occluded.magnitude_db.tolist())
    lines = ["frequency_hz,desired_db,aided_db,occluded_db"]
    lines.extend(row(*values) for values in columns)
    return ("\n".join(lines) + "\n").encode()


def floor_ears(gains):
    """One ear per gain, whose open and occluded responses are exactly zero at Nyquist (-200 dB)."""
    rng = np.random.default_rng(12)

    def short():
        return make_ir(np.concatenate([[1.0], 0.3 * rng.standard_normal(6)]))

    ears = []
    for i, c in enumerate(gains):
        ears.append(EarDataset(f"f{i}", h_m=short(), h_open=make_ir([c, c]),
                               h_occ=make_ir([1e-3 * c, 1e-3 * c]),
                               d_true=short(), d_inear=short(), d_model=short()))
    return ears


@pytest.fixture(scope="module")
def floor_cohort():
    return floor_ears((0.5, 0.25, 0.75))


def test_grid_csvs_match_the_row_formatter_including_floor_bins(floor_cohort, tmp_path):
    result = run_experiment(CohortData.of(floor_cohort), CONDITIONS, DELAYS, EqDesignConfig(),
                            tmp_path)
    assert not result.failures and len(result.runs) == (
        len(floor_cohort) * len(CONDITIONS) * len(DELAYS))
    fresh = CohortData.of(floor_cohort)
    for run in result.runs:
        cfg = EqDesignConfig(device_delay=run.device_delay)
        report = run_condition(fresh, run.subject_id, condition_named(run.condition), cfg)
        name = f"{run.subject_id}__{run.condition}__dG{run.device_delay}"
        written = (tmp_path / "runs" / f"{name}.csv").read_bytes()
        assert written == oracle_csv(report)
        assert b",-200\n" in written  # the occluded column hits the floor at Nyquist


def test_evaluate_csv_matches_the_row_formatter(floor_cohort, tmp_path):
    manifest = save_cohort(floor_cohort, tmp_path / "cohort")
    filter_path = tmp_path / "filter.json"
    base = ["--manifest", str(manifest), "--subject", "f1"]
    assert main(["design", *base, "--condition", "Optimal", "--delay", "16",
                 "--out", str(filter_path)]) == 0
    assert main(["evaluate", *base, "--filter", str(filter_path),
                 "--out", str(tmp_path / "eval")]) == 0
    filt = filter_from_json(json.loads(filter_path.read_text()))
    written = (tmp_path / "eval" / "eval_f1__dG16.csv").read_bytes()
    assert written == oracle_csv(evaluate(floor_cohort[1], filt))
    assert b"-200" in written


def test_experiment_result_keeps_only_the_summary_fields(floor_cohort, tmp_path):
    result = run_experiment(CohortData.of(floor_cohort), CONDITIONS, DELAYS, EqDesignConfig(),
                            tmp_path)
    fields = [f.name for f in dataclasses.fields(RunRecord)]
    assert fields == ["subject_id", "condition", "device_delay", "lsd_db"]
    for run in result.runs:
        assert type(run) is RunRecord
        assert [type(getattr(run, name)) for name in fields] == [str, str, int, float]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["per_subject"] == [
        {"subject": r.subject_id, "condition": r.condition, "d_G": r.device_delay,
         "lsd_db": r.lsd_db} for r in result.runs]


def test_one_failing_cell_leaves_every_other_cell_written(floor_cohort, tmp_path, monkeypatch):
    failing = ("f1", "NaiveInEar", 16)

    def run_or_fail(cohort, subject_id, cond, config):
        if (subject_id, cond.name, config.device_delay) == failing:
            raise SingularSystemError("planted failure")
        return run_condition(cohort, subject_id, cond, config)

    monkeypatch.setattr(experiment, "run_condition", run_or_fail)
    result = run_experiment(CohortData.of(floor_cohort), CONDITIONS, DELAYS, EqDesignConfig(),
                            tmp_path)
    assert [(f.subject_id, f.condition, f.device_delay) for f in result.failures] == [failing]
    expected = sorted(f"{e.subject_id}__{c}__dG{d}.{ext}"
                      for e in floor_cohort for c in CONDITIONS for d in DELAYS
                      for ext in ("csv", "json") if (e.subject_id, c, d) != failing)
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == expected
    assert len(result.runs) == len(expected) // 2


@pytest.fixture
def cpus(monkeypatch):
    """Force the usable CPU count; the returned list records each pool's process count."""
    pools = []
    make_pool = concurrent.futures.ProcessPoolExecutor

    def counted(max_workers, *args, **kwargs):
        pools.append(max_workers)
        return make_pool(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)

    def force(n):
        monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: set(range(n)))
        return pools
    return force


def tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_the_grid_tree_is_byte_identical_at_every_process_count(floor_cohort, tmp_path, cpus):
    trees = []
    for n in (1, 2, 3):
        pools = cpus(n)
        result = run_experiment(CohortData.of(floor_cohort), CONDITIONS, DELAYS, EqDesignConfig(),
                                tmp_path / f"cpus{n}")
        assert not result.failures and pools == ([n - 1] if n > 1 else [])
        pools.clear()
        trees.append(tree(tmp_path / f"cpus{n}"))
    assert len(trees[0]) == 2 + 2 * len(floor_cohort) * len(CONDITIONS) * len(DELAYS)
    assert trees[1] == trees[0] and trees[2] == trees[0]


def test_failures_in_a_forked_share_are_reported_in_ear_order(floor_cohort, tmp_path,
                                                              monkeypatch, cpus):
    # With two processes the parent runs f0, the child f1 and f2: one failure in each share.
    failing = [("f0", "NaiveInEar", 16), ("f2", "Optimal", 0)]

    def run_or_fail(cohort, subject_id, cond, config):
        if (subject_id, cond.name, config.device_delay) in failing:
            raise SingularSystemError("planted failure")
        return run_condition(cohort, subject_id, cond, config)

    monkeypatch.setattr(experiment, "run_condition", run_or_fail)
    pools = cpus(2)
    result = run_experiment(CohortData.of(floor_cohort), CONDITIONS, DELAYS, EqDesignConfig(),
                            tmp_path)
    assert pools == [1]
    assert [(f.subject_id, f.condition, f.device_delay) for f in result.failures] == failing
    cells = [(e.subject_id, c, d) for e in floor_cohort for c in CONDITIONS for d in DELAYS]
    assert [(r.subject_id, r.condition, r.device_delay) for r in result.runs] == [
        cell for cell in cells if cell not in failing]
    expected = sorted(f"{s}__{c}__dG{d}.{ext}" for s, c, d in cells if (s, c, d) not in failing
                      for ext in ("csv", "json"))
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == expected
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [(f["subject_id"], f["condition"], f["device_delay"])
            for f in summary["failures"]] == failing


@pytest.mark.parametrize("n", [1, 2], ids=["in-process", "forked"])
def test_a_bug_in_a_cell_stops_the_grid_and_leaves_no_summary(floor_cohort, tmp_path,
                                                              monkeypatch, cpus, n):
    # Only a cell's numbers make a failure row; a KeyError is a bug and stops the grid.
    def run_or_fail(cohort, subject_id, cond, config):
        if subject_id == "f2":  # the child's ear with two processes
            raise KeyError("planted bug")
        return run_condition(cohort, subject_id, cond, config)

    monkeypatch.setattr(experiment, "run_condition", run_or_fail)
    pools = cpus(n)
    with pytest.raises(KeyError, match="planted bug"):
        run_experiment(CohortData.of(floor_cohort), CONDITIONS, DELAYS, EqDesignConfig(),
                       tmp_path)
    assert pools == ([1] if n == 2 else [])
    assert not (tmp_path / "summary.json").exists()


def test_a_bug_in_one_share_stops_the_other_share_before_its_next_cell(tmp_path, monkeypatch,
                                                                      cpus):
    # With two processes the parent runs f0 and f1, the child f2 and f3: 18 cells, 36 files.
    ears, delays = floor_ears((0.5, 0.25, 0.75, 0.4)), [0, 1, 16]

    def run_or_fail(cohort, subject_id, cond, config):
        if subject_id == "f0":  # the parent's first cell
            raise KeyError("planted bug")
        return run_condition(cohort, subject_id, cond, config)

    monkeypatch.setattr(experiment, "run_condition", run_or_fail)
    pools = cpus(2)
    with pytest.raises(KeyError, match="planted bug"):
        run_experiment(CohortData.of(ears), CONDITIONS, delays, EqDesignConfig(), tmp_path)
    assert pools == [1]
    child_files = [p.name for p in (tmp_path / "runs").iterdir() if p.name[:2] in ("f2", "f3")]
    assert len(child_files) < 2 * 2 * len(CONDITIONS) * len(delays)


def test_an_interrupted_rerun_leaves_no_run_file_of_the_earlier_grid(floor_cohort, tmp_path,
                                                                     monkeypatch, cpus):
    cpus(1)
    run_experiment(CohortData.of(floor_cohort), CONDITIONS, DELAYS, EqDesignConfig(lam=0.1),
                   tmp_path)
    earlier = tree(tmp_path / "runs")
    write, written = experiment.write_report, []

    def interrupted_at_the_second_cell(report, out_dir, name, csv_ref):
        written.append(name)
        if len(written) == 2:
            raise KeyboardInterrupt
        write(report, out_dir, name, csv_ref)

    monkeypatch.setattr(experiment, "write_report", interrupted_at_the_second_cell)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(CohortData.of(floor_cohort), CONDITIONS, DELAYS, EqDesignConfig(lam=0.5),
                       tmp_path)
    later = tree(tmp_path / "runs")
    assert sorted(later) == [f"{written[0]}.csv", f"{written[0]}.json"]
    assert [name for name, data in later.items() if earlier[name] == data] == []
