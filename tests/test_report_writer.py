"""The run-report writer: byte-identical to a row-at-a-time formatter, streamed per cell."""

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


@pytest.fixture(scope="module")
def floor_cohort():
    """Three ears whose open and occluded responses are exactly zero at Nyquist (-200 dB)."""
    rng = np.random.default_rng(12)

    def short():
        return make_ir(np.concatenate([[1.0], 0.3 * rng.standard_normal(6)]))

    ears = []
    for i, c in enumerate((0.5, 0.25, 0.75)):
        ears.append(EarDataset(f"f{i}", h_m=short(), h_open=make_ir([c, c]),
                               h_occ=make_ir([1e-3 * c, 1e-3 * c]),
                               d_true=short(), d_inear=short(), d_model=short()))
    return ears


def test_grid_csvs_match_the_row_formatter_including_floor_bins(floor_cohort, tmp_path):
    result = run_experiment(CohortData.of(floor_cohort), CONDITIONS, DELAYS, EqDesignConfig(),
                            tmp_path)
    assert result.ok and len(result.runs) == len(floor_cohort) * len(CONDITIONS) * len(DELAYS)
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
            raise RuntimeError("planted failure")
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
