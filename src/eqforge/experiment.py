"""Batch execution of the (subject x condition x delay) grid and report emission."""

from __future__ import annotations

import dataclasses
import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cohort import CohortData
from .conditions import condition_named, run_condition
from .design import EqDesignConfig, filter_to_json
from .metrics import EVALUATION_BAND_HZ, ConditionReport, rank_conditions

log = logging.getLogger("eqforge.experiment")

DEFAULT_DELAYS = (0, 1, 16, 96)
_RUN_FILE = re.compile(r".+__.+__dG\d+\.(csv|json)")


@dataclass(frozen=True)
class RunRecord:
    """What the summaries keep of a written cell: its key and its score."""

    subject_id: str
    condition: str
    device_delay: int
    lsd_db: float


@dataclass(frozen=True)
class RunFailure:
    subject_id: str
    condition: str
    device_delay: int
    error: str


@dataclass
class ExperimentResult:
    runs: list[RunRecord] = field(default_factory=list)
    failures: list[RunFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _formatted(values: np.ndarray, memo: dict | None = None) -> list[str]:
    """`values` at 17 significant digits, taken from `memo` (keyed by bytes) once formatted."""
    if memo is None:
        return [format(x, ".17g") for x in values.tolist()]
    key = values.tobytes()
    if key not in memo:
        memo[key] = _formatted(values)
    return memo[key]


def write_report(report: ConditionReport, out_dir: Path, name: str, csv_ref: str,
                 memo: dict) -> None:
    """Write one scored filter's report files under `out_dir`.

    `<name>.csv` holds the spectra, one row per frequency bin at 17 significant
    digits; `<name>.json` holds the scores and the filter, and names the CSV
    as `csv_ref`. The frequency, desired and occluded columns repeat across
    reports, so their text is kept in the caller's `memo`.
    """
    columns = (_formatted(report.desired.frequencies_hz, memo),
               _formatted(report.desired.magnitude_db, memo),
               _formatted(report.aided.magnitude_db),
               _formatted(report.occluded.magnitude_db, memo))
    rows = "\n".join(map(",".join, zip(*columns)))
    (out_dir / f"{name}.csv").write_text(f"frequency_hz,desired_db,aided_db,occluded_db\n{rows}\n")
    payload = {
        "subject": report.subject_id,
        "condition": report.condition,
        "d_G": report.device_delay,
        "lsd_db": report.lsd_db,
        "band_errors_db": {format(c, "g"): v for c, v in report.band_errors_db.items()},
        "responses_csv": csv_ref,
        "filter": filter_to_json(report.eq_filter) if report.eq_filter else None,
    }
    (out_dir / f"{name}.json").write_text(json.dumps(payload, indent=2) + "\n")


def _prune_stale_runs(runs_dir: Path, written: set[str]) -> None:
    """Delete the run files of an earlier grid that this grid did not write."""
    for path in runs_dir.iterdir():
        if path.is_file() and _RUN_FILE.fullmatch(path.name) and path.stem not in written:
            path.unlink()


def _write_summaries(result: ExperimentResult, delays: list[int], out_dir: Path) -> None:
    # (delay, best-first summaries), one per delay with runs
    rankings = [(delay, rank_conditions(runs)) for delay in delays
                if (runs := [r for r in result.runs if r.device_delay == delay])]
    rows = [{"condition": s.condition, "d_G": delay, "mean_lsd_db": s.mean_lsd_db,
             "sd_lsd_db": s.sd_lsd_db, "n_subjects": s.n_subjects}
            for delay, ranked in rankings for s in sorted(ranked, key=lambda s: s.condition)]
    summary = [f"{r['condition']},{r['d_G']},{r['mean_lsd_db']:.17g},{r['sd_lsd_db']:.17g},"
               f"{r['n_subjects']}" for r in rows]
    (out_dir / "summary.csv").write_text(
        "\n".join(["condition,d_G,mean_lsd_db,sd_lsd_db,n_subjects", *summary]) + "\n")
    payload = {
        "rows": rows,
        "per_subject": [{"subject": r.subject_id, "condition": r.condition,
                         "d_G": r.device_delay, "lsd_db": r.lsd_db} for r in result.runs],
        "failures": [dataclasses.asdict(f) for f in result.failures],
    }
    (out_dir / "summary.json").write_text(json.dumps(payload, indent=2) + "\n")
    ranking = [f"{delay},{rank},{s.condition},{s.mean_lsd_db:.17g},{s.sd_lsd_db:.17g}"
               for delay, ranked in rankings for rank, s in enumerate(ranked, start=1)]
    (out_dir / "ranking.csv").write_text(
        "\n".join(["d_G,rank,condition,mean_lsd_db,sd_lsd_db", *ranking]) + "\n")


def run_experiment(
    cohort: CohortData,
    conditions: list[str],
    delays: list[int],
    design: EqDesignConfig,
    out_dir: str | Path,
) -> ExperimentResult:
    """Run every (subject, condition, delay) cell and write all report files.

    Each cell's run files are written as soon as it is scored, and only its
    `RunRecord` is kept for the summaries. Individual cell failures are
    recorded and do not abort the grid. Output is a pure function of the
    inputs: rerunning overwrites every file with identical bytes, and run
    files under ``runs/`` that this grid did not write (left by an earlier,
    larger grid) are deleted.
    """
    if not conditions or not delays:
        raise ValueError("need at least one condition and one delay")
    specs = [condition_named(name) for name in conditions]
    # Every ear, the dummy's too, is read now: a bad file fails the run, not a cell.
    ears, _ = cohort.ears, cohort.dummy
    for ear in ears:
        if ear.sample_rate_hz / 2 < EVALUATION_BAND_HZ[1]:
            raise ValueError(f"{ear.subject_id}: a cohort at {ear.sample_rate_hz} Hz cannot be "
                             f"scored: the {EVALUATION_BAND_HZ[0]:g}-{EVALUATION_BAND_HZ[1]:g} Hz "
                             f"evaluation band needs at least {2 * EVALUATION_BAND_HZ[1]:g} Hz")
    out_dir = Path(out_dir)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    result = ExperimentResult()
    written = set()
    for ear in ears:
        memo: dict = {}  # the grid is ear-major, so an ear's columns are not needed again
        for spec in specs:
            for delay in delays:
                cfg = dataclasses.replace(design, device_delay=delay)
                try:
                    report = run_condition(cohort, ear.subject_id, spec, cfg)
                except Exception as exc:
                    failure = RunFailure(ear.subject_id, spec.name, delay,
                                         f"{type(exc).__name__}: {exc}")
                    log.warning("run failed: %s/%s/dG=%s: %s", *dataclasses.astuple(failure))
                    result.failures.append(failure)
                    continue
                name = f"{ear.subject_id}__{spec.name}__dG{delay}"
                write_report(report, runs_dir, name, f"runs/{name}.csv", memo)
                written.add(name)
                result.runs.append(RunRecord(ear.subject_id, spec.name, delay, report.lsd_db))

    _prune_stale_runs(runs_dir, written)
    _write_summaries(result, list(delays), out_dir)
    log.info("experiment finished: %d runs, %d failures", len(result.runs), len(result.failures))
    return result
