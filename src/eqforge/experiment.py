"""Batch execution of the (subject x condition x delay) grid and report emission."""

from __future__ import annotations

import dataclasses
import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

from .cohort import EarDataset
from .conditions import condition_named, run_condition
from .design import EqDesignConfig, filter_to_json
from .metrics import ConditionReport, rank_conditions

log = logging.getLogger("eqforge.experiment")

DEFAULT_DELAYS = (0, 1, 16, 96)
_RUN_FILE = re.compile(r".+__.+__dG\d+\.(csv|json)")


@dataclass(frozen=True)
class RunFailure:
    subject_id: str
    condition: str
    device_delay: int
    error: str


@dataclass
class ExperimentResult:
    reports: list[ConditionReport] = field(default_factory=list)
    failures: list[RunFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def write_report(report: ConditionReport, out_dir: Path, name: str, csv_ref: str) -> None:
    """Write one scored filter's report files under `out_dir`.

    `<name>.csv` holds the spectra, one row per frequency bin at 17 significant
    digits; `<name>.json` holds the scores and the filter, and names the CSV
    as `csv_ref`.
    """
    row = "{:.17g},{:.17g},{:.17g},{:.17g}".format
    columns = zip(report.desired.frequencies_hz.tolist(), report.desired.magnitude_db.tolist(),
                  report.aided.magnitude_db.tolist(), report.occluded.magnitude_db.tolist())
    lines = ["frequency_hz,desired_db,aided_db,occluded_db"]
    lines.extend(row(*values) for values in columns)
    (out_dir / f"{name}.csv").write_text("\n".join(lines) + "\n")
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


def _write_summaries(
    result: ExperimentResult, delays: list[int], out_dir: Path
) -> None:
    rankings = []  # (delay, best-first summaries), one per delay with reports
    for delay in delays:
        subset = [r for r in result.reports if r.device_delay == delay]
        if subset:
            rankings.append((delay, rank_conditions(subset)))

    rows = [
        {
            "condition": summary.condition,
            "d_G": delay,
            "mean_lsd_db": summary.mean_lsd_db,
            "sd_lsd_db": summary.sd_lsd_db,
            "n_subjects": summary.n_subjects,
        }
        for delay, ranked in rankings
        for summary in sorted(ranked, key=lambda s: s.condition)
    ]
    csv_lines = ["condition,d_G,mean_lsd_db,sd_lsd_db,n_subjects"]
    for row in rows:
        csv_lines.append(
            f"{row['condition']},{row['d_G']},{format(row['mean_lsd_db'], '.17g')},"
            f"{format(row['sd_lsd_db'], '.17g')},{row['n_subjects']}"
        )
    (out_dir / "summary.csv").write_text("\n".join(csv_lines) + "\n")

    payload = {
        "rows": rows,
        "per_subject": [
            {
                "subject": r.subject_id,
                "condition": r.condition,
                "d_G": r.device_delay,
                "lsd_db": r.lsd_db,
            }
            for r in result.reports
        ],
        "failures": [dataclasses.asdict(f) for f in result.failures],
    }
    (out_dir / "summary.json").write_text(json.dumps(payload, indent=2) + "\n")

    ranking_lines = ["d_G,rank,condition,mean_lsd_db,sd_lsd_db"]
    for delay, ranked in rankings:
        for rank, summary in enumerate(ranked, start=1):
            ranking_lines.append(
                f"{delay},{rank},{summary.condition},"
                f"{format(summary.mean_lsd_db, '.17g')},{format(summary.sd_lsd_db, '.17g')}"
            )
    (out_dir / "ranking.csv").write_text("\n".join(ranking_lines) + "\n")


def run_experiment(
    cohort: list[EarDataset],
    conditions: list[str],
    delays: list[int],
    design: EqDesignConfig,
    out_dir: str | Path,
    *,
    dummy: EarDataset | None = None,
) -> ExperimentResult:
    """Run every (subject, condition, delay) cell and write all report files.

    Individual cell failures are recorded and do not abort the grid. Output
    is a pure function of the inputs: rerunning overwrites every file with
    identical bytes, and run files under ``runs/`` that this grid did not
    write (left by an earlier, larger grid) are deleted.
    """
    if not conditions or not delays:
        raise ValueError("need at least one condition and one delay")
    specs = [condition_named(name) for name in conditions]
    out_dir = Path(out_dir)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    cache: dict = {}
    result = ExperimentResult()
    for ear in cohort:
        for spec in specs:
            for delay in delays:
                cfg = dataclasses.replace(design, device_delay=delay)
                try:
                    result.reports.append(run_condition(
                        cohort, ear.subject_id, spec, cfg, dummy=dummy, cache=cache,
                    ))
                except Exception as exc:
                    failure = RunFailure(ear.subject_id, spec.name, delay,
                                         f"{type(exc).__name__}: {exc}")
                    log.warning("run failed: %s/%s/dG=%s: %s", *dataclasses.astuple(failure))
                    result.failures.append(failure)

    written = set()
    for report in result.reports:
        name = f"{report.subject_id}__{report.condition}__dG{report.device_delay}"
        write_report(report, runs_dir, name, f"runs/{name}.csv")
        written.add(name)
    _prune_stale_runs(runs_dir, written)
    _write_summaries(result, list(delays), out_dir)
    log.info(
        "experiment finished: %d runs, %d failures",
        len(result.reports), len(result.failures),
    )
    return result
