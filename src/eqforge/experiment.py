"""Batch execution of the (subject x condition x delay) grid and report emission."""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import logging
import os
import re
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cohort import CohortData
from .conditions import ConditionSpec, condition_named, design_ears, run_condition
from .design import EqDesignConfig, filter_to_json
from .metrics import EVALUATION_BAND_HZ, ConditionReport, rank_conditions
from .signals import DEFAULT_N_FFT, MagnitudeResponse
from .solvers import SingularSystemError

log = logging.getLogger("eqforge.experiment")

DEFAULT_DELAYS = (0, 1, 16, 96)
_RUN_FILE = re.compile(r".+__.+__dG\d+\.(csv|json)")
_SUMMARIES = ("summary.csv", "summary.json")


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


@functools.lru_cache(maxsize=1)  # keyed by the spectra an ear keeps (`EarDataset.spectra`)
def _csv_template(desired: MagnitudeResponse, occluded: MagnitudeResponse) -> bytes:
    """The run CSV of an ear's spectra, its aided column left as ``%.17g`` fields."""
    spectra = np.column_stack([desired.frequencies_hz, desired.magnitude_db, occluded.magnitude_db])
    rows = "%.17g,%.17g,%%.17g,%.17g\n" * len(spectra) % tuple(spectra.ravel().tolist())
    return ("frequency_hz,desired_db,aided_db,occluded_db\n" + rows).encode()


def write_report(report: ConditionReport, out_dir: Path, name: str, csv_ref: str) -> None:
    """Write one scored filter's report files under `out_dir`.

    `<name>.csv` holds the spectra, one row per frequency bin at 17 significant
    digits; `<name>.json` holds the scores and the filter, and names the CSV
    as `csv_ref`. The frequency, desired and occluded columns are an ear's,
    so consecutive reports of one ear format them once.
    """
    template = _csv_template(report.desired, report.occluded)
    (out_dir / f"{name}.csv").write_bytes(template % tuple(report.aided.magnitude_db.tolist()))
    payload = {
        "subject": report.subject_id,
        "condition": report.condition,
        "d_G": report.eq_filter.config.device_delay,
        "lsd_db": report.lsd_db,
        "band_errors_db": {format(c, "g"): v for c, v in report.band_errors_db.items()},
        "responses_csv": csv_ref,
        "filter": filter_to_json(report.eq_filter),
    }
    (out_dir / f"{name}.json").write_text(json.dumps(payload, indent=2) + "\n")


def _write_summaries(result: ExperimentResult, delays: Sequence[int], out_dir: Path) -> None:
    rows = [{"d_G": delay, "rank": rank, "condition": s.condition, "mean_lsd_db": s.mean_lsd_db,
             "sd_lsd_db": s.sd_lsd_db, "n_subjects": s.n_subjects}
            for delay in delays if (runs := [r for r in result.runs if r.device_delay == delay])
            for rank, s in enumerate(rank_conditions(runs), start=1)]
    table = [f"{r['d_G']},{r['rank']},{r['condition']},{r['mean_lsd_db']:.17g},"
             f"{r['sd_lsd_db']:.17g},{r['n_subjects']}" for r in rows]
    (out_dir / "summary.csv").write_text(
        "\n".join(["d_G,rank,condition,mean_lsd_db,sd_lsd_db,n_subjects", *table]) + "\n")
    payload = {
        "rows": rows,
        "per_subject": [{"subject": r.subject_id, "condition": r.condition,
                         "d_G": r.device_delay, "lsd_db": r.lsd_db} for r in result.runs],
        "failures": [dataclasses.asdict(f) for f in result.failures],
    }
    (out_dir / "summary.json").write_text(json.dumps(payload, indent=2) + "\n")


_adopted_share = None  # in a pool child: the parent's `run_share`, inherited, not pickled


def _adopt(run_share) -> None:
    global _adopted_share
    _adopted_share = run_share


def _run_adopted(subject_ids: list[str]) -> ExperimentResult:
    return _adopted_share(subject_ids)


def grid_request(conditions: Sequence[str], delays: Sequence[int], design: EqDesignConfig
                 ) -> tuple[list[ConditionSpec], dict[int, EqDesignConfig]]:
    """A grid's condition specs and its design config at each delay.

    A ValueError if either list is empty or repeats a value, a condition is
    unknown or a delay is out of bounds.
    """
    for what, values in (("condition", conditions), ("delay", delays)):
        if not values:
            raise ValueError(f"need at least one {what}")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"{what} {repeated[0]!r} is given more than once")
    return ([condition_named(name) for name in conditions],
            {delay: dataclasses.replace(design, device_delay=delay) for delay in delays})


def run_experiment(
    cohort: CohortData,
    conditions: Sequence[str],
    delays: Sequence[int],
    design: EqDesignConfig,
    out_dir: str | Path,
) -> ExperimentResult:
    """Run every (subject, condition, delay) cell and write all report files.

    The ears are dealt in contiguous shares, in ear order, to one process per
    usable CPU (one with a single CPU or ear, or without `os.sched_getaffinity`),
    and each process writes a cell's run files as soon as it is scored, keeping
    only its `RunRecord` for the summaries; the shares' results, concatenated,
    are the grid's in ear order. An ear keeps its spectra, and its cells run
    one after another, so they make its CSV text once. A cell that fails on its
    numbers (ArithmeticError, SingularSystemError) is recorded; any other error
    stops the grid, every share before its next cell, and is raised once the
    shares have stopped. Output is a pure function of the inputs, whatever the
    process count. Before the first cell, the earlier summaries and every run
    file under ``runs/`` are deleted, so the tree never mixes two grids, and a
    tree without summaries holds an unfinished one. A request that `grid_request`
    refuses, a subject that cannot be read, lacks d_true, has a rate too low to score
    or a response or aided path (at the largest delay) too long for the spectra, or
    a cell that `design_ears` refuses fails before any file is touched.
    """
    specs, configs = grid_request(conditions, delays, design)
    # Every cell's ears are read and checked now: bad input fails the run, not a cell.
    ears = cohort.ears
    for ear, spec in itertools.product(ears, specs):
        design_ears(cohort, ear.subject_id, spec)
    for ear in ears:
        aided = len(ear.h_m) + max(delays) + design.filter_length + len(ear.require("d_true")) - 2
        if ear.sample_rate_hz / 2 < EVALUATION_BAND_HZ[1]:
            raise ValueError(f"{ear.subject_id}: a cohort at {ear.sample_rate_hz} Hz cannot be "
                             f"scored: the {EVALUATION_BAND_HZ[0]:g}-{EVALUATION_BAND_HZ[1]:g} Hz "
                             f"evaluation band needs at least {2 * EVALUATION_BAND_HZ[1]:g} Hz")
        for what, n in (("response h_open", len(ear.h_open)), ("response h_occ", len(ear.h_occ)),
                        ("the aided path", aided)):
            if n > DEFAULT_N_FFT:
                raise ValueError(f"{ear.subject_id}: {what} has {n} samples; the {DEFAULT_N_FFT}"
                                 f"-point spectra hold at most {DEFAULT_N_FFT}")
    out_dir = Path(out_dir)
    runs_dir = out_dir / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    for name in _SUMMARIES:  # until the grid finishes, no summary disagrees with its runs
        (out_dir / name).unlink(missing_ok=True)
    for path in runs_dir.iterdir():  # and no run file is an earlier grid's
        if path.is_file() and _RUN_FILE.fullmatch(path.name):
            path.unlink()

    ids, n = [ear.subject_id for ear in ears], len(ears)
    w = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1, n)
    if w > 1:
        import multiprocessing  # here, so that a command that never forks does not import it
        from concurrent.futures import ProcessPoolExecutor
    # Set when an error leaves a share; every share checks it before a cell, forked ones too.
    stop = multiprocessing.get_context("fork").Event() if w > 1 else threading.Event()

    def run_share(subject_ids: list[str]) -> ExperimentResult:
        result = ExperimentResult()
        try:
            for sid, spec, (delay, cfg) in itertools.product(subject_ids, specs, configs.items()):
                if stop.is_set():
                    break
                try:
                    report = run_condition(cohort, sid, spec, cfg)
                except (ArithmeticError, SingularSystemError) as exc:
                    failure = RunFailure(sid, spec.name, delay, f"{type(exc).__name__}: {exc}")
                    log.warning("run failed: %s/%s/dG=%s: %s", *dataclasses.astuple(failure))
                    result.failures.append(failure)
                    continue
                name = f"{sid}__{spec.name}__dG{delay}"
                write_report(report, runs_dir, name, f"runs/{name}.csv")
                result.runs.append(RunRecord(sid, spec.name, delay, report.lsd_db))
        except BaseException:
            stop.set()
            raise
        return result

    if w > 1:
        # A killed child breaks the executor, where multiprocessing.Pool would wait forever.
        # The parent runs share 0 itself, so what it records (a trace, say) covers those ears.
        shares = [ids[n * i // w:n * (i + 1) // w] for i in range(w)]
        with ProcessPoolExecutor(w - 1, multiprocessing.get_context("fork"), _adopt,
                                 (run_share,)) as pool:
            pending = [pool.submit(_run_adopted, share) for share in shares[1:]]
            results = [run_share(shares[0]), *(future.result() for future in pending)]
    else:
        results = [run_share(ids)]
    result = ExperimentResult([r for part in results for r in part.runs],
                              [f for part in results for f in part.failures])
    _write_summaries(result, delays, out_dir)
    log.info("experiment finished: %d runs, %d failures", len(result.runs), len(result.failures))
    return result
