"""Output checks, run outside the timed region. Each returns a list of problems."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# A stored normal-equation residual must satisfy residual <= TOL * (scale + 1).
RESIDUAL_TOL = 1e-8
# Largest allowed drift of a condition's mean LSD from the pilot fixture, in dB.
FIXTURE_TOL_DB = 1e-6


def tree_digest(root: Path) -> tuple[str, int, int]:
    """(digest, files, bytes) of every file under `root`, by relative path and content."""
    outer = hashlib.sha256()
    files = 0
    size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        outer.update(path.relative_to(root).as_posix().encode() + b"\0")
        outer.update(hashlib.sha256(data).digest())
        files += 1
        size += len(data)
    return outer.hexdigest(), files, size


def check_filter(payload: dict, where: str) -> list[str]:
    residual = float(payload["normal_eq_residual"])
    scale = float(payload["normal_eq_scale"])
    if not residual <= RESIDUAL_TOL * (scale + 1.0):
        return [f"{where}: normal_eq_residual {residual:.3e} exceeds "
                f"{RESIDUAL_TOL:g} * (normal_eq_scale {scale:.3e} + 1)"]
    return []


def check_grid(out_dir: Path, cells: list[tuple[str, str, int]]) -> tuple[list[str], int]:
    """Check an `experiment` output tree against the requested cells.

    Every requested cell must appear exactly once, either as a record or as a
    failure, with its run files present and its filter residual in bound.
    Returns (problems, number of failed cells).
    """
    summary = json.loads((out_dir / "summary.json").read_text())
    records = [(r["subject"], r["condition"], int(r["d_G"])) for r in summary["per_subject"]]
    failures = [(f["subject_id"], f["condition"], int(f["device_delay"]))
                for f in summary["failures"]]
    problems = []
    seen = records + failures
    if sorted(seen) != sorted(cells):
        problems.append(f"{len(records)} records + {len(failures)} failures do not match "
                        f"the {len(cells)} requested cells")
    for subject, condition, delay in records:
        name = f"{subject}__{condition}__dG{delay}"
        run_json = out_dir / "runs" / f"{name}.json"
        if not run_json.is_file() or not (out_dir / "runs" / f"{name}.csv").is_file():
            problems.append(f"{name}: run files missing")
            continue
        payload = json.loads(run_json.read_text())
        if payload["filter"] is None:
            problems.append(f"{name}: no filter stored")
        else:
            problems += check_filter(payload["filter"], name)
    return problems, len(failures)


def check_fixture(out_dir: Path, fixture: Path) -> list[str]:
    """Mean LSD per (delay, condition) must match the pilot fixture."""
    expected = json.loads(fixture.read_text())["mean_lsd_db"]
    rows = json.loads((out_dir / "summary.json").read_text())["rows"]
    got = {(str(r["d_G"]), r["condition"]): float(r["mean_lsd_db"]) for r in rows}
    problems = []
    for delay, by_condition in expected.items():
        for condition, value in by_condition.items():
            key = (delay, condition)
            if key not in got:
                problems.append(f"fixture cell d_G={delay} {condition} missing from summary")
            elif not abs(got[key] - value) <= FIXTURE_TOL_DB:
                problems.append(f"d_G={delay} {condition}: mean LSD {got[key]!r} differs from "
                                f"fixture {value!r} by more than {FIXTURE_TOL_DB:g} dB")
    return problems


def check_fit(out_dir: Path, subject: str, delay: int) -> list[str]:
    """One fit request's output: the designed filter and its evaluation."""
    name = f"eval_{subject}__dG{delay}"
    paths = [out_dir / "filter.json", out_dir / "eval" / f"{name}.json",
             out_dir / "eval" / f"{name}.csv"]
    missing = [p.name for p in paths if not p.is_file()]
    if missing:
        return [f"{subject} d_G={delay}: missing outputs {missing}"]
    return check_filter(json.loads(paths[0].read_text()), f"{subject} d_G={delay} filter")
