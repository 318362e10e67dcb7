"""Spectral error measures and condition rankings for aided-vs-desired comparisons."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import EqFilter
from .signals import MagnitudeResponse

EVALUATION_BAND_HZ = (100.0, 7000.0)

# Nominal third-octave centers, 125 Hz .. 8 kHz.
THIRD_OCTAVE_CENTERS_HZ = (
    125.0, 160.0, 200.0, 250.0, 315.0, 400.0, 500.0, 630.0, 800.0,
    1000.0, 1250.0, 1600.0, 2000.0, 2500.0, 3150.0, 4000.0, 5000.0,
    6300.0, 8000.0,
)
_EDGE = 2.0 ** (1.0 / 6.0)


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Per-subject, per-condition evaluation: spectral errors plus the responses."""

    subject_id: str
    condition: str | None  # None when scoring a stored filter outside the grid
    device_delay: int
    lsd_db: float
    band_errors_db: dict[float, float]
    aided: MagnitudeResponse
    desired: MagnitudeResponse
    occluded: MagnitudeResponse
    eq_filter: EqFilter | None = None

    def __post_init__(self) -> None:
        if self.lsd_db < 0:
            raise ValueError(f"lsd_db must be nonnegative, got {self.lsd_db}")


@dataclass(frozen=True)
class ConditionSummary:
    condition: str
    mean_lsd_db: float
    sd_lsd_db: float
    n_subjects: int


def _require_same_grid(a: MagnitudeResponse, b: MagnitudeResponse) -> None:
    if a.frequencies_hz.size != b.frequencies_hz.size or not np.array_equal(
        a.frequencies_hz, b.frequencies_hz
    ):
        raise ValueError("magnitude responses live on different frequency grids")


def log_spectral_distance(
    a: MagnitudeResponse,
    b: MagnitudeResponse,
    band: tuple[float, float] = EVALUATION_BAND_HZ,
) -> float:
    """RMS dB difference between two magnitude responses inside a band."""
    _require_same_grid(a, b)
    f_lo, f_hi = band
    nyquist = float(a.frequencies_hz[-1])
    if not 0.0 < f_lo < f_hi <= nyquist:
        raise ValueError(f"band {band} must satisfy 0 < f_lo < f_hi <= {nyquist}")
    mask = (a.frequencies_hz >= f_lo) & (a.frequencies_hz <= f_hi)
    if not np.any(mask):
        raise ValueError(f"band {band} contains no grid points")
    diff = a.magnitude_db[mask] - b.magnitude_db[mask]
    return float(np.sqrt(np.mean(diff * diff)))


def band_error_profile(
    a: MagnitudeResponse, b: MagnitudeResponse
) -> dict[float, float]:
    """Mean absolute dB difference per third-octave band (125 Hz .. 8 kHz).

    Bands without grid points are omitted.
    """
    _require_same_grid(a, b)
    freqs = a.frequencies_hz
    diff = np.abs(a.magnitude_db - b.magnitude_db)
    profile: dict[float, float] = {}
    for center in THIRD_OCTAVE_CENTERS_HZ:
        lo, hi = center / _EDGE, center * _EDGE
        mask = (freqs >= lo) & (freqs < hi)
        if np.any(mask):
            profile[center] = float(np.mean(diff[mask]))
    return profile


def rank_conditions(reports: list) -> list[ConditionSummary]:
    """Per-condition mean and spread of the log-spectral distance, best first.

    Reads only each report's `condition` and `lsd_db`, so the grid's run
    records rank as well as full reports.

    Ties in the mean break lexicographically by condition name; input order
    never matters.
    """
    if not reports:
        raise ValueError("rank_conditions requires at least one report")
    by_condition: dict[str, list[float]] = {}
    for report in reports:
        by_condition.setdefault(report.condition, []).append(report.lsd_db)
    summaries = [
        ConditionSummary(
            condition=name,
            # Sorting the per-subject values makes the reduction independent
            # of report order, down to the last floating-point bit.
            mean_lsd_db=float(np.mean(sorted(values))),
            sd_lsd_db=float(np.std(sorted(values))),
            n_subjects=len(values),
        )
        for name, values in sorted(by_condition.items())
    ]
    summaries.sort(key=lambda s: (s.mean_lsd_db, s.condition))
    return summaries
