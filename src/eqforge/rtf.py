"""Relative transfer function (RTF) estimation by least-squares deconvolution.

An RTF relates an eardrum path to the hearing-device microphone path. The
estimators solve for FIR coefficients r such that convolving the microphone
response with r reproduces the eardrum response, delayed by a configurable
acausal lead so that slightly non-causal ratios stay representable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import ImpulseResponse, zero_pad_leading
from .solvers import solve_pooled

MAX_RTF_LENGTH = 512


@dataclass(frozen=True, eq=False)
class RelativeTransferEstimate:
    """FIR approximation of an eardrum-to-microphone transfer ratio."""

    coefficients: np.ndarray
    acausal_lead: int

    def __post_init__(self) -> None:
        coeffs = np.array(self.coefficients, dtype=np.float64, copy=True)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coefficients must form a nonempty 1-D vector")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must all be finite")
        if self.acausal_lead < 0:
            raise ValueError(f"acausal_lead must be nonnegative, got {self.acausal_lead}")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    def __len__(self) -> int:
        return int(self.coefficients.size)


@dataclass(frozen=True, eq=False)
class MeasurementPair:
    """One subject's microphone response paired with an eardrum response."""

    h_m: ImpulseResponse
    h_target: ImpulseResponse
    subject_id: str

    def __post_init__(self) -> None:
        if self.h_m.sample_rate_hz != self.h_target.sample_rate_hz:
            raise ValueError(
                f"{self.subject_id}: sample rates differ "
                f"({self.h_m.sample_rate_hz} vs {self.h_target.sample_rate_hz} Hz)"
            )


def default_rtf_length(target_length: int, acausal_lead: int) -> int:
    """Estimate length covering the padded target support, capped at 512 taps."""
    return min(acausal_lead + target_length, MAX_RTF_LENGTH)


def ls_deconvolve(h_den: ImpulseResponse, target: np.ndarray, rtf_length: int) -> np.ndarray:
    """Least-squares deconvolution of `target` by `h_den`.

    Minimizes ``|H x - t|^2`` where H is the full convolution matrix of
    `h_den` with `rtf_length` columns and t is the target, evaluated over the
    common support (shorter side zero-extended). For a numerically
    rank-deficient system the minimum-norm minimizer is returned.
    """
    if rtf_length < 1:
        raise ValueError(f"rtf_length must be at least 1, got {rtf_length}")
    return solve_pooled(
        [h_den], [target], rtf_length, min_norm_fallback=True, context="deconvolution",
    ).coefficients


def estimate_individual(
    pair: MeasurementPair, rtf_length: int, acausal_lead: int
) -> RelativeTransferEstimate:
    """RTF estimate from a single subject's own measurements."""
    padded = zero_pad_leading(pair.h_target, acausal_lead)
    coeffs = ls_deconvolve(pair.h_m, padded.samples, rtf_length)
    return RelativeTransferEstimate(coeffs, acausal_lead)


def estimate_average(
    pairs: list[MeasurementPair], rtf_length: int, acausal_lead: int
) -> RelativeTransferEstimate:
    """Pooled RTF estimate across a set of measurements.

    Solves the pooled normal equations: the per-pair Gram matrices and
    right-hand sides are accumulated in list order and solved once, which
    weights every measurement equally.
    """
    if not pairs:
        raise ValueError("estimate_average requires at least one measurement pair")
    rates = {p.h_m.sample_rate_hz for p in pairs}
    if len(rates) != 1:
        raise ValueError(f"measurement pairs mix sample rates: {sorted(rates)}")
    if rtf_length < 1:
        raise ValueError(f"rtf_length must be at least 1, got {rtf_length}")
    coeffs = solve_pooled(
        [p.h_m for p in pairs],
        [zero_pad_leading(p.h_target, acausal_lead).samples for p in pairs],
        rtf_length,
        min_norm_fallback=True,
        context="pooled RTF estimate",
    ).coefficients
    return RelativeTransferEstimate(coeffs, acausal_lead)
