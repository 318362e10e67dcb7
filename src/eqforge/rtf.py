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


def default_rtf_length(target_length: int, acausal_lead: int) -> int:
    """Estimate length covering the padded target support, capped at 512 taps."""
    return min(acausal_lead + target_length, MAX_RTF_LENGTH)


def estimate_individual(
    h_m: ImpulseResponse, h_target: ImpulseResponse, rtf_length: int, acausal_lead: int
) -> RelativeTransferEstimate:
    """RTF estimate from one ear's own measurements: the pooled estimate over one pair."""
    return estimate_average([(h_m, h_target)], rtf_length, acausal_lead)


def estimate_average(
    pairs: list[tuple[ImpulseResponse, ImpulseResponse]], rtf_length: int, acausal_lead: int
) -> RelativeTransferEstimate:
    """Pooled RTF estimate over (h_m, h_target) measurement pairs.

    Minimizes ``sum_k |h_m,k * r - t_k|^2`` with t_k the eardrum response
    delayed by `acausal_lead`: the per-pair normal equations are accumulated
    in list order and solved once, which weights every pair equally. A system
    that is not positive definite or whose condition estimate exceeds
    CONDITION_LIMIT raises SingularSystemError.
    """
    if not pairs:
        raise ValueError("estimate_average requires at least one measurement pair")
    rates = {h.sample_rate_hz for pair in pairs for h in pair}
    if len(rates) != 1:
        raise ValueError(f"measurements mix sample rates: {sorted(rates)}")
    if rtf_length < 1:
        raise ValueError(f"rtf_length must be at least 1, got {rtf_length}")
    coeffs = solve_pooled(
        [h_m for h_m, _ in pairs],
        [zero_pad_leading(h_target, acausal_lead).samples for _, h_target in pairs],
        rtf_length,
        context="RTF estimate",
    ).coefficients
    return RelativeTransferEstimate(coeffs, acausal_lead)
