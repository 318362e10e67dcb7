"""The one least-squares path shared by RTF estimation and equalizer design."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .signals import ImpulseResponse, zero_extend

CONDITION_LIMIT = 1e12


class SingularSystemError(RuntimeError):
    """A least-squares system is too ill-conditioned to solve as requested."""


def solve_normal_equations(
    gram: np.ndarray, rhs: np.ndarray, *, context: str = "normal equations"
) -> np.ndarray:
    """Solve ``gram @ x = rhs`` for a symmetric PSD Gram matrix by Cholesky.

    Only the upper triangle is read. It is factored in packed storage
    (``dpptrf``, ``dppcon``, ``dpptrs``), which runs on one thread at every
    order, so the factors do not depend on the BLAS thread count as those of
    the blocked ``dpotrf`` do from order 128 up.

    The guard is LAPACK's estimate of the 1-norm condition number from the
    Cholesky factor (``dppcon``), within a factor of n of the 2-norm value;
    the largest on the default seed-42 grid is 1.1e5. Raises
    SingularSystemError, naming the condition estimate, when the Gram matrix
    or right-hand side is not finite, the Gram matrix is zero or not positive
    definite, or the estimate exceeds CONDITION_LIMIT; raises ValueError when
    the shapes do not match.
    """
    gram = np.asarray(gram, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    n = gram.shape[0] if gram.ndim == 2 else -1
    if gram.shape != (n, n) or rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise ValueError(
            f"{context}: need a square Gram matrix and a right-hand side of as many "
            f"rows, got shapes {gram.shape} and {rhs.shape}"
        )
    if not (np.isfinite(gram).all() and np.isfinite(rhs).all()):
        raise SingularSystemError(
            f"{context}: normal equations are not finite (condition estimate nan)"
        )
    if not np.any(gram):
        raise SingularSystemError(
            f"{context}: normal matrix is identically zero (condition estimate inf)"
        )

    # The upper triangle in packed column-major storage: column j of the
    # upper triangle is row j of the transpose's lower triangle.
    packed = gram.T[np.tri(n, dtype=bool)]
    factor, info = scipy.linalg.lapack.dpptrf(n, packed, lower=0, overwrite_ap=1)
    if info != 0:
        raise SingularSystemError(
            f"{context}: Cholesky factorization failed, the normal matrix is not "
            f"positive definite at leading minor {info} (condition estimate inf)"
        )
    rcond, _ = scipy.linalg.lapack.dppcon(n, factor, np.abs(gram).sum(axis=0).max())
    cond = 1.0 / rcond if rcond > 0.0 else np.inf
    if not cond <= CONDITION_LIMIT:
        raise SingularSystemError(
            f"{context}: condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}"
        )
    x, _ = scipy.linalg.lapack.dpptrs(n, factor, rhs.reshape(n, -1))
    return x.reshape(rhs.shape)


def align_target(target: np.ndarray, rows: int) -> tuple[np.ndarray, float]:
    """Target cut or zero-extended to `rows` samples, plus the energy cut off.

    Target samples beyond the full-convolution support face all-zero rows:
    they add a constant to the cost and never move the minimizer.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.ndim != 1 or target.size == 0:
        raise ValueError("target must be a nonempty 1-D vector")
    aligned = np.zeros(rows)
    keep = min(rows, target.size)
    aligned[:keep] = target[:keep]
    tail = target[rows:]
    return aligned, float(np.dot(tail, tail))


@dataclass(frozen=True, eq=False)
class PooledSolution:
    """Minimizer of a pooled least-squares problem and its audited norms."""

    coefficients: np.ndarray
    residual_norm: float
    penalty_norm: float
    normal_eq_residual: float
    normal_eq_scale: float


def autocorrelation(taps: np.ndarray, n: int) -> np.ndarray:
    """Lags 0..n-1 of the autocorrelation of `taps`, zero beyond ``len(taps)``."""
    full = np.correlate(taps, taps, "full")[taps.size - 1 :]
    return zero_extend(full[:n], n)


def solve_pooled(
    plants: Sequence[ImpulseResponse],
    targets: Sequence[np.ndarray],
    n_cols: int,
    *,
    lam: float = 0.0,
    weight_taps: Sequence[float] = (1.0,),
    context: str = "least squares",
) -> PooledSolution:
    """Minimize ``sum_k |h_k * x - t_k|^2 + lam * K * |w * x|^2`` over x of length n_cols.

    ``h_k * x`` is the full convolution of ``plants[k]`` with x, compared with
    ``targets[k]`` over their common support (shorter side zero-extended),
    and K is the number of pooled systems, so every system carries one copy
    of the penalty. The weighting taps w default to a unit impulse (the
    identity). The Gram matrix of a full convolution is the symmetric
    Toeplitz matrix of the taps' autocorrelation, so the pooled Gram matrix
    is built from one accumulated first row and solved once; right-hand
    sides are cross-correlations, accumulated in list order.

    Normal equations that Cholesky refuses raise SingularSystemError, which
    names the condition estimate; no other solver is tried.
    """
    if not plants or len(plants) != len(targets):
        raise ValueError("plants and targets must be equally long and nonempty")
    weight_taps = np.asarray(weight_taps, dtype=np.float64)
    first_row = np.zeros(n_cols)
    rhs = np.zeros(n_cols)
    tail_sq = 0.0
    aligned_targets = []
    for plant, target in zip(plants, targets):
        h = plant.samples
        aligned, tail = align_target(target, h.size + n_cols - 1)
        first_row += autocorrelation(h, n_cols)
        rhs += np.correlate(aligned, h, "valid")
        tail_sq += tail
        aligned_targets.append(aligned)
    lam_pooled = lam * len(plants)
    if lam_pooled > 0.0:
        first_row = first_row + lam_pooled * autocorrelation(weight_taps, n_cols)
    gram = scipy.linalg.toeplitz(first_row)

    x = solve_normal_equations(gram, rhs, context=context)

    residual_sq = tail_sq
    gradient = np.zeros(n_cols)
    for plant, aligned in zip(plants, aligned_targets):
        residual = np.convolve(plant.samples, x) - aligned
        residual_sq += float(residual @ residual)
        gradient += np.correlate(residual, plant.samples, "valid")
    penalty = np.convolve(weight_taps, x)
    if lam_pooled > 0.0:
        gradient = gradient + lam_pooled * np.correlate(penalty, weight_taps, "valid")
    return PooledSolution(
        coefficients=x,
        residual_norm=float(np.sqrt(residual_sq)),
        penalty_norm=float(np.linalg.norm(penalty)),
        normal_eq_residual=float(np.max(np.abs(gradient))),
        normal_eq_scale=float(np.max(np.abs(rhs))),
    )
