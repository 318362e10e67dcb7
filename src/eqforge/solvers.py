"""The one least-squares path of RTF estimation and design, on scipy's LAPACK extension alone."""

from __future__ import annotations

import functools
import importlib.util
import sys
from collections.abc import Sequence
from importlib.machinery import PathFinder
from types import ModuleType

import numpy as np

from .signals import ImpulseResponse, zero_extend

CONDITION_LIMIT = 1e12


class SingularSystemError(RuntimeError):
    """A least-squares system is too ill-conditioned to solve as requested."""


@functools.cache
def lapack() -> ModuleType:
    """`scipy.linalg._flapack` without its 0.3 s, 17 MB package, shared via sys.modules."""
    import scipy  # its init sets up the extension's shared libraries on some platforms
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        spec = PathFinder.find_spec(name, [f"{scipy.__path__[0]}/linalg"])
        if spec is None:
            raise ImportError(f"scipy {scipy.__version__} has no module {name}", name=name)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def solve_normal_equations(first_row: np.ndarray, rhs: np.ndarray, *,
                           context: str = "normal equations") -> np.ndarray:
    """Solve ``T @ x = rhs`` by Cholesky for the symmetric Toeplitz T with this first row.

    No n×n matrix is formed. A first row with the bytes of the previous solve's
    reuses its factor and condition estimate, and every solve holds the estimate
    to CONDITION_LIMIT, so a kept factor is refused as a fresh one would be.
    Raises SingularSystemError, naming the condition estimate, when the inputs
    are not finite, `cholesky_factor` refuses the system or the estimate exceeds
    the limit, and ValueError when the shapes do not match.
    """
    first_row = np.asarray(first_row, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    n = first_row.size
    if first_row.shape != (n,) or rhs.shape != (n,):
        raise ValueError(f"{context}: need a 1-D first row and a right-hand side of its size, "
                         f"got shapes {first_row.shape} and {rhs.shape}")
    if not (np.isfinite(first_row).all() and np.isfinite(rhs).all()):
        raise SingularSystemError(f"{context}: normal equations are not finite "
                                  "(condition estimate nan)")
    factor, cond = _factor(first_row.tobytes(), context)
    if not cond <= CONDITION_LIMIT:
        raise SingularSystemError(f"{context}: condition estimate {cond:.3e} exceeds "
                                  f"{CONDITION_LIMIT:.0e}")
    return lapack().dpptrs(n, factor, rhs)[0]


@functools.lru_cache(maxsize=1)  # solves that share a system come one after another
def _factor(first_row: bytes, context: str) -> tuple[np.ndarray, float]:
    """`cholesky_factor`'s (factor, condition estimate) of these bytes; no refusal is kept."""
    return cholesky_factor(np.frombuffer(first_row), context=context)


def cholesky_factor(first_row: np.ndarray, *, context: str) -> tuple[np.ndarray, float]:
    """The packed upper Cholesky factor of the symmetric Toeplitz matrix with this finite first
    row, and its condition estimate.

    It is factored in packed storage (``dpptrf``, ``dppcon``), which runs on
    one thread at every order, so the factor does not depend on the BLAS
    thread count as that of the blocked ``dpotrf`` does from order 128 up.
    The estimate is LAPACK's 1-norm condition estimate from the factor
    (``dppcon``), within a factor of n of the 2-norm value (inf for a singular
    factor); the largest on the default seed-42 grid is 1.1e5. No limit is
    applied here. Raises SingularSystemError, naming the condition estimate,
    when the matrix is zero or not positive definite.
    """
    if not np.any(first_row):
        raise SingularSystemError(f"{context}: normal matrix is identically zero "
                                  "(condition estimate inf)")
    n = first_row.size
    packed = np.concatenate([first_row[j::-1] for j in range(n)])  # column j: lags j..0
    factor, info = lapack().dpptrf(n, packed, lower=0, overwrite_ap=1)
    if info != 0:
        raise SingularSystemError(
            f"{context}: Cholesky factorization failed, the normal matrix is not "
            f"positive definite at leading minor {info} (condition estimate inf)"
        )
    c = np.cumsum(np.abs(first_row))  # column j's 1-norm: lags 0..j plus lags 1..n-1-j
    rcond, _ = lapack().dppcon(n, factor, np.max(c + c[::-1] - c[0]))
    factor.flags.writeable = False  # a kept factor is shared by later solves
    return factor, 1.0 / rcond if rcond > 0.0 else np.inf


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


def autocorrelation(taps: np.ndarray | Sequence[float], n: int) -> np.ndarray:
    """Lags 0..n-1 of the autocorrelation of `taps`, zero beyond ``len(taps)``."""
    full = np.correlate(taps, taps, "full")[len(taps) - 1 :]
    return zero_extend(full[:n], n)


def _aligned_rhs(plants, targets, n_cols: int) -> tuple[list[np.ndarray], np.ndarray, float]:
    """Each target aligned to its plant's full-convolution rows, the pooled right-hand side
    (cross-correlations accumulated in list order) and the target energy cut off."""
    aligned_targets, rhs, tail_sq = [], np.zeros(n_cols), 0.0
    for plant, target in zip(plants, targets):
        aligned, tail = align_target(target, plant.samples.size + n_cols - 1)
        rhs += np.correlate(aligned, plant.samples, "valid")
        tail_sq += tail
        aligned_targets.append(aligned)
    return aligned_targets, rhs, tail_sq


def solve_pooled(plants: Sequence[ImpulseResponse], targets: Sequence[np.ndarray], n_cols: int,
                 *, lam: float = 0.0, weight_taps: Sequence[float] = (1.0,),
                 context: str = "least squares") -> np.ndarray:
    """The x of length n_cols minimizing ``sum_k |h_k * x - t_k|^2 + lam * K * |w * x|^2``.

    ``h_k * x`` is the full convolution of ``plants[k]`` with x, compared with
    ``targets[k]`` over their common support (shorter side zero-extended),
    and K is the number of pooled systems, so every system carries one copy
    of the penalty. The weighting taps w default to a unit impulse (the
    identity). The Gram matrix of a full convolution is the symmetric
    Toeplitz matrix of the taps' autocorrelation, so the pooled system is
    one accumulated first row, solved once without forming the matrix;
    right-hand sides are cross-correlations, accumulated in list order.

    Normal equations that Cholesky refuses raise SingularSystemError, which
    names the condition estimate; no other solver is tried. A call with the
    same first row as the solve before it reuses that solve's factor.
    """
    if not plants or len(plants) != len(targets):
        raise ValueError("plants and targets must be equally long and nonempty")
    first_row = np.zeros(n_cols)
    for plant in plants:
        first_row += autocorrelation(plant.samples, n_cols)
    if (lam_pooled := lam * len(plants)) > 0.0:
        first_row = first_row + lam_pooled * autocorrelation(weight_taps, n_cols)
    return solve_normal_equations(first_row, _aligned_rhs(plants, targets, n_cols)[1],
                                  context=context)


def audit_pooled(plants: Sequence[ImpulseResponse], targets: Sequence[np.ndarray], x: np.ndarray,
                 *, lam: float = 0.0, weight_taps: Sequence[float] = (1.0,)
                 ) -> tuple[float, float, float, float]:
    """The residual norm, penalty norm ``|w * x|``, largest normal-equation residual and
    right-hand side scale of `x` in the problem `solve_pooled` solves."""
    aligned_targets, rhs, residual_sq = _aligned_rhs(plants, targets, x.size)
    gradient = np.zeros(x.size)
    for plant, aligned in zip(plants, aligned_targets):
        residual = np.convolve(plant.samples, x) - aligned
        residual_sq += float(residual @ residual)
        gradient += np.correlate(residual, plant.samples, "valid")
    penalty = np.convolve(weight_taps, x)
    if (lam_pooled := lam * len(plants)) > 0.0:
        gradient = gradient + lam_pooled * np.correlate(penalty, weight_taps, "valid")
    return (float(np.sqrt(residual_sq)), float(np.linalg.norm(penalty)),
            float(np.max(np.abs(gradient))), float(np.max(np.abs(rhs))))
