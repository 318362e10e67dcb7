import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from eqforge import solvers
from eqforge.cohort import SynthCohortParams, synth_cohort
from eqforge.design import EqDesignConfig, build_target, design_filter, design_filter_pooled
from eqforge.rtf import default_rtf_length, estimate_average, estimate_individual
from eqforge.solvers import SingularSystemError, autocorrelation, solve_normal_equations
from conftest import make_ir


def pooled_gram(rng, n, n_plants, lam):
    """A Toeplitz Gram matrix built the way `solve_pooled` builds one."""
    first_row = np.zeros(n)
    for _ in range(n_plants):
        first_row += autocorrelation(rng.standard_normal(rng.integers(2, 40)), n)
    if lam > 0.0:
        first_row += lam * n_plants * autocorrelation(np.array([1.0, -1.0]), n)
    return scipy.linalg.toeplitz(first_row)


# --- what the guard rejects, and how it says so -----------------------------------

def test_indefinite_gram_reports_the_failed_factorization():
    with pytest.raises(SingularSystemError, match="condition estimate inf") as err:
        solve_normal_equations(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))
    assert "Cholesky factorization failed" in str(err.value)
    assert "not positive definite at leading minor 2" in str(err.value)


def test_guard_is_the_condition_estimate_not_a_failed_factorization():
    with pytest.raises(SingularSystemError, match=r"condition estimate 1\.000e\+13 exceeds"):
        solve_normal_equations(np.diag([1.0, 1e-13]), np.ones(2))
    x = solve_normal_equations(np.diag([1.0, 1e-11]), np.ones(2))
    assert np.allclose(x, [1.0, 1e11], rtol=1e-15)


@pytest.mark.parametrize("gram", [
    np.array([[np.nan, 0.0], [0.0, 1.0]]),
    np.array([[1.0, 0.0], [0.0, np.inf]]),
])
def test_non_finite_gram_raises_with_nothing_on_stderr(gram, capfd):
    with pytest.raises(SingularSystemError, match="not finite"):
        solve_normal_equations(gram, np.ones(2))
    assert capfd.readouterr().err == ""


def test_overflowing_plant_raises_with_nothing_on_stderr(capfd):
    plant = make_ir([1e200, -3e200, 2e200])
    with pytest.raises(SingularSystemError, match="not finite"):
        design_filter(plant, np.ones(120), EqDesignConfig())
    with pytest.raises(SingularSystemError, match="not finite"):
        estimate_individual(plant, make_ir(np.ones(120)), rtf_length=40, acausal_lead=0)
    assert capfd.readouterr().err == ""


def test_condition_estimate_brackets_the_exact_1_norm_value(rng, monkeypatch):
    # the estimate is not returned, so bracket it by moving the limit around it
    for n, n_plants, lam in [(8, 1, 0.0), (33, 2, 0.1), (64, 3, 0.0), (99, 1, 0.1), (255, 2, 0.1)]:
        gram = pooled_gram(rng, n, n_plants, lam)
        rhs = rng.standard_normal(n)
        kappa = np.linalg.cond(gram, 1)
        monkeypatch.setattr(solvers, "CONDITION_LIMIT", kappa * (1.0 + 1e-9))
        solve_normal_equations(gram, rhs)  # estimate <= kappa
        monkeypatch.setattr(solvers, "CONDITION_LIMIT", np.nextafter(kappa / 10.0, 0.0))
        with pytest.raises(SingularSystemError, match="condition estimate"):
            solve_normal_equations(gram, rhs)  # estimate >= kappa / 10


# --- the packed factorization -----------------------------------------------------

@pytest.mark.parametrize("n", [8, 99, 128, 255])
def test_solution_matches_a_dense_cholesky_oracle(rng, n):
    gram = pooled_gram(rng, n, 2, 0.1)
    factor = scipy.linalg.cho_factor(gram)
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        x = solve_normal_equations(gram, rhs)
        assert x.shape == rhs.shape
        assert np.allclose(x, scipy.linalg.cho_solve(factor, rhs), rtol=1e-10, atol=0.0)


def test_only_the_upper_triangle_is_read(rng):
    gram = pooled_gram(rng, 40, 2, 0.1)
    rhs = rng.standard_normal(40)
    scrambled = np.triu(gram) + np.tril(rng.standard_normal((40, 40)), -1)
    assert np.array_equal(solve_normal_equations(scrambled, rhs), solve_normal_equations(gram, rhs))



@pytest.mark.parametrize("gram_shape, rhs_shape", [((4, 4), (8,)), ((4, 4), (3,)), ((4, 3), (4,)), ((4,), (4,))])
def test_mismatched_shapes_raise_value_error(gram_shape, rhs_shape):
    with pytest.raises(ValueError, match="square Gram matrix"):
        solve_normal_equations(np.ones(gram_shape), np.ones(rhs_shape))


SOLVE_IN_CHILD = """
import sys
import numpy as np
import scipy.linalg
from eqforge.solvers import autocorrelation, solve_normal_equations
rng = np.random.default_rng(3)
first_row = sum(autocorrelation(rng.standard_normal(40), 255) for _ in range(3))
x = solve_normal_equations(scipy.linalg.toeplitz(first_row), rng.standard_normal(255))
sys.stdout.write(x.tobytes().hex())
"""


def test_solution_bytes_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS reads its thread count once, at load, so each count needs its own process
    src = Path(solvers.__file__).resolve().parent.parent
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", SOLVE_IN_CHILD], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


# --- the hot path stays in scipy's LAPACK -------------------------------------------

def test_estimates_and_designs_call_no_numpy_linalg_factorization(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.linalg called on the Cholesky path")

    monkeypatch.setattr(np.linalg, "cond", forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    cohort = synth_cohort(SynthCohortParams(n_subjects=3, seed=11))
    lead = 32
    length = default_rtf_length(len(cohort[0].h_open), lead)
    open_pairs = [(e.h_m, e.h_open) for e in cohort]
    occ_pairs = [(e.h_m, e.h_occ) for e in cohort]
    targets = []
    for open_pair, occ_pair in zip(open_pairs, occ_pairs):
        r_open = estimate_individual(*open_pair, length, lead)
        r_occ = estimate_individual(*occ_pair, length, lead)
        targets.append(build_target(r_open, r_occ, 16))
    r_open = estimate_average(open_pairs, length, lead)
    r_occ = estimate_average(occ_pairs, length, lead)
    targets.append(build_target(r_open, r_occ, 16))
    plants = [e.d_true for e in cohort] + [cohort[0].d_model]
    filt = design_filter_pooled(plants, targets, EqDesignConfig(device_delay=16))
    assert np.isfinite(filt.coefficients).all()
