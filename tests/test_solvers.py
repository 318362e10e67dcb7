import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from eqforge import experiment, solvers
from eqforge.cohort import CohortData, SynthCohortParams, synth_cohort, synth_dummy_ear
from eqforge.conditions import CONDITIONS, design_for_condition
from eqforge.design import EqDesignConfig, build_target, design_filter, design_filter_pooled
from eqforge.rtf import default_rtf_length, estimate_average, estimate_individual
from eqforge.solvers import SingularSystemError, autocorrelation, solve_normal_equations
from conftest import make_ir


def pooled_gram(rng, n, n_plants, lam):
    """The first row of a Toeplitz Gram matrix, built the way `solve_pooled` builds one."""
    first_row = np.zeros(n)
    for _ in range(n_plants):
        first_row += autocorrelation(rng.standard_normal(rng.integers(2, 40)), n)
    if lam > 0.0:
        first_row += lam * n_plants * autocorrelation(np.array([1.0, -1.0]), n)
    return first_row


# --- what the guard rejects, and how it says so -----------------------------------

def test_indefinite_gram_reports_the_failed_factorization():
    with pytest.raises(SingularSystemError, match="condition estimate inf") as err:
        solve_normal_equations(np.array([1.0, 2.0]), np.ones(2))
    assert "Cholesky factorization failed" in str(err.value)
    assert "not positive definite at leading minor 2" in str(err.value)


def test_guard_is_the_condition_estimate_not_a_failed_factorization():
    with pytest.raises(SingularSystemError, match=r"condition estimate 1\.999e\+13 exceeds"):
        solve_normal_equations(np.array([1.0, 1.0 - 1e-13]), np.ones(2))
    first_row = np.array([1.0, 1.0 - 1e-11])
    x = solve_normal_equations(first_row, np.array([1.0, -1.0]))
    assert np.allclose(x, np.array([1.0, -1.0]) / (first_row[0] - first_row[1]), rtol=1e-9)


@pytest.mark.parametrize("gram", [np.array([np.nan, 0.0]), np.array([1.0, np.inf])])
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


def test_condition_estimate_brackets_the_exact_1_norm_value(rng):
    for n, n_plants, lam in [(8, 1, 0.0), (33, 2, 0.1), (64, 3, 0.0), (99, 1, 0.1), (255, 2, 0.1)]:
        gram = pooled_gram(rng, n, n_plants, lam)
        rhs = rng.standard_normal(n)
        kappa = np.linalg.cond(scipy.linalg.toeplitz(gram), 1)
        solve_normal_equations(gram, rhs)  # accepted at the default limit
        estimate = solvers.cholesky_factor(gram, context="test")[1]
        assert kappa / 10.0 <= estimate <= kappa * (1.0 + 1e-9)


# --- the packed factorization -----------------------------------------------------

@pytest.mark.parametrize("n", [8, 99, 128, 255])
def test_solution_matches_a_dense_cholesky_oracle(rng, n):
    gram = pooled_gram(rng, n, 2, 0.1)
    factor = scipy.linalg.cho_factor(scipy.linalg.toeplitz(gram))
    for rhs in rng.standard_normal((4, n)):  # one right-hand side per solve
        x = solve_normal_equations(gram, rhs)
        assert x.shape == rhs.shape
        assert np.allclose(x, scipy.linalg.cho_solve(factor, rhs), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, 99, 255, 512])
def test_the_factor_from_the_first_row_is_the_dense_upper_triangles_bit_for_bit(rng, n,
                                                                                monkeypatch):
    first_row = pooled_gram(rng, n, 2, 0.1)
    dense = scipy.linalg.toeplitz(first_row)
    lapack = solvers.lapack()
    want, info = lapack.dpptrf(n, dense.T[np.tri(n, dtype=bool)], lower=0)
    assert info == 0
    want_rcond, _ = lapack.dppcon(n, want, np.abs(dense).sum(axis=0).max())
    rconds = []
    dppcon = lapack.dppcon

    def recorded(*args):
        rcond, status = dppcon(*args)
        rconds.append(rcond)
        return rcond, status

    monkeypatch.setattr(lapack, "dppcon", recorded)
    got, _ = solvers.cholesky_factor(first_row, context="test")
    assert got.tobytes() == want.tobytes()
    assert rconds == [pytest.approx(want_rcond, rel=1e-12, abs=0.0)]


@pytest.mark.parametrize("gram_shape, rhs_shape", [((4,), (8,)), ((4,), (3,)), ((4, 4), (4,)),
                                                   ((1, 4), (4,)), ((4,), (4, 1))])
def test_mismatched_shapes_raise_value_error(gram_shape, rhs_shape):
    with pytest.raises(ValueError, match="need a 1-D first row"):
        solve_normal_equations(np.ones(gram_shape), np.ones(rhs_shape))


SOLVE_IN_CHILD = """
import sys
import numpy as np
from eqforge.solvers import autocorrelation, solve_normal_equations
rng = np.random.default_rng(3)
first_row = sum(autocorrelation(rng.standard_normal(40), 255) for _ in range(3))
x = solve_normal_equations(first_row, rng.standard_normal(255))
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


# --- scipy's LAPACK extension, loaded alone -----------------------------------------

SHARE_IN_CHILD = """
import sys
import numpy as np
order = sys.argv[1]
if order == "scipy.linalg first":
    import scipy.linalg
from eqforge import solvers
x = solvers.solve_normal_equations(np.array([2.0, 0.5]), np.array([1.0, 2.0]))
assert "scipy.linalg" not in sys.modules or order == "scipy.linalg first"
import scipy.linalg
a = np.array([[2.0, 0.5], [0.5, 2.0]])
y = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), np.array([1.0, 2.0]))
assert np.allclose(x, y, rtol=1e-14, atol=0.0) and np.allclose(a @ y, [1.0, 2.0])
flapack = sys.modules["scipy.linalg._flapack"]
assert solvers.lapack() is flapack
for name in ("dpptrf", "dppcon", "dpptrs"):
    assert getattr(scipy.linalg.lapack, name) is getattr(flapack, name), name
print("shared")
"""


@pytest.mark.parametrize("order", ["eqforge first", "scipy.linalg first"])
def test_eqforge_and_scipy_linalg_share_one_lapack_module_in_either_order(order):
    # pytest's own process has scipy.linalg loaded: only a fresh interpreter shows both orders.
    src = Path(solvers.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", SHARE_IN_CHILD, order], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["shared"]


def test_a_scipy_without_the_lapack_extension_is_one_import_error(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(solvers, "PathFinder", SimpleNamespace(find_spec=lambda name, path: None))
    solvers.lapack.cache_clear()
    try:
        with pytest.raises(ImportError, match=r"has no module scipy\.linalg\._flapack$"):
            solvers.lapack()
    finally:
        solvers.lapack.cache_clear()


# --- kept factors: one factorization per Gram matrix -------------------------------

def solved_and_audited(plants, targets, **penalty):
    """The solution's bytes and its four audited norms."""
    x = solvers.solve_pooled(plants, targets, 40, **penalty, context="equalizer design")
    return (x.tobytes(), *solvers.audit_pooled(plants, targets, x, **penalty))


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_kept_factors_give_the_same_solution_and_norms_bit_for_bit(rng, lam, factorizations):
    plants = [make_ir(rng.standard_normal(n)) for n in (30, 12, 45)]
    penalty = dict(lam=lam, weight_taps=(1.0, -0.5))
    fresh = []
    for _ in range(3):  # one Gram matrix, a new right-hand side each time, factored afresh
        targets = [rng.standard_normal(rng.integers(20, 120)) for _ in plants]
        solvers._factor.cache_clear()
        fresh.append((targets, solved_and_audited(plants, targets, **penalty)))
    factorizations.clear()
    solvers._factor.cache_clear()
    for targets, want in fresh:  # the first factors, the others reuse its factor
        assert solved_and_audited(plants, targets, **penalty) == want
    assert factorizations == ["equalizer design"]


@pytest.fixture
def audits(monkeypatch):
    """The plant counts of the `audit_pooled` calls from here on, wherever it was imported."""
    audit, counts = solvers.audit_pooled, []

    def counted(plants, *args, **kwargs):
        counts.append(len(plants))
        return audit(plants, *args, **kwargs)

    for module in [m for name, m in sys.modules.items() if name.startswith("eqforge")]:
        if getattr(module, "audit_pooled", None) is audit:
            monkeypatch.setattr(module, "audit_pooled", counted)
    return counts


def test_only_a_design_audits_its_solution(audits):
    params = SynthCohortParams(n_subjects=4, seed=3)
    cohort = CohortData.of(synth_cohort(params), synth_dummy_ear(params))
    ear = cohort.ears[0]
    estimate_average([(e.h_m, e.h_open) for e in cohort.ears], 64, 32)
    rtfs = cohort.pooled_rtfs(cohort.subject_ids[1:], 32)
    assert audits == []
    design_filter_pooled([ear.d_true, ear.d_model], [build_target(*rtfs, 16)] * 2,
                         EqDesignConfig(device_delay=16))
    assert audits == [2]


def test_a_serial_seed_42_grid_makes_109_factorizations_for_386_solves(tmp_path, monkeypatch,
                                                                        factorizations):
    solve, solves = solvers.solve_normal_equations, []

    def counted(first_row, rhs, **kwargs):
        solves.append(kwargs["context"])
        return solve(first_row, rhs, **kwargs)

    monkeypatch.setattr(solvers, "solve_normal_equations", counted)
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0})
    params = SynthCohortParams(seed=42)
    cohort = CohortData.of(synth_cohort(params), synth_dummy_ear(params))
    result = experiment.run_experiment(cohort, list(CONDITIONS), experiment.DEFAULT_DELAYS,
                                       EqDesignConfig(), tmp_path)
    assert len(result.runs) == 336 and not result.failures
    # 336 designs plus 50 RTF estimates: open and occluded for each ear, its
    # leave-one-out average and the dummy.
    assert (solves.count("equalizer design"), solves.count("RTF estimate")) == (336, 50)
    assert len(factorizations) == 109


@pytest.mark.parametrize("plant, message", [
    ([0.0, 0.0], "normal matrix is identically zero"),
    ([1e200, -3e200, 2e200], "normal equations are not finite"),
])
def test_a_refused_gram_is_never_kept_and_raises_the_same_message_every_time(plant, message):
    solvers._factor.cache_clear()
    messages = []
    for _ in range(3):
        with pytest.raises(SingularSystemError, match=message) as err:
            solvers.solve_pooled([make_ir(plant)], [np.ones(8)], 4)
        messages.append(str(err.value))
    assert messages == [messages[0]] * 3
    assert solvers._factor.cache_info().currsize == 0


def test_a_kept_factor_is_held_to_the_limit_in_force_at_each_solve(rng, monkeypatch,
                                                                   factorizations):
    gram = pooled_gram(rng, 33, 2, 0.1)
    rhs = rng.standard_normal(33)
    estimate = solvers.cholesky_factor(gram, context="test")[1]
    factorizations.clear()
    want = solve_normal_equations(gram, rhs)
    limit = solvers.CONDITION_LIMIT
    monkeypatch.setattr(solvers, "CONDITION_LIMIT", np.nextafter(estimate, 0.0))
    with pytest.raises(SingularSystemError, match=r"condition estimate \S+ exceeds"):
        solve_normal_equations(gram, rhs)
    assert len(factorizations) == 1  # refused by the limit in force, without factoring again
    monkeypatch.setattr(solvers, "CONDITION_LIMIT", limit)
    assert solve_normal_equations(gram, rhs).tobytes() == want.tobytes()
    assert len(factorizations) == 1


def test_a_kept_factor_still_refuses_a_non_finite_right_hand_side(rng):
    plant = make_ir(rng.standard_normal(10))
    solvers.solve_pooled([plant], [np.ones(20)], 5)
    with pytest.raises(SingularSystemError, match="normal equations are not finite"):
        solvers.solve_pooled([plant], [np.full(20, np.inf)], 5)


def test_a_kept_factor_is_only_reused_for_the_same_bytes(rng, factorizations):
    plant = make_ir(rng.standard_normal(10))
    nudged = make_ir(np.nextafter(plant.samples, np.inf))
    for h in (plant, plant, nudged, plant):
        solvers.solve_pooled([h], [np.ones(20)], 5)
    assert len(factorizations) == 3


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


def test_no_solve_forms_a_dense_toeplitz_matrix(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("scipy.linalg.toeplitz called on a solve path")

    monkeypatch.setattr(scipy.linalg, "toeplitz", forbidden)
    params = SynthCohortParams(n_subjects=3, seed=5)
    ears = synth_cohort(params)
    cohort = CohortData.of(ears, synth_dummy_ear(params))
    for cond in CONDITIONS.values():
        filt = design_for_condition(cohort, "ear01", cond, EqDesignConfig(device_delay=16))
        assert np.isfinite(filt.coefficients).all()
    pairs = [(e.h_m, e.h_open) for e in ears]
    rtf = estimate_average(pairs, default_rtf_length(len(ears[0].h_open), 32), 32)
    assert np.isfinite(rtf.coefficients).all()
