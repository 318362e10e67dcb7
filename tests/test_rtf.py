import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from eqforge.rtf import (
    RelativeTransferEstimate,
    default_rtf_length,
    estimate_average,
    estimate_individual,
)
from eqforge.signals import convolve, unit_delay
from eqforge.solvers import SingularSystemError, solve_normal_equations
from conftest import RATE, make_ir


def loop_built(h, n_cols):
    """Dense full convolution matrix of `h`, one shifted column at a time."""
    matrix = np.zeros((len(h) + n_cols - 1, n_cols))
    for j in range(n_cols):
        matrix[j : j + len(h), j] = h
    return matrix


def dense_oracle(h_den, target, rtf_length):
    """Independent minimizer: SVD least squares on the full convolution system."""
    matrix = loop_built(h_den, rtf_length)
    rows = matrix.shape[0]
    t = np.zeros(rows)
    keep = min(rows, len(target))
    t[:keep] = target[:keep]
    x, *_ = np.linalg.lstsq(matrix, t, rcond=None)
    return x


def synth_pair(rng, h_m_len=12, r_len=8):
    h_m = make_ir(rng.standard_normal(h_m_len))
    r_true = rng.standard_normal(r_len)
    h_target = convolve(h_m, make_ir(r_true))
    return (h_m, h_target), r_true


# --- type validation ---------------------------------------------------------

def test_estimate_type_validation():
    with pytest.raises(ValueError):
        RelativeTransferEstimate(np.array([1.0]), -1)


def test_default_rtf_length_caps_at_512():
    assert default_rtf_length(200, 32) == 232
    assert default_rtf_length(1000, 32) == 512


# --- estimate_individual -----------------------------------------------------

def test_identity_denominator_recovers_target_exactly(rng):
    h = rng.standard_normal(8)
    est = estimate_individual(make_ir([1.0]), make_ir(h), rtf_length=8, acausal_lead=0)
    assert np.allclose(est.coefficients, h, atol=1e-14)


def test_forward_synthesis_recovery(rng):
    pair, r_true = synth_pair(rng)
    est = estimate_individual(*pair, rtf_length=8, acausal_lead=0)
    assert np.linalg.norm(est.coefficients - r_true) <= 1e-8 * np.linalg.norm(r_true)


def test_forward_synthesis_recovery_with_lead(rng):
    pair, r_true = synth_pair(rng)
    est = estimate_individual(*pair, rtf_length=40, acausal_lead=32)
    assert est.acausal_lead == 32
    recovered = est.coefficients
    assert np.linalg.norm(recovered[:32]) <= 1e-8
    assert np.linalg.norm(recovered[32:40] - r_true) <= 1e-8 * np.linalg.norm(r_true)


def test_synthesized_residual_is_tiny(rng):
    pair, _ = synth_pair(rng, h_m_len=20, r_len=16)
    est = estimate_individual(*pair, rtf_length=16, acausal_lead=0)
    h_m, h_target = pair
    resid = np.convolve(h_m.samples, est.coefficients)
    resid = resid - np.pad(h_target.samples, (0, resid.size - len(h_target)))
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(h_target.samples)


def test_all_zero_denominator_is_singular():
    with pytest.raises(SingularSystemError):
        estimate_individual(make_ir([0.0, 0.0]), make_ir([1.0]), rtf_length=4, acausal_lead=0)


# --- estimate_average ----------------------------------------------------------

def test_repeated_pair_average_equals_individual(rng):
    pair, _ = synth_pair(rng)
    ind = estimate_individual(*pair, rtf_length=8, acausal_lead=0)
    avg = estimate_average([pair] * 5, rtf_length=8, acausal_lead=0)
    assert np.max(np.abs(ind.coefficients - avg.coefficients)) <= 1e-10


def test_average_recovers_shared_rtf(rng):
    r_true = rng.standard_normal(8)
    pairs = []
    for _ in range(2):
        h_m = make_ir(rng.standard_normal(12))
        pairs.append((h_m, convolve(h_m, make_ir(r_true))))
    avg = estimate_average(pairs, rtf_length=8, acausal_lead=0)
    assert np.linalg.norm(avg.coefficients - r_true) <= 1e-8 * np.linalg.norm(r_true)


def test_average_rejects_empty_and_mixed_rates(rng):
    with pytest.raises(ValueError):
        estimate_average([], rtf_length=4, acausal_lead=0)
    p1 = (make_ir([1.0], 16000), make_ir([1.0], 16000))
    p2 = (make_ir([1.0], 48000), make_ir([1.0], 48000))
    with pytest.raises(ValueError):
        estimate_average([p1, p2], rtf_length=4, acausal_lead=0)
    with pytest.raises(ValueError):
        estimate_average([(make_ir([1.0], 16000), make_ir([1.0], 8000))], 4, 0)


def test_average_all_zero_pool_is_singular():
    pair = (make_ir([0.0]), make_ir([1.0]))
    with pytest.raises(SingularSystemError):
        estimate_average([pair, pair], rtf_length=4, acausal_lead=0)


def test_two_pair_exchangeability_is_exact(rng):
    pairs = [synth_pair(rng)[0] for _ in range(2)]
    fwd = estimate_average(pairs, rtf_length=8, acausal_lead=4)
    rev = estimate_average(pairs[::-1], rtf_length=8, acausal_lead=4)
    assert np.array_equal(fwd.coefficients, rev.coefficients)


def test_many_pair_exchangeability_on_integer_data(rng):
    # Integer-valued samples keep every Gram accumulation exact, so any
    # ordering of the pooled sums produces bit-identical results.
    pairs = []
    for _ in range(5):
        h_m = make_ir(rng.integers(-4, 5, size=10).astype(float))
        h_t = make_ir(rng.integers(-4, 5, size=14).astype(float))
        if not np.any(h_m.samples):
            h_m = make_ir(np.ones(10))
        pairs.append((h_m, h_t))
    baseline = estimate_average(pairs, rtf_length=12, acausal_lead=0)
    perm = [pairs[i] for i in (3, 0, 4, 1, 2)]
    shuffled = estimate_average(perm, rtf_length=12, acausal_lead=0)
    assert np.array_equal(baseline.coefficients, shuffled.coefficients)


def test_linearity_in_target(rng):
    h_m = make_ir(rng.standard_normal(10))
    t1 = make_ir(rng.standard_normal(14))
    t2 = make_ir(rng.standard_normal(14))
    combo = make_ir(2.0 * t1.samples - 3.0 * t2.samples)
    est = lambda t: estimate_individual(h_m, t, rtf_length=12, acausal_lead=4).coefficients
    lhs = est(combo)
    rhs = 2.0 * est(t1) - 3.0 * est(t2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * (1.0 + np.max(np.abs(lhs)))


# --- one pair with no lead: plain least-squares deconvolution ----------------------

def deconvolve(h, target, rtf_length):
    return estimate_individual(h, make_ir(target), rtf_length, acausal_lead=0).coefficients


def test_delay_inversion(rng):
    t = rng.standard_normal(12)
    x = deconvolve(unit_delay(3, 4), t, rtf_length=6)
    assert np.allclose(x, t[3:9], atol=1e-12)


def test_matches_dense_oracle(rng):
    h = rng.standard_normal(9)
    t = rng.standard_normal(20)
    got = deconvolve(make_ir(h), t, rtf_length=7)
    want = dense_oracle(h, t, 7)
    assert np.linalg.norm(got - want) <= 1e-9 * (1.0 + np.linalg.norm(want))


def test_ill_conditioned_deconvolution_raises_naming_the_condition_estimate(rng):
    # a quintuple zero at z = 1 puts the Gram matrix past the condition limit
    h = np.array([1.0, -5.0, 10.0, -10.0, 5.0, -1.0])
    matrix = loop_built(h, 96)
    with pytest.raises(SingularSystemError, match="condition estimate"):
        solve_normal_equations(matrix.T @ matrix, np.zeros(96))
    target = make_ir(rng.standard_normal(60))
    with pytest.raises(SingularSystemError, match=r"RTF estimate: condition estimate 3\.0\d*e\+13"):
        estimate_average([(make_ir(h), target)], rtf_length=96, acausal_lead=0)


def test_rejects_bad_arguments(rng):
    h = make_ir(rng.standard_normal(4))
    with pytest.raises(ValueError):
        deconvolve(h, np.ones(4), rtf_length=0)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_deconvolve_solves_consistent_systems(seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(rng.integers(2, 10))
    x_true = rng.standard_normal(rng.integers(1, 8))
    target = np.convolve(h, x_true)
    x = deconvolve(make_ir(h), target, rtf_length=x_true.size)
    assert np.linalg.norm(x - x_true) <= 1e-7 * (1.0 + np.linalg.norm(x_true))
