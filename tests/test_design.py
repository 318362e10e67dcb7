import numpy as np
import pytest

from eqforge.design import (
    EqDesignConfig,
    EqFilter,
    WeightingSpec,
    build_target,
    config_from_json,
    config_to_json,
    design_filter,
    design_filter_pooled,
    filter_from_json,
    filter_to_json,
    weighting_taps,
)
from eqforge.rtf import RelativeTransferEstimate
from eqforge.signals import unit_delay
from eqforge.solvers import SingularSystemError, align_target, solve_pooled
from conftest import make_ir


def rte(coeffs, lead=0):
    return RelativeTransferEstimate(np.asarray(coeffs, float), lead)


def cost(a, d_hat, target, config):
    """Design cost of coefficients `a`: squared residual plus weighted penalty."""
    a = np.asarray(a, dtype=np.float64)
    if a.size != config.filter_length:
        raise ValueError(f"expected {config.filter_length} coefficients, got {a.size}")
    estimate = np.convolve(d_hat.samples, a)
    aligned, tail_sq = align_target(target, estimate.size)
    residual = estimate - aligned
    penalty = np.convolve(weighting_taps(config.weighting), a)
    return float(residual @ residual + tail_sq + config.lam * (penalty @ penalty))


def loop_built(taps, n_cols):
    """Dense full convolution matrix of `taps`, one shifted column at a time."""
    taps = np.asarray(taps, float)
    out = np.zeros((taps.size + n_cols - 1, n_cols))
    for j in range(n_cols):
        out[j : j + taps.size, j] = taps
    return out


def dense_oracle(d_hat, target, config):
    """Independent minimizer of the design cost via SVD on the stacked system."""
    L = config.filter_length
    D = loop_built(d_hat, L)
    t = np.zeros(D.shape[0])
    keep = min(t.size, len(target))
    t[:keep] = target[:keep]
    W = loop_built(weighting_taps(config.weighting), L)
    if config.lam > 0:
        D = np.vstack([D, np.sqrt(config.lam) * W])
        t = np.concatenate([t, np.zeros(W.shape[0])])
    a, *_ = np.linalg.lstsq(D, t, rcond=None)
    return a


WEIGHTINGS = [WeightingSpec(), WeightingSpec("fir", (1.0, -1.0)),
              WeightingSpec("fir", (0.5, -1.0, 0.25))]


# --- configuration types ------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        EqDesignConfig(filter_length=0)
    with pytest.raises(ValueError):
        EqDesignConfig(lam=-0.1)
    for bad in ({"filter_length": 513}, {"acausal_lead": 513}, {"acausal_lead": -1},
                {"lam": float("inf")}, {"lam": float("nan")}):
        with pytest.raises(ValueError):
            EqDesignConfig(**bad)
    assert EqDesignConfig(filter_length=512, acausal_lead=512).filter_length == 512
    with pytest.raises(ValueError):
        WeightingSpec(mode="fir")
    with pytest.raises(ValueError):
        WeightingSpec(mode="diagonal")


def test_config_json_round_trip():
    cfg = EqDesignConfig(filter_length=32, lam=0.5, acausal_lead=8, device_delay=16,
                         weighting=WeightingSpec("fir", (1.0, -1.0)))
    data = config_to_json(cfg)
    assert data["L_a"] == 32 and data["lambda"] == 0.5
    assert data["L_d"] == 8 and data["d_G"] == 16
    assert config_from_json(data) == cfg
    assert config_from_json({}) == EqDesignConfig()


# --- weighting_taps -------------------------------------------------------------

def test_weighting_identity():
    assert np.array_equal(weighting_taps(WeightingSpec()), [1.0])


def test_weighting_single_tap_fir_is_identity():
    spec = WeightingSpec("fir", (1.0,))
    assert np.array_equal(weighting_taps(spec), weighting_taps(WeightingSpec()))


def test_weighting_difference_fir():
    spec = WeightingSpec("fir", (1.0, -1.0))
    assert np.array_equal(weighting_taps(spec), [1.0, -1.0])


# --- build_target ----------------------------------------------------------------

def test_target_with_identity_device(rng):
    r_open = rte(rng.standard_normal(10))
    r_occ = rte(rng.standard_normal(10))
    t = build_target(r_open, r_occ, 0)
    assert np.allclose(t, r_open.coefficients - r_occ.coefficients, atol=1e-14)


def test_target_with_silent_occluded_estimate(rng):
    r_open = rte(rng.standard_normal(10))
    r_occ = rte(np.zeros(10))
    t = build_target(r_open, r_occ, 0)
    assert np.array_equal(t, r_open.coefficients)


def test_target_inverts_pure_delay_against_deconvolution_oracle(rng):
    occ = np.zeros(20)
    occ[16] = 1.0
    r_open = rte(rng.standard_normal(20))
    r_occ = rte(occ)
    g = unit_delay(16, 17)
    t = build_target(r_open, r_occ, 16)
    oracle = solve_pooled([g], [occ], 20).coefficients
    assert np.allclose(t, r_open.coefficients - oracle, atol=1e-12)
    expected = r_open.coefficients.copy()
    expected[0] -= 1.0
    assert np.allclose(t, expected, atol=1e-12)


def test_target_fast_path_matches_solver_for_random_delays(rng):
    occ = rng.standard_normal(24)
    r_open = rte(rng.standard_normal(24))
    for delay in (0, 3, 11, 30):
        g = unit_delay(delay, delay + 1)
        t = build_target(r_open, rte(occ), delay)
        oracle = solve_pooled([g], [occ], 24).coefficients
        assert np.allclose(t, r_open.coefficients - oracle, atol=1e-10)


def test_target_rejects_incompatible_leads():
    with pytest.raises(ValueError):
        build_target(rte(np.ones(4), lead=32), rte(np.ones(4), lead=0), 0)


def test_target_rejects_negative_delay():
    with pytest.raises(ValueError, match="device_delay"):
        build_target(rte(np.ones(4)), rte(np.ones(4)), -4)


# --- design_filter ----------------------------------------------------------------

def test_identity_plant_copies_target(rng):
    t = rng.standard_normal(12)
    cfg = EqDesignConfig(filter_length=8, lam=0.0)
    filt = design_filter(make_ir([1.0]), t, cfg)
    assert np.allclose(filt.coefficients, t[:8], atol=1e-12)
    assert filt.residual_norm == pytest.approx(np.linalg.norm(t[8:]), abs=1e-12)


def test_huge_lambda_crushes_coefficients(rng):
    t = rng.standard_normal(30)
    d = make_ir(rng.standard_normal(10))
    cfg = EqDesignConfig(filter_length=8, lam=1e12)
    filt = design_filter(d, t, cfg)
    scale = np.linalg.norm(filt.normal_eq_scale)
    assert np.linalg.norm(filt.coefficients) <= 1e-6 * (1.0 + scale)


def test_matches_dense_oracle(rng):
    d = rng.standard_normal(12)
    t = rng.standard_normal(25)
    for weighting in WEIGHTINGS:
        for filter_length in (8, 20):  # shorter and longer than the plant
            cfg = EqDesignConfig(filter_length=filter_length, lam=0.1, weighting=weighting)
            filt = design_filter(make_ir(d), t, cfg)
            want = dense_oracle(d, t, cfg)
            err = np.linalg.norm(filt.coefficients - want)
            assert err <= 1e-9 * (1.0 + np.linalg.norm(want)), (weighting, filter_length)


def test_normal_equation_residual_bound(rng):
    for _ in range(20):
        d = rng.standard_normal(rng.integers(2, 14))
        t = rng.standard_normal(rng.integers(10, 40))
        lam = float(rng.choice([0.0, 0.1, 10.0]))
        cfg = EqDesignConfig(filter_length=int(rng.integers(1, 16)), lam=lam)
        filt = design_filter(make_ir(d), t, cfg)
        assert filt.normal_eq_residual <= 1e-8 * (filt.normal_eq_scale + 1.0)


def test_lambda_sweep_monotonicity(rng):
    d = make_ir(rng.standard_normal(10))
    t = rng.standard_normal(30)
    residuals, penalties = [], []
    for lam in [1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2]:
        filt = design_filter(d, t, EqDesignConfig(filter_length=12, lam=lam))
        residuals.append(filt.residual_norm)
        penalties.append(filt.penalty_norm)
    for lo, hi in zip(residuals, residuals[1:]):
        assert hi >= lo - 1e-12
    for hi, lo in zip(penalties, penalties[1:]):
        assert lo <= hi + 1e-12


def test_design_is_linear_in_target(rng):
    d = make_ir(rng.standard_normal(9))
    cfg = EqDesignConfig(filter_length=6, lam=0.3)
    t1 = rng.standard_normal(20)
    t2 = rng.standard_normal(20)
    a_combo = design_filter(d, 1.5 * t1 - 0.5 * t2, cfg).coefficients
    a_split = (1.5 * design_filter(d, t1, cfg).coefficients
               - 0.5 * design_filter(d, t2, cfg).coefficients)
    assert np.max(np.abs(a_combo - a_split)) <= 1e-10 * (1.0 + np.max(np.abs(a_combo)))


def test_singular_unregularized_design_raises():
    cfg = EqDesignConfig(filter_length=99, lam=0.0)
    with pytest.raises(SingularSystemError, match="condition estimate"):
        design_filter(make_ir([0.0, 0.0]), np.ones(120), cfg)
    # quintuple zero at z = 1 drives the normal matrix past the limit
    with pytest.raises(SingularSystemError, match="condition estimate"):
        design_filter(make_ir([1.0, -5.0, 10.0, -10.0, 5.0, -1.0]), np.ones(120), cfg)


def test_cost_of_zero_coefficients_is_target_energy(rng):
    t = rng.standard_normal(25)
    cfg = EqDesignConfig(filter_length=6, lam=0.7)
    d = make_ir(rng.standard_normal(8))
    assert cost(np.zeros(6), d, t, cfg) == pytest.approx(float(t @ t), rel=1e-14)


def test_designed_filter_is_locally_optimal(rng):
    d = make_ir(rng.standard_normal(10))
    t = rng.standard_normal(28)
    cfg = EqDesignConfig(filter_length=8, lam=0.2)
    filt = design_filter(d, t, cfg)
    best = cost(filt.coefficients, d, t, cfg)
    for _ in range(100):
        bumped = filt.coefficients + 1e-4 * rng.standard_normal(8)
        assert cost(bumped, d, t, cfg) >= best - 1e-15


def test_consistent_unregularized_cost_is_zero(rng):
    t = rng.standard_normal(8)
    cfg = EqDesignConfig(filter_length=8, lam=0.0)
    filt = design_filter(make_ir([1.0]), t, cfg)
    assert cost(filt.coefficients, make_ir([1.0]), t, cfg) <= 1e-16 * float(t @ t)


def test_filter_json_round_trip(rng):
    d = make_ir(rng.standard_normal(7))
    cfg = EqDesignConfig(filter_length=5, lam=0.1, acausal_lead=4, device_delay=2)
    filt = design_filter(d, rng.standard_normal(15), cfg)
    back = filter_from_json(filter_to_json(filt))
    assert np.array_equal(back.coefficients, filt.coefficients)
    assert back.config == filt.config
    assert back.residual_norm == filt.residual_norm
    assert back.penalty_norm == filt.penalty_norm


# --- pooled design -----------------------------------------------------------------

def test_pooled_design_of_identical_members_matches_single(rng):
    d = make_ir(rng.standard_normal(10))
    t = rng.standard_normal(25)
    cfg = EqDesignConfig(filter_length=8, lam=0.1)
    single = design_filter(d, t, cfg)
    pooled = design_filter_pooled([d, d, d], [t, t, t], cfg)
    assert np.max(np.abs(single.coefficients - pooled.coefficients)) <= 1e-12


def test_pooled_design_matches_stacked_oracle(rng):
    ds = [rng.standard_normal(8), rng.standard_normal(11)]
    ts = [rng.standard_normal(16), rng.standard_normal(20)]
    for weighting in WEIGHTINGS:
        for filter_length in (6, 14):  # shorter and longer than both plants
            cfg = EqDesignConfig(filter_length=filter_length, lam=0.2, weighting=weighting)
            pooled = design_filter_pooled([make_ir(d) for d in ds], ts, cfg)

            blocks, targets = [], []
            for d, t in zip(ds, ts):
                D = loop_built(d, filter_length)
                keep = min(D.shape[0], len(t))
                blocks.append(D)
                targets.append(np.concatenate([t[:keep], np.zeros(D.shape[0] - keep)]))
            W = loop_built(weighting_taps(weighting), filter_length)
            blocks.append(np.sqrt(cfg.lam * len(ds)) * W)
            targets.append(np.zeros(W.shape[0]))
            want, *_ = np.linalg.lstsq(np.vstack(blocks), np.concatenate(targets), rcond=None)
            err = np.linalg.norm(pooled.coefficients - want)
            assert err <= 1e-9 * (1.0 + np.linalg.norm(want)), (weighting, filter_length)


def test_pooled_design_rejects_mismatched_inputs(rng):
    cfg = EqDesignConfig(filter_length=4)
    with pytest.raises(ValueError):
        design_filter_pooled([], [], cfg)
    with pytest.raises(ValueError):
        design_filter_pooled([make_ir([1.0])], [], cfg)


def test_eq_filter_validates_length():
    cfg = EqDesignConfig(filter_length=4)
    with pytest.raises(ValueError):
        EqFilter(np.zeros(3), cfg, 0.0, 0.0)
