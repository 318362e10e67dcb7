import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from eqforge.design import EqDesignConfig, EqFilter
from eqforge.metrics import (
    THIRD_OCTAVE_CENTERS_HZ,
    ConditionReport,
    band_error_profile,
    log_spectral_distance,
    rank_conditions,
)
from eqforge.signals import MagnitudeResponse, magnitude_response
from conftest import RATE, make_ir


def flat(db, n_fft=4096):
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / RATE)
    return MagnitudeResponse(freqs, np.full(freqs.size, float(db)))


def random_mag(rng, n_fft=4096):
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / RATE)
    return MagnitudeResponse(freqs, rng.uniform(-30, 10, freqs.size))


def report(condition, lsd, subject="s0", delay=96):
    mag = flat(0.0)
    filt = EqFilter(np.zeros(99), EqDesignConfig(device_delay=delay), 0.0, 0.0, 0.0, 0.0, RATE)
    return ConditionReport(subject, condition, lsd, {}, mag, mag, mag, filt)


# --- log_spectral_distance -----------------------------------------------------

def test_lsd_of_identical_responses_is_zero():
    a = flat(-3.0)
    assert log_spectral_distance(a, a) == 0.0


def test_lsd_of_constant_offset():
    assert log_spectral_distance(flat(0.0), flat(6.02)) == pytest.approx(6.02, abs=1e-12)


def test_lsd_comb_matches_closed_form():
    h = np.zeros(97)
    h[0] = 1.0
    h[96] = 1.0
    comb = magnitude_response(make_ir(h), 4096)
    reference = flat(0.0)
    band = (100.0, 7000.0)
    got = log_spectral_distance(comb, reference, band)

    omega = 2.0 * np.pi * comb.frequencies_hz / RATE
    linear = 2.0 * np.abs(np.cos(48.0 * omega))
    mask = (comb.frequencies_hz >= band[0]) & (comb.frequencies_hz <= band[1])
    db = comb.magnitude_db[mask]  # grid values, incl. floored notch bins
    closed = 20.0 * np.log10(np.where(linear[mask] > 0, linear[mask], 1.0))
    # compare on bins away from the notches, where the closed form is stable
    clear = linear[mask] > 1e-8
    assert np.allclose(db[clear], closed[clear], atol=1e-6)
    want = float(np.sqrt(np.mean(db * db)))
    assert got == pytest.approx(want, rel=1e-12)


def test_lsd_rejects_grid_mismatch():
    with pytest.raises(ValueError):
        log_spectral_distance(flat(0.0, n_fft=4096), flat(0.0, n_fft=2048))


def test_lsd_rejects_bad_band():
    a = flat(0.0)
    with pytest.raises(ValueError):
        log_spectral_distance(a, a, band=(0.0, 7000.0))
    with pytest.raises(ValueError):
        log_spectral_distance(a, a, band=(7000.0, 100.0))
    with pytest.raises(ValueError):
        log_spectral_distance(a, a, band=(100.0, 9000.0))


def test_lsd_is_a_pseudometric(rng):
    a, b, c = (random_mag(rng) for _ in range(3))
    dab = log_spectral_distance(a, b)
    dba = log_spectral_distance(b, a)
    assert dab == pytest.approx(dba, rel=1e-15)
    assert log_spectral_distance(a, a) == 0.0
    dac = log_spectral_distance(a, c)
    dcb = log_spectral_distance(c, b)
    assert dab <= dac + dcb + 1e-12


def test_lsd_ignores_pure_delay(rng):
    h = rng.standard_normal(50)
    base = magnitude_response(make_ir(h), 4096)
    delayed = magnitude_response(make_ir(np.concatenate([np.zeros(17), h])), 4096)
    assert log_spectral_distance(base, delayed) <= 1e-10


# --- band_error_profile -----------------------------------------------------------

def test_band_profile_of_identical_inputs_is_zero():
    a = flat(-10.0)
    profile = band_error_profile(a, a)
    assert set(profile) == set(THIRD_OCTAVE_CENTERS_HZ)
    assert all(v == 0.0 for v in profile.values())


def test_band_profile_of_constant_offset():
    profile = band_error_profile(flat(0.0), flat(3.0))
    assert all(v == pytest.approx(3.0, abs=1e-12) for v in profile.values())


def test_band_profile_localizes_resonance_mismatch(rng):
    freqs = np.fft.rfftfreq(4096, d=1.0 / RATE)
    base = np.zeros(freqs.size)
    bumped = base.copy()
    sel = (freqs >= 2000.0) & (freqs <= 4000.0)
    bumped[sel] += 8.0
    a = MagnitudeResponse(freqs, base)
    b = MagnitudeResponse(freqs, bumped)
    profile = band_error_profile(a, b)
    hot = {c for c, v in profile.items() if v > 4.0}
    assert hot and all(1600.0 <= c <= 4000.0 for c in hot)
    assert profile[500.0] == 0.0 and profile[6300.0] == 0.0


def test_band_profile_rejects_grid_mismatch():
    with pytest.raises(ValueError):
        band_error_profile(flat(0.0, 4096), flat(0.0, 2048))


# --- rank_conditions -----------------------------------------------------------------

def test_rank_single_report():
    out = rank_conditions([report("Optimal", 0.5)])
    assert len(out) == 1
    assert out[0].condition == "Optimal"
    assert out[0].mean_lsd_db == 0.5
    assert out[0].sd_lsd_db == 0.0
    assert out[0].n_subjects == 1


def test_rank_breaks_ties_lexicographically():
    out = rank_conditions([report("B", 1.0), report("A", 1.0)])
    assert [s.condition for s in out] == ["A", "B"]


def test_rank_is_input_order_invariant(rng):
    reports = [
        report(cond, float(rng.uniform(0, 10)), subject=f"s{i}")
        for i in range(6)
        for cond in ("Optimal", "GenericDH")
    ]
    fwd = rank_conditions(reports)
    rev = rank_conditions(reports[::-1])
    assert fwd == rev


def test_rank_orders_by_mean():
    reports = [report("Worse", 5.0), report("Better", 1.0), report("Worse", 7.0)]
    out = rank_conditions(reports)
    assert [s.condition for s in out] == ["Better", "Worse"]
    assert out[1].mean_lsd_db == pytest.approx(6.0)
    assert out[1].n_subjects == 2


def test_rank_rejects_empty():
    with pytest.raises(ValueError):
        rank_conditions([])


def test_report_rejects_negative_lsd():
    mag = flat(0.0)
    with pytest.raises(ValueError):
        ConditionReport("s", "Optimal", -1.0, {}, mag, mag, mag,
                        EqFilter(np.zeros(99), EqDesignConfig(), 0.0, 0.0, 0.0, 0.0, RATE))


# --- band index ranges against the boolean-mask formulas -------------------------

def masked_band_errors(a, b):
    """The per-band means as one boolean mask per band selects them."""
    freqs, diff = a.frequencies_hz, np.abs(a.magnitude_db - b.magnitude_db)
    profile = {}
    for center in THIRD_OCTAVE_CENTERS_HZ:
        mask = (freqs >= center / 2.0 ** (1.0 / 6.0)) & (freqs < center * 2.0 ** (1.0 / 6.0))
        if np.any(mask):
            profile[center] = float(np.mean(diff[mask]))
    return profile


def masked_lsd(a, b, band):
    mask = (a.frequencies_hz >= band[0]) & (a.frequencies_hz <= band[1])
    if not np.any(mask):
        raise ValueError("empty band")
    diff = a.magnitude_db[mask] - b.magnitude_db[mask]
    return float(np.sqrt(np.mean(diff * diff)))


# Every third-octave band edge, so that drawn grids put points exactly on them.
BAND_EDGES = sorted(c * 2.0 ** (s / 6.0) for c in THIRD_OCTAVE_CENTERS_HZ for s in (-1, 1))


@st.composite
def spectra_pair(draw):
    """Two responses on one ascending grid, some band edges on it and some bands empty."""
    edges = draw(st.lists(st.sampled_from(BAND_EDGES), max_size=12))
    others = draw(st.lists(st.floats(1.0, 12000.0), max_size=40))
    freqs = np.unique(np.array([0.0, *edges, *others]))
    n = freqs.size
    values = st.floats(-200.0, 60.0, allow_nan=False)
    a = draw(st.lists(values, min_size=n, max_size=n))
    b = draw(st.lists(values, min_size=n, max_size=n))
    return MagnitudeResponse(freqs, a), MagnitudeResponse(freqs, b)


@given(spectra_pair(), st.data())
@settings(max_examples=200, deadline=None)
def test_band_ranges_match_the_boolean_masks_bit_for_bit(pair, data):
    a, b = pair
    assert band_error_profile(a, b) == masked_band_errors(a, b)
    freqs = a.frequencies_hz
    if freqs[-1] <= 0.0:
        return
    # Band limits on grid points hit the inclusive ends of log_spectral_distance.
    limits = st.one_of(st.sampled_from(freqs[1:].tolist()), st.floats(0.5, float(freqs[-1])))
    band = tuple(sorted(data.draw(st.lists(limits, min_size=2, max_size=2, unique=True))))
    try:
        expected = masked_lsd(a, b, band)
    except ValueError:
        with pytest.raises(ValueError, match="contains no grid points"):
            log_spectral_distance(a, b, band)
    else:
        assert log_spectral_distance(a, b, band) == expected
