import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.io import wavfile

from eqforge.design import EqDesignConfig, EqFilter
from eqforge.rtf import RelativeTransferEstimate
from eqforge.signals import (
    DB_FLOOR,
    ImpulseResponse,
    MagnitudeResponse,
    convolution_matrix,
    convolve,
    load_impulse,
    magnitude_response,
    read_impulse_csv,
    read_impulse_wav,
    write_impulse_csv,
    zero_pad_leading,
)
from conftest import RATE, make_ir, unit_impulse

finite_samples = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=64,
)


def conv_bruteforce(a, b):
    out = np.zeros(len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# --- ImpulseResponse construction -----------------------------------------

def test_impulse_response_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ImpulseResponse(np.array([]), RATE)
    with pytest.raises(ValueError):
        ImpulseResponse(np.array([1.0, np.nan]), RATE)
    with pytest.raises(ValueError):
        ImpulseResponse(np.array([np.inf]), RATE)
    with pytest.raises(ValueError):
        ImpulseResponse(np.array([1.0]), 0)


def test_impulse_response_is_immutable():
    h = make_ir([1.0, 2.0])
    with pytest.raises(ValueError):
        h.samples[0] = 5.0


# Each container, built around one bad vector, and the field that vector fills.
CONTAINERS = {
    "ImpulseResponse": (lambda v: ImpulseResponse(v, RATE), "samples"),
    "MagnitudeResponse": (lambda v: MagnitudeResponse([0.0, 1.0, 2.0], v), "magnitude_db"),
    "RelativeTransferEstimate": (lambda v: RelativeTransferEstimate(v, 0), "coefficients"),
    "EqFilter": (lambda v: EqFilter(v, EqDesignConfig(filter_length=3), 0.0, 0.0, 0.0, 0.0, RATE),
                 "coefficients"),
}


@pytest.mark.parametrize("container", CONTAINERS)
@pytest.mark.parametrize("values", [
    [], [[1.0, 2.0, 3.0]], [1.0, np.nan, 3.0],
], ids=["empty", "2-D", "NaN"])
def test_containers_reject_a_vector_that_is_not_nonempty_1d_and_finite(container, values):
    make, field = CONTAINERS[container]
    with pytest.raises(ValueError) as info:
        make(values)
    assert str(info.value) == f"{field} must form a nonempty, finite 1-D vector"


# --- convolve ---------------------------------------------------------------

def test_convolve_identity():
    h = make_ir([0.5, -1.0, 2.0])
    delta = make_ir([1.0])
    assert np.array_equal(convolve(delta, h).samples, h.samples)


def test_convolve_delay_composition():
    d3 = unit_impulse(3)
    d5 = unit_impulse(5)
    out = convolve(d3, d5)
    expected = np.zeros(9)
    expected[8] = 1.0
    assert np.array_equal(out.samples, expected)


def test_convolve_matches_bruteforce(rng):
    a = make_ir(rng.standard_normal(7))
    b = make_ir(rng.standard_normal(5))
    got = convolve(a, b).samples
    want = conv_bruteforce(a.samples, b.samples)
    assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


def test_convolve_rejects_rate_mismatch():
    with pytest.raises(ValueError, match="cannot convolve responses at 16000 Hz and 48000 Hz"):
        convolve(make_ir([1.0], 16000), make_ir([1.0], 48000))


@given(finite_samples, finite_samples)
@settings(max_examples=60, deadline=None)
def test_convolve_commutes(a, b):
    x = convolve(make_ir(a), make_ir(b)).samples
    y = convolve(make_ir(b), make_ir(a)).samples
    assert np.max(np.abs(x - y)) <= 1e-12 * (1.0 + np.max(np.abs(x)))


@given(finite_samples, finite_samples, finite_samples)
@settings(max_examples=40, deadline=None)
def test_convolve_associates(a, b, c):
    ha, hb, hc = make_ir(a), make_ir(b), make_ir(c)
    left = convolve(convolve(ha, hb), hc).samples
    right = convolve(ha, convolve(hb, hc)).samples
    assert np.max(np.abs(left - right)) <= 1e-12 * (1.0 + np.max(np.abs(left)))


# --- convolution_matrix -----------------------------------------------------

def test_convolution_matrix_of_impulse_is_identity():
    m = convolution_matrix(make_ir([1.0]), 4)
    assert np.array_equal(m, np.eye(4))


def test_convolution_matrix_of_padded_impulse_has_zero_tail_rows():
    m = convolution_matrix(make_ir([1.0, 0.0]), 4)
    assert m.shape[0] == 5
    assert np.array_equal(m[:4], np.eye(4))
    assert np.array_equal(m[4], np.zeros(4))


def test_convolution_matrix_hand_checked():
    m = convolution_matrix(make_ir([1.0, 2.0]), 2)
    assert np.array_equal(m, np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 2.0]]))


def test_convolution_matrix_rejects_zero_cols():
    with pytest.raises(ValueError):
        convolution_matrix(make_ir([1.0]), 0)


def test_convolution_matrix_is_toeplitz(rng):
    h = make_ir(rng.standard_normal(6))
    m = convolution_matrix(h, 5)
    for i in range(m.shape[0] - 1):
        for j in range(m.shape[1] - 1):
            assert m[i, j] == m[i + 1, j + 1]


@given(finite_samples, st.integers(min_value=1, max_value=16), st.integers())
@settings(max_examples=60, deadline=None)
def test_convolution_matrix_multiplication_is_convolution(h, n, seed):
    x = np.random.default_rng(abs(seed) % 2**32).standard_normal(n)
    got = convolution_matrix(make_ir(h), n) @ x
    want = np.convolve(np.asarray(h), x)
    assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


# --- zero_pad_leading -------------------------------------------------------

def test_zero_pad_leading_cases():
    h = make_ir([1.0, -1.0])
    assert np.array_equal(zero_pad_leading(h, 0).samples, [1.0, -1.0])
    assert np.array_equal(zero_pad_leading(h, 2).samples, [0.0, 0.0, 1.0, -1.0])


def test_zero_pad_leading_full_acausal_lead(rng):
    h = make_ir(rng.standard_normal(20))
    padded = zero_pad_leading(h, 32)
    assert len(padded) == 52
    assert np.array_equal(padded.samples[:32], np.zeros(32))
    assert np.array_equal(padded.samples[32:], h.samples)


@given(finite_samples, st.integers(min_value=0, max_value=48))
@settings(max_examples=60, deadline=None)
def test_zero_pad_preserves_magnitude(h, n):
    h = make_ir(h)
    n_fft = 256
    base = np.abs(np.fft.rfft(h.samples, n=n_fft))
    padded = np.abs(np.fft.rfft(zero_pad_leading(h, n).samples, n=n_fft))
    assert np.max(np.abs(base - padded)) <= 1e-12 * (1.0 + np.sum(np.abs(h.samples)))


# --- delay by a unit impulse ------------------------------------------------

def test_unit_delay_shift_property(rng):
    h = make_ir(rng.standard_normal(10))
    shifted = convolve(unit_impulse(4), h).samples
    assert np.array_equal(shifted, zero_pad_leading(h, 4).samples)
    assert np.array_equal(shifted[4:], h.samples)
    assert np.array_equal(shifted[:4], np.zeros(4))


# --- magnitude_response -----------------------------------------------------

def test_magnitude_of_impulse_is_flat_zero_db():
    mag = magnitude_response(make_ir([1.0]), n_fft=512)
    assert np.array_equal(mag.magnitude_db, np.zeros(257))
    assert mag.frequencies_hz[0] == 0.0
    assert mag.frequencies_hz[-1] == RATE / 2


def test_magnitude_of_half_gain_is_constant():
    mag = magnitude_response(make_ir([0.5]), n_fft=256)
    assert np.allclose(mag.magnitude_db, 20.0 * np.log10(0.5), atol=1e-12)


def test_magnitude_comb_matches_closed_form():
    # two taps 96 samples apart: |1 + exp(-j w 96)| = 2|cos(48 w)|
    h = np.zeros(97)
    h[0] = 1.0
    h[96] = 1.0
    mag = magnitude_response(make_ir(h), n_fft=4096)
    omega = 2.0 * np.pi * mag.frequencies_hz / RATE
    expected_linear = 2.0 * np.abs(np.cos(48.0 * omega))
    clear = expected_linear > 1e-8
    expected_db = 20.0 * np.log10(expected_linear[clear])
    assert np.allclose(mag.magnitude_db[clear], expected_db, atol=1e-6)
    assert np.all(mag.magnitude_db[~clear] < -100.0)
    assert np.isclose(np.max(mag.magnitude_db), 20.0 * np.log10(2.0), atol=1e-9)


def test_magnitude_floors_exact_zero_bins():
    mag = magnitude_response(make_ir([0.0, 0.0]), n_fft=64)
    assert np.all(mag.magnitude_db == DB_FLOOR)


def test_magnitude_rejects_short_n_fft():
    with pytest.raises(ValueError):
        magnitude_response(make_ir(np.ones(16)), n_fft=8)


# --- file I/O ---------------------------------------------------------------

def test_csv_round_trip_is_bit_exact(tmp_path, rng):
    h = make_ir(rng.standard_normal(100) * 1e-3)
    path = tmp_path / "h.csv"
    write_impulse_csv(h, path)
    back = read_impulse_csv(path, RATE)
    assert np.array_equal(back.samples, h.samples)
    write_impulse_csv(back, tmp_path / "h2.csv")
    assert (tmp_path / "h.csv").read_bytes() == (tmp_path / "h2.csv").read_bytes()


def test_csv_header_is_optional(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("0.25\n-1.5\n")
    h = read_impulse_csv(path, RATE)
    assert np.array_equal(h.samples, [0.25, -1.5])


def test_csv_reads_one_value_per_line(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("sample\n\n  0.5 \n1 2\n")
    with pytest.raises(ValueError, match="could not convert string to float: '1 2'"):
        read_impulse_csv(path, RATE)
    path.write_text("sample\n\n  0.5 \n\n-2\n")
    assert np.array_equal(read_impulse_csv(path, RATE).samples, [0.5, -2.0])


def test_wav_round_trip(tmp_path, rng):
    h = make_ir(rng.standard_normal(64))
    path = tmp_path / "h.wav"
    wavfile.write(path, RATE, h.samples)
    back = read_impulse_wav(path, expected_rate_hz=RATE)
    assert np.array_equal(back.samples, h.samples)
    with pytest.raises(ValueError, match=f"file rate {RATE} Hz, expected 8000 Hz"):
        read_impulse_wav(path, expected_rate_hz=8000)


def test_8_bit_wav_is_read_without_a_dc_offset(tmp_path):
    samples = np.full(32, 128, dtype=np.uint8)  # unsigned 8-bit silence
    samples[5] = 255
    wavfile.write(tmp_path / "h.wav", RATE, samples)
    want = np.zeros(32)
    want[5] = 1.0
    assert np.array_equal(read_impulse_wav(tmp_path / "h.wav", RATE).samples, want)


def test_load_impulse_dispatches_on_suffix(tmp_path, rng):
    h = make_ir(rng.standard_normal(16))
    write_impulse_csv(h, tmp_path / "h.csv")
    wavfile.write(tmp_path / "h.wav", RATE, h.samples)
    assert np.array_equal(load_impulse(tmp_path / "h.csv", RATE).samples, h.samples)
    assert np.array_equal(load_impulse(tmp_path / "h.wav", RATE).samples, h.samples)
