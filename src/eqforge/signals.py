"""Impulse-response containers and the deterministic linear operations built on them."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

DEFAULT_SAMPLE_RATE_HZ = 16000
DEFAULT_N_FFT = 4096
DB_FLOOR = -200.0


@dataclass(frozen=True, eq=False)
class ImpulseResponse:
    """Finite real-valued FIR realization of a transfer function."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=np.float64, copy=True)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must form a nonempty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must all be finite")
        rate = int(self.sample_rate_hz)
        if rate <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", rate)

    def __len__(self) -> int:
        return int(self.samples.size)


@dataclass(frozen=True, eq=False)
class MagnitudeResponse:
    """Magnitude spectrum in dB on an ascending frequency grid spanning [0, fs/2]."""

    frequencies_hz: np.ndarray
    magnitude_db: np.ndarray
    n_fft: int

    def __post_init__(self) -> None:
        freqs = np.asarray(self.frequencies_hz, dtype=np.float64).copy()
        mags = np.asarray(self.magnitude_db, dtype=np.float64).copy()
        if freqs.ndim != 1 or mags.ndim != 1 or freqs.size != mags.size:
            raise ValueError("frequency and magnitude grids must be 1-D and equally long")
        if freqs.size > 1 and np.any(np.diff(freqs) <= 0):
            raise ValueError("frequency grid must be strictly ascending")
        freqs.flags.writeable = False
        mags.flags.writeable = False
        object.__setattr__(self, "frequencies_hz", freqs)
        object.__setattr__(self, "magnitude_db", mags)
        object.__setattr__(self, "n_fft", int(self.n_fft))


def zero_extend(values: np.ndarray, length: int) -> np.ndarray:
    """Return a copy of `values` zero-filled at the tail up to `length` samples."""
    values = np.asarray(values, dtype=np.float64)
    if values.size > length:
        raise ValueError(f"cannot extend length {values.size} down to {length}")
    out = np.zeros(length, dtype=np.float64)
    out[: values.size] = values
    return out


def convolve(a: ImpulseResponse, b: ImpulseResponse) -> ImpulseResponse:
    """Full linear convolution of two responses at a common sample rate."""
    if a.sample_rate_hz != b.sample_rate_hz:
        raise ValueError(
            f"cannot convolve responses at {a.sample_rate_hz} Hz and {b.sample_rate_hz} Hz"
        )
    return ImpulseResponse(np.convolve(a.samples, b.samples), a.sample_rate_hz)


def convolution_matrix(h: ImpulseResponse, n_cols: int) -> np.ndarray:
    """Full-shape convolution matrix of `h` with `n_cols` columns: entry (i, j) is h[i - j].

    The result has ``len(h) + n_cols - 1`` rows, so that ``matrix @ x`` equals
    ``convolve(h, x)`` for any coefficient vector x of length `n_cols`.
    """
    if n_cols < 1:
        raise ValueError(f"n_cols must be at least 1, got {n_cols}")
    return scipy.linalg.convolution_matrix(h.samples, n_cols, mode="full")


def zero_pad_leading(h: ImpulseResponse, n: int) -> ImpulseResponse:
    """Prepend `n` zeros to `h`, delaying it by `n` samples."""
    if n < 0:
        raise ValueError(f"pad length must be nonnegative, got {n}")
    if n == 0:
        return h
    return ImpulseResponse(
        np.concatenate([np.zeros(n), h.samples]), h.sample_rate_hz
    )


def unit_delay(
    d: int, length: int, sample_rate_hz: int = DEFAULT_SAMPLE_RATE_HZ
) -> ImpulseResponse:
    """Impulse of amplitude 1 at index `d` in a response of the given length."""
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    if not 0 <= d < length:
        raise ValueError(f"delay {d} does not fit in length {length}")
    samples = np.zeros(length)
    samples[d] = 1.0
    return ImpulseResponse(samples, sample_rate_hz)


def magnitude_response(h: ImpulseResponse, n_fft: int = DEFAULT_N_FFT) -> MagnitudeResponse:
    """Magnitude of the length-`n_fft` discrete-frequency transform of `h`, in dB.

    Bins that are exactly zero are reported at the -200 dB floor so downstream
    reports stay finite.
    """
    if n_fft < len(h):
        raise ValueError(f"n_fft={n_fft} is shorter than the response ({len(h)} samples)")
    spectrum = np.abs(np.fft.rfft(h.samples, n=n_fft))
    db = np.full(spectrum.shape, DB_FLOOR)
    nonzero = spectrum > 0.0
    db[nonzero] = 20.0 * np.log10(spectrum[nonzero])
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / h.sample_rate_hz)
    return MagnitudeResponse(freqs, db, n_fft)


# ---------------------------------------------------------------------------
# File I/O: one-column CSV (17 significant digits, bit-exact round trip), and
# reading single-channel WAV at the configured rate.
# ---------------------------------------------------------------------------

CSV_HEADER = "sample"


def write_impulse_csv(h: ImpulseResponse, path: str | Path) -> None:
    lines = [CSV_HEADER]
    lines.extend(format(x, ".17g") for x in h.samples)
    Path(path).write_text("\n".join(lines) + "\n")


def read_impulse_csv(path: str | Path, sample_rate_hz: int) -> ImpulseResponse:
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if lines and lines[0].lower() == CSV_HEADER:
        lines = lines[1:]
    if not lines:
        raise ValueError(f"{path}: no samples found")
    try:
        return ImpulseResponse(np.array(lines, dtype=np.float64), sample_rate_hz)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_impulse_wav(path: str | Path, expected_rate_hz: int | None = None) -> ImpulseResponse:
    from scipy.io import wavfile  # imported here, so that reading CSVs never loads scipy.io

    rate, data = wavfile.read(str(path))
    if data.ndim != 1:
        raise ValueError(f"{path}: expected a single-channel file, got {data.shape[1]} channels")
    if expected_rate_hz is not None and rate != expected_rate_hz:
        raise ValueError(f"{path}: file rate {rate} Hz, expected {expected_rate_hz} Hz")
    if np.issubdtype(data.dtype, np.integer):
        data = data / float(np.iinfo(data.dtype).max)
    return ImpulseResponse(np.asarray(data, dtype=np.float64), int(rate))


def load_impulse(path: str | Path, sample_rate_hz: int) -> ImpulseResponse:
    """Load a response from CSV or WAV, dispatching on the file suffix."""
    path = Path(path)
    if path.suffix.lower() == ".wav":
        return read_impulse_wav(path, expected_rate_hz=sample_rate_hz)
    return read_impulse_csv(path, sample_rate_hz)
