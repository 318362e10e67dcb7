"""Synthetic ear cohorts, measured-ear datasets, and cohort manifest I/O.

The generator builds each ear from cascaded second-order resonators with
per-ear randomized centers, quality factors, and gains, mimicking the spread
of real ear acoustics at desk scale: a mild outer path to the device
microphone, an individual open-canal coloring on top of it, a strongly
attenuated low-pass leak for the occluded path, and an individual
receiver-to-eardrum response together with its in-ear and model-based
estimates (perturbed copies of the truth).
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np

from .design import json_typed, known_keys
from .rtf import MAX_RTF_LENGTH, RelativeTransferEstimate, default_rtf_length, estimate_average
from .signals import (
    ImpulseResponse,
    convolve,
    load_impulse,
    magnitude_response,
    write_impulse_csv,
)

RESPONSE_KEYS = ("h_m", "h_open", "h_occ", "d_true", "d_inear", "d_model")

# Fixed generator conventions (not exposed as parameters): the device
# microphone sits 6 samples from the source with a mild broad resonance, the
# eardrum a further 2 samples behind it (constant across ears, so the
# transfer-function ratios differ spectrally but stay time-aligned and
# average cleanly), and the open-canal coloring reuses the cohort resonance
# bands at reduced gain so the ratios vary less across ears than the
# receiver paths do.
_MIC_DELAY = 6
_MIC_BAND = ((2500.0, 5000.0), (0.8, 1.6), (0.5, 3.0))
_COLORING_DELAY = 2
_COLORING_GAIN_SCALE = 0.4
_OCCLUSION_JITTER_DB = 2.0
_ENERGY_BAND_HZ = (100.0, 8000.0)


@dataclass(frozen=True)
class ResonanceBand:
    """Per-ear draw ranges for one resonance: (low, high) of each parameter."""

    center_hz: tuple[float, float]
    quality: tuple[float, float]
    gain_db: tuple[float, float]

    def __post_init__(self) -> None:
        for name, (lo, hi) in (
            ("center_hz", self.center_hz),
            ("quality", self.quality),
            ("gain_db", self.gain_db),
        ):
            if not -math.inf < lo <= hi < math.inf:
                raise ValueError(f"{name} range is inverted or not finite: ({lo}, {hi})")
        if self.center_hz[0] <= 0 or self.quality[0] <= 0:
            raise ValueError("center_hz and quality must be positive")


DEFAULT_RESONANCE_BANDS = (
    ResonanceBand(center_hz=(450.0, 1800.0), quality=(1.0, 2.5), gain_db=(6.0, 16.0)),
    ResonanceBand(center_hz=(1300.0, 4800.0), quality=(2.0, 5.0), gain_db=(16.0, 30.0)),
    ResonanceBand(center_hz=(2500.0, 5600.0), quality=(2.0, 5.0), gain_db=(8.0, 20.0)),
    ResonanceBand(center_hz=(4400.0, 7000.0), quality=(2.0, 5.0), gain_db=(10.0, 24.0)),
)


@dataclass(frozen=True)
class SynthCohortParams:
    """Knobs of the synthetic cohort generator; defaults suit 16 kHz material.

    A drawn resonance center above 0.9 times the Nyquist frequency is capped there.
    """

    n_subjects: int = 12
    seed: int = 42
    sample_rate_hz: int = 16000
    resonance_bands: tuple[ResonanceBand, ...] = DEFAULT_RESONANCE_BANDS
    canal_delay_range: tuple[int, int] = (1, 4)
    inear_mismatch_db: float = 6.0
    model_error_db: float = 1.0
    occlusion_depth_db: float = 34.0
    occlusion_cutoff_hz: float = 1100.0
    ear_ir_length: int = 160
    receiver_ir_length: int = 128
    coloring_ir_length: int = 64

    def __post_init__(self) -> None:
        if not 2 <= self.n_subjects <= 1000:
            raise ValueError("n_subjects must be in [2, 1000] (leave-one-out needs peers), "
                             f"got {self.n_subjects}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if not 0 < self.occlusion_cutoff_hz < self.sample_rate_hz / 2:
            raise ValueError(f"occlusion_cutoff_hz must lie in (0, {self.sample_rate_hz / 2:g}), "
                             f"got {self.occlusion_cutoff_hz}")
        if not self.resonance_bands:
            raise ValueError("at least one resonance band is required")
        lo, hi = self.canal_delay_range
        if not 0 <= lo <= hi < self.receiver_ir_length:
            raise ValueError(f"canal_delay_range is invalid: ({lo}, {hi})")
        if not 0 <= self.model_error_db < self.inear_mismatch_db < math.inf:
            raise ValueError("need 0 <= model_error_db < inear_mismatch_db < inf, got "
                             f"{self.model_error_db} and {self.inear_mismatch_db}")
        if not 0 < self.occlusion_depth_db < math.inf:
            raise ValueError("occlusion_depth_db must be positive and finite, "
                             f"got {self.occlusion_depth_db}")
        for name in ("ear_ir_length", "receiver_ir_length", "coloring_ir_length"):
            if not 8 <= getattr(self, name) <= MAX_RTF_LENGTH:
                raise ValueError(f"{name} must be in [8, {MAX_RTF_LENGTH}], "
                                 f"got {getattr(self, name)}")


@dataclass(frozen=True, eq=False)
class EarDataset:
    """One ear's measured transfer set plus receiver-to-eardrum responses.

    The d_* responses are optional so manifests that only feed the RTF
    estimators remain loadable; simulation paths demand them via require().
    """

    subject_id: str
    h_m: ImpulseResponse
    h_open: ImpulseResponse
    h_occ: ImpulseResponse
    d_true: ImpulseResponse | None = None
    d_inear: ImpulseResponse | None = None
    d_model: ImpulseResponse | None = None

    def __post_init__(self) -> None:
        rates = {r.sample_rate_hz for r in self.responses().values()}
        if len(rates) > 1:
            raise ValueError(f"{self.subject_id}: mixed sample rates {sorted(rates)}")
        for name, response in self.responses().items():
            if not np.any(response.samples):
                raise ValueError(f"{self.subject_id}: response {name} is identically zero")

    def responses(self) -> dict[str, ImpulseResponse]:
        present = {"h_m": self.h_m, "h_open": self.h_open, "h_occ": self.h_occ}
        for name in ("d_true", "d_inear", "d_model"):
            value = getattr(self, name)
            if value is not None:
                present[name] = value
        return present

    def require(self, name: str) -> ImpulseResponse:
        value = getattr(self, name)
        if value is None:
            raise ValueError(f"{self.subject_id}: response {name} is not available")
        return value

    @property
    def sample_rate_hz(self) -> int:
        return self.h_m.sample_rate_hz


class _Draws:
    """Uniform draws from ranges; with no generator every draw sits mid-range."""

    def __init__(self, rng: np.random.Generator | None):
        self._rng = rng

    def uniform(self, lo: float, hi: float) -> float:
        if self._rng is None:
            return 0.5 * (lo + hi)
        return float(self._rng.uniform(lo, hi))

    def integer(self, lo: int, hi: int) -> int:
        if self._rng is None:
            return int(round(0.5 * (lo + hi)))
        return int(self._rng.integers(lo, hi + 1))


def _peaking_sos(center_hz: float, q: float, gain_db: float, rate: int) -> np.ndarray:
    """RBJ peaking-EQ biquad section, normalized to a0 = 1."""
    amp = 10.0 ** (gain_db / 40.0)
    w0 = 2.0 * np.pi * center_hz / rate
    alpha = np.sin(w0) / (2.0 * q)
    cos_w0 = np.cos(w0)
    b = np.array([1.0 + alpha * amp, -2.0 * cos_w0, 1.0 - alpha * amp])
    a = np.array([1.0 + alpha / amp, -2.0 * cos_w0, 1.0 - alpha / amp])
    return np.concatenate([b, a]) / a[0]


def _resonator_ir(
    resonances: list[tuple[float, float, float]],
    delay: int,
    length: int,
    rate: int,
) -> ImpulseResponse:
    """Impulse response of a peaking-biquad cascade (centers capped) behind an integer delay."""
    from scipy.signal import sosfilt  # imported here: it is most of the package's import time

    impulse = np.zeros(length)
    impulse[0] = 1.0
    if resonances:
        cap_hz = 0.9 * (rate / 2.0)  # 0.9 times the Nyquist frequency
        sos = np.stack([_peaking_sos(min(f, cap_hz), q, g, rate) for f, q, g in resonances])
        shaped = sosfilt(sos, impulse)
    else:
        shaped = impulse
    samples = np.concatenate([np.zeros(delay), shaped])[:length]
    return ImpulseResponse(samples, rate)


def _band_energy(h: ImpulseResponse) -> float:
    mag = magnitude_response(h, n_fft=max(4096, len(h)))
    mask = (mag.frequencies_hz >= _ENERGY_BAND_HZ[0]) & (
        mag.frequencies_hz <= _ENERGY_BAND_HZ[1]
    )
    linear = 10.0 ** (mag.magnitude_db[mask] / 20.0)
    return float(np.sum(linear * linear))


def _occluded_leak(
    h_open: ImpulseResponse, depth_db: float, cutoff_hz: float
) -> ImpulseResponse:
    """Low-pass leak of the open path, scaled `depth_db` below it in band energy."""
    from scipy.signal import butter, sosfilt

    sos = butter(2, cutoff_hz, fs=h_open.sample_rate_hz, btype="low", output="sos")
    leak = ImpulseResponse(sosfilt(sos, h_open.samples), h_open.sample_rate_hz)
    leak_energy = _band_energy(leak)
    ratio = _band_energy(h_open) / leak_energy if leak_energy > 0 else math.inf
    if not math.isfinite(ratio):
        raise ValueError(f"occlusion_cutoff_hz {cutoff_hz:g} leaves the occluded leak no energy "
                         f"in the {_ENERGY_BAND_HZ[0]:g}-{_ENERGY_BAND_HZ[1]:g} Hz band")
    scale = 10.0 ** (-depth_db / 20.0) * np.sqrt(ratio)
    return ImpulseResponse(leak.samples * scale, h_open.sample_rate_hz)


def _perturbed(resonances: list[tuple[float, float, float]],
               shifts: list[tuple[float, float]]) -> list[tuple[float, float, float]]:
    """Shift resonance centers (fractional octaves) and gains (dB) per draw."""
    return [(f * 2.0 ** (df_db / 40.0), q, g + dg_db)
            for (f, q, g), (df_db, dg_db) in zip(resonances, shifts)]


def _build_ear(subject_id: str, draws: _Draws, params: SynthCohortParams) -> EarDataset:
    rate = params.sample_rate_hz

    # Draw order is fixed; reordering would silently reshuffle every cohort.
    canal_delay = draws.integer(*params.canal_delay_range)
    canal = [
        (draws.uniform(*band.center_hz), draws.uniform(*band.quality), draws.uniform(*band.gain_db))
        for band in params.resonance_bands
    ]
    inear_shifts = [
        (draws.uniform(-params.inear_mismatch_db, params.inear_mismatch_db),
         draws.uniform(-params.inear_mismatch_db, params.inear_mismatch_db))
        for _ in params.resonance_bands
    ]
    model_shifts = [
        (draws.uniform(-params.model_error_db, params.model_error_db),
         draws.uniform(-params.model_error_db, params.model_error_db))
        for _ in params.resonance_bands
    ]
    mic = [(draws.uniform(*_MIC_BAND[0]), draws.uniform(*_MIC_BAND[1]),
            draws.uniform(*_MIC_BAND[2]))]
    coloring = [
        (draws.uniform(*band.center_hz), draws.uniform(*band.quality),
         _COLORING_GAIN_SCALE * draws.uniform(*band.gain_db))
        for band in params.resonance_bands
    ]
    occlusion_depth = params.occlusion_depth_db + draws.uniform(
        -_OCCLUSION_JITTER_DB, _OCCLUSION_JITTER_DB
    )

    d_true = _resonator_ir(canal, canal_delay, params.receiver_ir_length, rate)
    d_inear = _resonator_ir(
        _perturbed(canal, inear_shifts), canal_delay, params.receiver_ir_length, rate
    )
    d_model = _resonator_ir(
        _perturbed(canal, model_shifts), canal_delay, params.receiver_ir_length, rate
    )
    h_m = _resonator_ir(mic, _MIC_DELAY, params.ear_ir_length, rate)
    open_coloring = _resonator_ir(coloring, _COLORING_DELAY, params.coloring_ir_length, rate)
    h_open = convolve(h_m, open_coloring)
    h_occ = _occluded_leak(h_open, occlusion_depth, params.occlusion_cutoff_hz)

    return EarDataset(
        subject_id=subject_id,
        h_m=h_m,
        h_open=h_open,
        h_occ=h_occ,
        d_true=d_true,
        d_inear=d_inear,
        d_model=d_model,
    )


def synth_cohort(params: SynthCohortParams) -> list[EarDataset]:
    """Deterministic cohort of synthetic ears: one independent stream per ear."""
    seeds = np.random.SeedSequence(params.seed).spawn(params.n_subjects)
    return [
        _build_ear(f"ear{i:02d}", _Draws(np.random.default_rng(seed)), params)
        for i, seed in enumerate(seeds)
    ]


def synth_dummy_ear(params: SynthCohortParams) -> EarDataset:
    """Reference ear with every generator draw pinned to its range midpoint."""
    return _build_ear("dummy", _Draws(None), params)


# ---------------------------------------------------------------------------
# Manifest I/O
# ---------------------------------------------------------------------------


RtfPair = tuple[RelativeTransferEstimate, RelativeTransferEstimate]


@dataclass(frozen=True, eq=False)
class CohortData:
    """A cohort's IDs; `ear(id)` reads an ear on first use, and both ears and RTFs are memoized."""

    subject_ids: tuple[str, ...]
    dummy_id: str | None
    read_ear: Callable[[str], EarDataset]
    _ears: dict[str, EarDataset] = field(default_factory=dict, init=False, repr=False)
    _rtfs: dict[tuple, RtfPair] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        # Both memos and leave-one-out exclusions are keyed by subject ID.
        ids = [*self.subject_ids, *([self.dummy_id] if self.dummy_id is not None else [])]
        duplicates = sorted({i for i in ids if ids.count(i) > 1})
        if duplicates:
            raise ValueError(f"duplicate subject IDs {duplicates}")

    @classmethod
    def of(cls, ears: list[EarDataset], dummy: EarDataset | None = None) -> CohortData:
        by_id = {e.subject_id: e for e in [*ears, *([dummy] if dummy else [])]}
        return cls(tuple(e.subject_id for e in ears), dummy.subject_id if dummy else None,
                   by_id.__getitem__)

    def ear(self, subject_id: str) -> EarDataset:
        if subject_id not in (*self.subject_ids, self.dummy_id):
            raise ValueError(f"subject {subject_id!r} is not in the cohort")
        if subject_id not in self._ears:
            try:
                self._ears[subject_id] = self.read_ear(subject_id)
            except (OSError, ValueError) as exc:
                raise ValueError(f"cannot read subject {subject_id!r}: {exc}") from exc
        return self._ears[subject_id]

    @property
    def ears(self) -> list[EarDataset]:
        return [self.ear(i) for i in self.subject_ids]

    @property
    def dummy(self) -> EarDataset | None:
        return None if self.dummy_id is None else self.ear(self.dummy_id)

    def pooled_rtfs(self, subject_ids: tuple[str, ...], acausal_lead: int) -> RtfPair:
        """(open, occluded) RTF estimates pooled over the named ears, estimated once per key."""
        key = (acausal_lead, *subject_ids)
        if key not in self._rtfs:
            ears = [self.ear(i) for i in subject_ids]
            self._rtfs[key] = tuple(
                estimate_average(
                    [(e.h_m, getattr(e, name)) for e in ears],
                    max(default_rtf_length(len(getattr(e, name)), acausal_lead) for e in ears),
                    acausal_lead,
                )
                for name in ("h_open", "h_occ")
            )
        return self._rtfs[key]


def _json_pair(key: str, value: Any, kind: type | tuple[type, ...], what: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f'"{key}" must be {what}, got {value!r}')
    return tuple(json_typed(key, v, kind, what) for v in value)


def _band_from_json(band: Any) -> ResonanceBand:
    json_typed("resonance_bands", band, dict, "a list of objects")
    return ResonanceBand(**{
        name: _json_pair(name, band.get(name), (int, float), "a pair of numbers")
        for name in ("center_hz", "quality", "gain_db")})


def params_from_json(data: dict) -> SynthCohortParams:
    """Generator parameters from their JSON form; a wrong type or unknown key is a ValueError."""
    known_keys('"cohort.synth"', data, (f.name for f in fields(SynthCohortParams)))
    kwargs: dict[str, Any] = {}
    for f in fields(SynthCohortParams):
        if f.name not in data:
            continue
        value = data[f.name]
        if f.name == "resonance_bands":
            bands = json_typed(f.name, value, (list, tuple), "a list of objects")
            kwargs[f.name] = tuple(_band_from_json(band) for band in bands)
        elif f.name == "canal_delay_range":
            kwargs[f.name] = _json_pair(f.name, value, int, "a pair of integers")
        elif isinstance(f.default, int):
            kwargs[f.name] = json_typed(f.name, value, int, "an integer")
        else:
            kwargs[f.name] = json_typed(f.name, value, (int, float), "a number")
    return SynthCohortParams(**kwargs)


def _write_ear(ear: EarDataset, ears_dir: Path, manifest_dir: Path) -> dict:
    entry: dict = {"id": ear.subject_id}
    subject_dir = ears_dir / ear.subject_id
    subject_dir.mkdir(parents=True, exist_ok=True)
    for name, response in ear.responses().items():
        path = subject_dir / f"{name}.csv"
        write_impulse_csv(response, path)
        entry[name] = path.relative_to(manifest_dir).as_posix()
    return entry


def save_cohort(
    cohort: list[EarDataset],
    out_dir: str | Path,
    dummy: EarDataset | None = None,
    params: SynthCohortParams | None = None,
) -> Path:
    """Write per-ear CSV responses plus a manifest JSON; returns the manifest path."""
    out_dir = Path(out_dir)
    ears_dir = out_dir / "ears"
    ears_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"sample_rate_hz": cohort[0].sample_rate_hz}
    if params is not None:
        manifest["synth_params"] = asdict(params)
    manifest["subjects"] = [_write_ear(ear, ears_dir, out_dir) for ear in cohort]
    if dummy is not None:
        manifest["dummy"] = _write_ear(dummy, ears_dir, out_dir)
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def _checked_entry(entry: dict, base_dir: Path) -> str:
    """The entry's ID, once its ID, required keys and listed files are valid."""
    sid = json_typed("id", entry["id"], str, "a string")
    # IDs become output file names: nothing that names or climbs a directory.
    if sid in ("", ".", "..") or any(c in sid for c in "/\\\0"):
        raise ValueError(f'"id" must be a plain file name, got {sid!r}')
    missing = [k for k in ("h_m", "h_open", "h_occ") if k not in entry]
    if missing:
        raise ValueError(f"{sid}: manifest entry lacks required responses {missing}")
    for name in RESPONSE_KEYS:
        if name in entry and not (base_dir / entry[name]).is_file():
            raise FileNotFoundError(f"{sid}: response {name} file not found: {entry[name]}")
    return sid


def load_manifest(path: str | Path) -> CohortData:
    """Check the whole manifest now; read each ear's responses when it is first used."""
    path = Path(path)
    data = json.loads(path.read_text())
    rate = json_typed("sample_rate_hz", data["sample_rate_hz"], int, "an integer")
    if rate <= 0:
        raise ValueError(f'"sample_rate_hz" must be positive, got {rate}')
    entries = data["subjects"] + ([data["dummy"]] if "dummy" in data else [])
    ids = [_checked_entry(entry, path.parent) for entry in entries]
    by_id = dict(zip(ids, entries))

    def read_ear(sid: str) -> EarDataset:
        responses = {k: load_impulse(path.parent / v, rate)
                     for k, v in by_id[sid].items() if k in RESPONSE_KEYS}
        return EarDataset(sid, **responses)

    return CohortData(tuple(ids[:len(data["subjects"])]),
                      ids[-1] if "dummy" in data else None, read_ear)
