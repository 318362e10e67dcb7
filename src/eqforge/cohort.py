"""Synthetic ear cohorts, measured-ear datasets, and cohort manifest I/O.

The generator builds each ear from cascaded second-order resonators with
per-ear randomized centers, quality factors, and gains, mimicking the spread
of real ear acoustics at desk scale: a mild outer path to the device
microphone, an individual open-canal coloring on top of it, a strongly
attenuated low-pass leak for the occluded path, and an individual
receiver-to-eardrum response together with its in-ear and model-based
estimates (perturbed copies of the truth). Only the cohort size, the seed
and the errors of the two estimates are parameters; the acoustics are fixed
conventions: 16 kHz, four canal resonance bands, responses of 160 (microphone
path), 128 (receiver paths) and 64 (coloring) samples, and an occluded leak
34 +/- 2 dB below the open path, low-passed at 1.1 kHz. The generator needs
numpy only: every cascade runs in `_sos_filter`, which reproduces scipy's
`sosfilt` bit for bit, and the leak's Butterworth section is a constant.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np

from .design import json_typed, known_keys
from .rtf import RelativeTransferEstimate, default_rtf_length, estimate_average
from .signals import (
    DEFAULT_SAMPLE_RATE_HZ,
    ImpulseResponse,
    MagnitudeResponse,
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
# average cleanly), and the open-canal coloring reuses the canal resonance
# bands at reduced gain so the ratios vary less across ears than the
# receiver paths do. A band is the (low, high) draw range of its
# (center_hz, quality, gain_db).
_MIC_DELAY = 6
_MIC_BAND = ((2500.0, 5000.0), (0.8, 1.6), (0.5, 3.0))
_CANAL_BANDS = (
    ((450.0, 1800.0), (1.0, 2.5), (6.0, 16.0)),
    ((1300.0, 4800.0), (2.0, 5.0), (16.0, 30.0)),
    ((2500.0, 5600.0), (2.0, 5.0), (8.0, 20.0)),
    ((4400.0, 7000.0), (2.0, 5.0), (10.0, 24.0)),
)
_CANAL_DELAY_RANGE = (1, 4)
_COLORING_DELAY = 2
_COLORING_GAIN_SCALE = 0.4
_OCCLUSION_DEPTH_DB = 34.0
_OCCLUSION_JITTER_DB = 2.0
_OCCLUSION_CUTOFF_HZ = 1100.0
# The second-order Butterworth low-pass at the cutoff, exactly as scipy's `butter(2,
# _OCCLUSION_CUTOFF_HZ, fs=DEFAULT_SAMPLE_RATE_HZ, output="sos")` returns it: both inputs
# are fixed, and the closed-form bilinear section differs from it by a few ulps.
_OCCLUSION_SOS = np.array([[0.035437574812034106, 0.07087514962406821, 0.035437574812034106,
                            1.0, -1.4014153548558694, 0.5431656541040057]])
_EAR_IR_LENGTH = 160
_RECEIVER_IR_LENGTH = 128
_COLORING_IR_LENGTH = 64
_ENERGY_BAND_HZ = (100.0, 8000.0)


@dataclass(frozen=True)
class SynthCohortParams:
    """Knobs of the synthetic cohort generator: cohort size, seed, and the
    errors (dB) of the in-ear and model-based estimates of d_true."""

    n_subjects: int = 12
    seed: int = 42
    inear_mismatch_db: float = 6.0
    model_error_db: float = 1.0

    def __post_init__(self) -> None:
        if not 2 <= self.n_subjects <= 1000:
            raise ValueError("n_subjects must be in [2, 1000] (leave-one-out needs peers), "
                             f"got {self.n_subjects}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 0 <= self.model_error_db < self.inear_mismatch_db < math.inf:
            raise ValueError("need 0 <= model_error_db < inear_mismatch_db < inf, got "
                             f"{self.model_error_db} and {self.inear_mismatch_db}")


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
        present = {name: getattr(self, name) for name in RESPONSE_KEYS}
        return {name: value for name, value in present.items() if value is not None}

    def require(self, name: str) -> ImpulseResponse:
        value = getattr(self, name)
        if value is None:
            raise ValueError(f"{self.subject_id}: response {name} is not available")
        return value

    @property
    def sample_rate_hz(self) -> int:
        return self.h_m.sample_rate_hz

    @functools.cached_property  # the ear is frozen, with read-only arrays
    def spectra(self) -> tuple[MagnitudeResponse, MagnitudeResponse]:
        """The (open, occluded) spectra; the open one is desired at every d_G, as a pure delay
        changes no magnitude."""
        return magnitude_response(self.h_open), magnitude_response(self.h_occ)


def _sos_filter(sos: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cascade of second-order sections (a0 = 1) from rest, in transposed direct form II.

    Each section runs over the whole signal with the operations in the order of
    scipy's `sosfilt`, so the output matches it bit for bit.
    """
    y = x.tolist()
    for b0, b1, b2, _, a1, a2 in sos.tolist():
        z0 = z1 = 0.0
        for n, xn in enumerate(y):
            y[n] = yn = b0 * xn + z0
            z0 = b1 * xn - a1 * yn + z1
            z1 = b2 * xn - a2 * yn
    return np.array(y)


def _peaking_sos(center_hz: float, q: float, gain_db: float) -> np.ndarray:
    """RBJ peaking-EQ biquad section, normalized to a0 = 1."""
    amp = 10.0 ** (gain_db / 40.0)
    w0 = 2.0 * np.pi * center_hz / DEFAULT_SAMPLE_RATE_HZ
    alpha = np.sin(w0) / (2.0 * q)
    cos_w0 = np.cos(w0)
    b = np.array([1.0 + alpha * amp, -2.0 * cos_w0, 1.0 - alpha * amp])
    a = np.array([1.0 + alpha / amp, -2.0 * cos_w0, 1.0 - alpha / amp])
    return np.concatenate([b, a]) / a[0]


def _resonator_ir(resonances: list[tuple[float, float, float]], delay: int,
                  length: int) -> ImpulseResponse:
    """Impulse response of a peaking-biquad cascade (centers capped) behind an integer delay."""
    impulse = np.zeros(length)
    impulse[0] = 1.0
    # A large inear_mismatch_db can shift a center past Nyquist, where the cascade overflows.
    cap_hz = 0.9 * (DEFAULT_SAMPLE_RATE_HZ / 2.0)  # 0.9 times the Nyquist frequency
    sos = np.stack([_peaking_sos(min(f, cap_hz), q, g) for f, q, g in resonances])
    samples = np.concatenate([np.zeros(delay), _sos_filter(sos, impulse)])[:length]
    return ImpulseResponse(samples, DEFAULT_SAMPLE_RATE_HZ)


def _band_energy(h: ImpulseResponse) -> float:
    mag = magnitude_response(h)
    mask = (mag.frequencies_hz >= _ENERGY_BAND_HZ[0]) & (
        mag.frequencies_hz <= _ENERGY_BAND_HZ[1]
    )
    linear = 10.0 ** (mag.magnitude_db[mask] / 20.0)
    return float(np.sum(linear * linear))


def _occluded_leak(h_open: ImpulseResponse, depth_db: float) -> ImpulseResponse:
    """Low-pass leak of the open path, scaled `depth_db` below it in band energy."""
    leak = ImpulseResponse(_sos_filter(_OCCLUSION_SOS, h_open.samples), h_open.sample_rate_hz)
    scale = 10.0 ** (-depth_db / 20.0) * np.sqrt(_band_energy(h_open) / _band_energy(leak))
    return ImpulseResponse(leak.samples * scale, h_open.sample_rate_hz)


def _perturbed(resonances: list[tuple[float, float, float]],
               shifts: list[tuple[float, float]]) -> list[tuple[float, float, float]]:
    """Shift resonance centers (fractional octaves) and gains (dB) per draw."""
    return [(f * 2.0 ** (df_db / 40.0), q, g + dg_db)
            for (f, q, g), (df_db, dg_db) in zip(resonances, shifts)]


def _build_ear(subject_id: str, rng: np.random.Generator | None,
               params: SynthCohortParams) -> EarDataset:
    """One ear from `rng`'s uniform draws; with no generator every draw sits mid-range."""

    def uniform(lo: float, hi: float) -> float:
        return 0.5 * (lo + hi) if rng is None else float(rng.uniform(lo, hi))

    # Draw order is fixed; reordering would silently reshuffle every cohort.
    lo, hi = _CANAL_DELAY_RANGE
    canal_delay = int(round(0.5 * (lo + hi))) if rng is None else int(rng.integers(lo, hi + 1))
    canal = [tuple(uniform(*r) for r in band) for band in _CANAL_BANDS]
    inear_shifts = [
        (uniform(-params.inear_mismatch_db, params.inear_mismatch_db),
         uniform(-params.inear_mismatch_db, params.inear_mismatch_db))
        for _ in _CANAL_BANDS
    ]
    model_shifts = [
        (uniform(-params.model_error_db, params.model_error_db),
         uniform(-params.model_error_db, params.model_error_db))
        for _ in _CANAL_BANDS
    ]
    mic = [tuple(uniform(*r) for r in _MIC_BAND)]
    coloring = [
        (uniform(*center), uniform(*quality), _COLORING_GAIN_SCALE * uniform(*gain))
        for center, quality, gain in _CANAL_BANDS
    ]
    occlusion_depth = _OCCLUSION_DEPTH_DB + uniform(-_OCCLUSION_JITTER_DB, _OCCLUSION_JITTER_DB)

    d_true = _resonator_ir(canal, canal_delay, _RECEIVER_IR_LENGTH)
    d_inear = _resonator_ir(_perturbed(canal, inear_shifts), canal_delay, _RECEIVER_IR_LENGTH)
    d_model = _resonator_ir(_perturbed(canal, model_shifts), canal_delay, _RECEIVER_IR_LENGTH)
    h_m = _resonator_ir(mic, _MIC_DELAY, _EAR_IR_LENGTH)
    open_coloring = _resonator_ir(coloring, _COLORING_DELAY, _COLORING_IR_LENGTH)
    h_open = convolve(h_m, open_coloring)
    h_occ = _occluded_leak(h_open, occlusion_depth)

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
        _build_ear(f"ear{i:02d}", np.random.default_rng(seed), params)
        for i, seed in enumerate(seeds)
    ]


def synth_dummy_ear(params: SynthCohortParams) -> EarDataset:
    """Reference ear with every generator draw pinned to its range midpoint."""
    return _build_ear("dummy", None, params)


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
        if not self.subject_ids:
            raise ValueError("a cohort needs at least one subject")

    @classmethod
    def of(cls, ears: list[EarDataset], dummy: EarDataset | None = None) -> CohortData:
        by_id = {e.subject_id: e for e in [*ears, *([dummy] if dummy else [])]}
        if len(rates := sorted({e.sample_rate_hz for e in by_id.values()})) > 1:
            raise ValueError(f"the cohort's ears mix sample rates: {rates}")
        return cls(tuple(e.subject_id for e in ears), dummy.subject_id if dummy else None,
                   by_id.__getitem__)

    def ear(self, subject_id: str) -> EarDataset:
        if subject_id is None or subject_id not in (*self.subject_ids, self.dummy_id):
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


def params_from_json(data: Any, section: str = "synth") -> SynthCohortParams:
    """Generator parameters from the JSON object `section`; a bad type or key is a ValueError."""
    json_typed(section, data, dict, "an object")
    known_keys(f'"{section}"', data, (f.name for f in fields(SynthCohortParams)))
    kwargs: dict[str, Any] = {}
    for f in fields(SynthCohortParams):
        if f.name in data:
            integer = isinstance(f.default, int)
            kwargs[f.name] = json_typed(f.name, data[f.name], int if integer else (int, float),
                                        "an integer" if integer else "a number")
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


def _checked_entry(key: str, entry: Any, base_dir: Path) -> str:
    """The ID of manifest entry `key`, once it is an object with valid ID, keys and files."""
    known_keys(f'"{key}"', json_typed(key, entry, dict, "an object"), ("id", *RESPONSE_KEYS))
    sid = json_typed("id", entry["id"], str, "a string")
    # IDs become output file names: nothing that names or climbs a directory.
    if sid in ("", ".", "..") or any(c in sid for c in "/\\\0"):
        raise ValueError(f'"id" must be a plain file name, got {sid!r}')
    missing = [k for k in ("h_m", "h_open", "h_occ") if k not in entry]
    if missing:
        raise ValueError(f"{sid}: manifest entry lacks required responses {missing}")
    for name in [k for k in RESPONSE_KEYS if k in entry]:
        file = json_typed(f"{key}.{name}", entry[name], str, "a path")
        if not os.path.isfile(os.path.join(base_dir, file)):  # half the time of a Path per file
            raise FileNotFoundError(f"{sid}: response {name} file not found: {entry[name]}")
    return sid


def load_manifest(path: str | Path) -> CohortData:
    """Check the whole manifest now; read each ear's responses when it is first used."""
    path = Path(path)
    data = json_typed("manifest", json.loads(path.read_text()), dict, "an object")
    known_keys("the manifest", data, ("sample_rate_hz", "subjects", "dummy", "synth_params"))
    # "synth_params" records how `synth` made the cohort: nothing reads it, but it must be valid.
    params_from_json(data.get("synth_params", {}), "synth_params")
    rate = json_typed("sample_rate_hz", data["sample_rate_hz"], int, "an integer")
    if rate <= 0:
        raise ValueError(f'"sample_rate_hz" must be positive, got {rate}')
    subjects = json_typed("subjects", data["subjects"], list, "a nonempty list")
    if not subjects:
        raise ValueError('"subjects" must be a nonempty list, got []')
    entries = subjects + ([data["dummy"]] if "dummy" in data else [])
    keys = [*(f"subjects[{i}]" for i in range(len(subjects))), "dummy"]
    ids = [_checked_entry(key, entry, path.parent) for key, entry in zip(keys, entries)]
    by_id = dict(zip(ids, entries))

    def read_ear(sid: str) -> EarDataset:
        responses = {k: load_impulse(path.parent / v, rate)
                     for k, v in by_id[sid].items() if k in RESPONSE_KEYS}
        return EarDataset(sid, **responses)

    return CohortData(tuple(ids[:len(subjects)]),
                      ids[-1] if "dummy" in data else None, read_ear)
