import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eqforge import cohort as cohort_mod
from eqforge.cohort import (
    EarDataset,
    SynthCohortParams,
    load_manifest,
    params_from_json,
    save_cohort,
    synth_cohort,
    synth_dummy_ear,
)
from eqforge.signals import magnitude_response
from conftest import RATE, make_ir

SMALL = SynthCohortParams(n_subjects=3)


def band_energy_db(h, lo=100.0, hi=8000.0):
    mag = magnitude_response(h, n_fft=4096)
    mask = (mag.frequencies_hz >= lo) & (mag.frequencies_hz <= hi)
    linear = 10.0 ** (mag.magnitude_db[mask] / 20.0)
    return 10.0 * np.log10(float(np.sum(linear * linear)))


# --- parameter validation ----------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        SynthCohortParams(n_subjects=1)
    with pytest.raises(ValueError):
        SynthCohortParams(model_error_db=6.0, inear_mismatch_db=6.0)
    with pytest.raises(ValueError):
        SynthCohortParams(model_error_db=-1.0)
    for bad in (dict(seed=-1), dict(model_error_db=float("nan")),
                dict(inear_mismatch_db=float("inf"))):
        with pytest.raises(ValueError):
            SynthCohortParams(**bad)


def test_params_json_round_trip():
    params = SynthCohortParams(n_subjects=5, seed=7, inear_mismatch_db=4.0,
                               model_error_db=0.5)
    assert params_from_json(dataclasses.asdict(params)) == params


# --- generator ------------------------------------------------------------------

def test_same_seed_gives_bit_identical_cohorts():
    a = synth_cohort(SMALL)
    b = synth_cohort(SMALL)
    for ear_a, ear_b in zip(a, b):
        assert ear_a.subject_id == ear_b.subject_id
        for name, resp in ear_a.responses().items():
            assert np.array_equal(resp.samples, ear_b.responses()[name].samples)


def test_different_seeds_differ():
    a = synth_cohort(SMALL)
    b = synth_cohort(dataclasses.replace(SMALL, seed=43))
    assert not np.array_equal(a[0].d_true.samples, b[0].d_true.samples)


def test_zero_model_error_reproduces_truth():
    params = dataclasses.replace(SMALL, model_error_db=0.0)
    for ear in synth_cohort(params):
        assert np.array_equal(ear.d_model.samples, ear.d_true.samples)
        assert not np.array_equal(ear.d_inear.samples, ear.d_true.samples)


def test_occlusion_attenuates_at_least_10_db():
    for ear in synth_cohort(SynthCohortParams(n_subjects=12)):
        depth = band_energy_db(ear.h_open) - band_energy_db(ear.h_occ)
        assert depth >= 10.0


def test_cohort_size_and_ids():
    cohort = synth_cohort(SynthCohortParams(n_subjects=12))
    assert len(cohort) == 12
    assert [e.subject_id for e in cohort] == [f"ear{i:02d}" for i in range(12)]


def test_dummy_ear_is_deterministic_and_unperturbed():
    d1 = synth_dummy_ear(SMALL)
    d2 = synth_dummy_ear(dataclasses.replace(SMALL, seed=99))
    assert np.array_equal(d1.d_true.samples, d2.d_true.samples)
    # midpoint draws zero out both estimate perturbations
    assert np.array_equal(d1.d_inear.samples, d1.d_true.samples)
    assert np.array_equal(d1.d_model.samples, d1.d_true.samples)


def test_all_responses_are_nonzero_and_uniform_rate():
    for ear in synth_cohort(SMALL):
        responses = ear.responses()
        assert set(responses) == {"h_m", "h_open", "h_occ", "d_true", "d_inear", "d_model"}
        for resp in responses.values():
            assert resp.sample_rate_hz == 16000
            assert np.any(resp.samples)


@pytest.mark.parametrize("kind", ["impulse", "noise"])
def test_sos_filter_matches_scipy_sosfilt_bit_for_bit(kind):
    from scipy.signal import sosfilt

    rng = np.random.default_rng(7)
    for _ in range(200):
        sos = np.stack([cohort_mod._peaking_sos(rng.uniform(50.0, 7200.0), rng.uniform(0.5, 6.0),
                                                rng.uniform(-30.0, 30.0)) for _ in range(4)])
        x = rng.standard_normal(160) if kind == "noise" else np.eye(1, 160)[0]
        assert np.array_equal(cohort_mod._sos_filter(sos, x), sosfilt(sos, x))


def test_occlusion_section_is_scipys_butterworth_low_pass():
    from scipy.signal import butter

    want = butter(2, cohort_mod._OCCLUSION_CUTOFF_HZ, fs=cohort_mod.DEFAULT_SAMPLE_RATE_HZ,
                  btype="low", output="sos")
    assert np.array_equal(cohort_mod._OCCLUSION_SOS, want)


# --- EarDataset -------------------------------------------------------------------

def test_ear_dataset_rejects_mixed_rates():
    good = make_ir([1.0], 16000)
    bad = make_ir([1.0], 48000)
    with pytest.raises(ValueError):
        EarDataset("x", good, good, bad)


def test_ear_dataset_rejects_silent_response():
    good = make_ir([1.0])
    with pytest.raises(ValueError):
        EarDataset("x", good, make_ir([0.0]), good)


def test_ear_dataset_require():
    good = make_ir([1.0])
    ear = EarDataset("x", good, good, good)
    with pytest.raises(ValueError, match="d_true"):
        ear.require("d_true")
    full = EarDataset("x", good, good, good, d_true=good)
    assert full.require("d_true") is good


# --- manifest I/O -------------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    params = SMALL
    cohort = synth_cohort(params)
    dummy = synth_dummy_ear(params)
    manifest = save_cohort(cohort, tmp_path, dummy=dummy, params=params)
    assert manifest == tmp_path / "manifest.json"

    data = load_manifest(manifest)
    assert data.ear("ear00").sample_rate_hz == 16000
    assert len(data.ears) == len(cohort)
    for orig, loaded in zip(cohort, data.ears):
        assert loaded.subject_id == orig.subject_id
        for name, resp in orig.responses().items():
            assert np.array_equal(loaded.responses()[name].samples, resp.samples)
    assert data.dummy is not None
    assert np.array_equal(data.dummy.d_true.samples, dummy.d_true.samples)


def test_manifest_save_is_idempotent(tmp_path):
    cohort = synth_cohort(SMALL)
    save_cohort(cohort, tmp_path / "a")
    save_cohort(cohort, tmp_path / "b")
    for rel in ["manifest.json", "ears/ear00/h_m.csv", "ears/ear02/d_model.csv"]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_manifest_with_missing_receiver_entries(tmp_path):
    cohort = synth_cohort(SMALL)
    trimmed = [
        dataclasses.replace(e, d_true=None, d_inear=None, d_model=None) for e in cohort
    ]
    manifest = save_cohort(trimmed, tmp_path)
    data = load_manifest(manifest)
    assert data.ears[0].d_true is None
    with pytest.raises(ValueError, match="d_true"):
        data.ears[0].require("d_true")


def test_manifest_rejects_missing_core_response(tmp_path):
    cohort = synth_cohort(SMALL)
    manifest = save_cohort(cohort, tmp_path)
    text = manifest.read_text()
    broken = text.replace('"h_occ": "ears/ear00/h_occ.csv",', "")
    manifest.write_text(broken)
    with pytest.raises(ValueError, match="h_occ"):
        load_manifest(manifest)


@pytest.mark.parametrize("bad_id", ["", ".", "..", "a/b", "a\\b", "a\0b"])
def test_manifest_rejects_ids_that_are_not_plain_file_names(tmp_path, bad_id):
    manifest = save_cohort(synth_cohort(SMALL), tmp_path)
    data = json.loads(manifest.read_text())
    data["subjects"][1]["id"] = bad_id
    manifest.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="plain file name"):
        load_manifest(manifest)


def test_manifest_ears_are_read_once_on_first_use(tmp_path, monkeypatch):
    manifest = save_cohort(synth_cohort(SMALL), tmp_path)
    read = []
    load = cohort_mod.load_impulse
    monkeypatch.setattr(cohort_mod, "load_impulse", lambda *a: read.append(a) or load(*a))
    data = load_manifest(manifest)
    assert read == [] and data.subject_ids == ("ear00", "ear01", "ear02")
    assert data.ear("ear01") is data.ear("ear01") and len(read) == 6
    assert data.ears[1] is data.ear("ear01") and len(read) == 18
    with pytest.raises(ValueError, match="'ghost' is not in the cohort"):
        data.ear("ghost")


def test_a_csv_cli_session_leaves_scipy_signal_stats_and_io_unloaded(tmp_path):
    # scipy.signal (with scipy.stats) was most of the package's import time, and scipy.io
    # serves only WAV reads: synth, design and evaluate on a CSV manifest load none of them.
    src = str(Path(cohort_mod.__file__).resolve().parents[1])
    code = f"""
import json, sys
from pathlib import Path
from eqforge.cli import main
out = Path({str(tmp_path)!r})
Path(out / "c.json").write_text(json.dumps({{"cohort": {{"synth": {{"n_subjects": 3}}}}}}))
m = str(out / "cohort" / "manifest.json")
assert main(["synth", "--config", str(out / "c.json"), "--out", str(out / "cohort")]) == 0
assert main(["design", "--manifest", m, "--subject", "ear01", "--condition", "PracticalOptimal",
             "--out", str(out / "f.json")]) == 0
assert main(["evaluate", "--manifest", m, "--subject", "ear01", "--filter", str(out / "f.json"),
             "--out", str(out / "eval")]) == 0
print([name for name in ("scipy.signal", "scipy.stats", "scipy.io") if name in sys.modules])
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip().splitlines()[-1] == "[]"
    assert len(list((tmp_path / "eval").glob("eval_ear01__dG*.json"))) == 1
