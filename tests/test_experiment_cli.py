import contextlib
import dataclasses
import hashlib
import io
import json
import re
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from eqforge import cohort as cohort_mod
from eqforge.cli import main
from eqforge.cohort import (
    RESPONSE_KEYS,
    EarDataset,
    SynthCohortParams,
    load_manifest,
    save_cohort,
    synth_cohort,
    synth_dummy_ear,
)
from eqforge.conditions import CONDITION_NAMES, condition_named, design_for_condition
from eqforge.design import EqDesignConfig, EqFilter, filter_from_json, filter_to_json
from eqforge.experiment import run_experiment
from eqforge.signals import ImpulseResponse, write_impulse_csv


def tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def write_params(tmp_path, **overrides):
    """A config file whose `cohort.synth` is a 3-ear cohort at seed 11, updated by `overrides`."""
    return write_config(tmp_path, {"cohort": {"synth": {"n_subjects": 3, "seed": 11, **overrides}}})


# --- synth -----------------------------------------------------------------------

def test_synth_is_idempotent(tmp_path):
    params = write_params(tmp_path)
    assert main(["synth", "--config", str(params), "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", "--config", str(params), "--out", str(tmp_path / "b")]) == 0
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_synth_seed_42_ears_are_pinned(tmp_path):
    # Digest of the seed-42 ear CSVs, recorded while scipy's sosfilt and butter built them.
    assert main(["synth", "--seed", "42", "--out", str(tmp_path)]) == 0
    assert tree_digest(tmp_path / "ears") == (
        "128de75bdd8b44c937cc0111c14562a93df6458510a349c736970b57eadc327c")


def test_synth_default_cohort_has_12_subjects(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "c")]) == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert len(manifest["subjects"]) == 12
    assert manifest["dummy"]["id"] == "dummy"


def test_synth_zero_model_error_duplicates_truth_files(tmp_path):
    params = write_params(tmp_path, model_error_db=0.0)
    out = tmp_path / "degen"
    assert main(["synth", "--config", str(params), "--out", str(out)]) == 0
    for subject in json.loads((out / "manifest.json").read_text())["subjects"]:
        d_true = (out / subject["d_true"]).read_bytes()
        d_model = (out / subject["d_model"]).read_bytes()
        assert d_true == d_model


def test_synth_seed_flag_overrides_params(tmp_path):
    params = write_params(tmp_path)
    main(["synth", "--config", str(params), "--out", str(tmp_path / "s11")])
    main(["synth", "--config", str(params), "--seed", "12", "--out", str(tmp_path / "s12")])
    assert tree_digest(tmp_path / "s11") != tree_digest(tmp_path / "s12")


REMOVED_SYNTH_KEYS = ("sample_rate_hz", "resonance_bands", "canal_delay_range",
                      "occlusion_depth_db", "occlusion_cutoff_hz", "ear_ir_length",
                      "receiver_ir_length", "coloring_ir_length")


@pytest.mark.parametrize("args, message", [
    (["--seed", "-1"], "seed must be nonnegative, got -1"),
    ({"n_subjects": 2.5}, '"n_subjects" must be an integer, got 2.5'),
    ({"n_subjects": 1001}, "n_subjects must be in [2, 1000]"),
    (lambda tmp_path: ["--config", str(write_config(tmp_path, {"cohort": {"manifest": "m.json"}}))],
     '`synth` synthesizes a cohort from "cohort.synth"; it cannot take "cohort.manifest"'),
    *[({key: 1}, f'unknown key {key!r} in "cohort.synth"') for key in REMOVED_SYNTH_KEYS],
], ids=["negative-seed", "n_subjects-a-float", "n_subjects-too-many", "synth-with-manifest",
        *[f"removed-{key}" for key in REMOVED_SYNTH_KEYS]])
def test_bad_synth_parameters_print_one_error_line(tmp_path, capsys, args, message):
    if isinstance(args, dict):
        args = ["--config", str(write_params(tmp_path, **args))]
    elif callable(args):
        args = args(tmp_path)
    before = set(tmp_path.rglob("*"))
    assert main(["synth", *args, "--out", str(tmp_path / "never")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert set(tmp_path.rglob("*")) == before


def test_resonance_centers_above_nyquist_are_capped():
    # A large inear_mismatch_db shifts centers past Nyquist, where the uncapped cascade overflows.
    above = cohort_mod._resonator_ir([(20000.0, 0.5, 12.0)], 2, 128)
    at_cap = cohort_mod._resonator_ir([(7200.0, 0.5, 12.0)], 2, 128)
    assert np.array_equal(above.samples, at_cap.samples)


# --- design ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def degenerate_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("degen_cohort")
    params = SynthCohortParams(n_subjects=3, seed=5)
    ears = [
        dataclasses.replace(e, d_inear=e.d_true, d_model=e.d_true)
        for e in synth_cohort(params)
    ]
    return save_cohort(ears, root, dummy=synth_dummy_ear(params))


def test_design_conditions_coincide_on_degenerate_cohort(tmp_path, degenerate_manifest):
    out_a = tmp_path / "optimal.json"
    out_b = tmp_path / "model.json"
    base = ["design", "--manifest", str(degenerate_manifest), "--subject", "ear00",
            "--delay", "16"]
    assert main(base + ["--condition", "Optimal", "--out", str(out_a)]) == 0
    assert main(base + ["--condition", "ModelBased", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_design_huge_lambda_flag(tmp_path, degenerate_manifest):
    out = tmp_path / "crushed.json"
    assert main([
        "design", "--manifest", str(degenerate_manifest), "--subject", "ear01",
        "--condition", "Optimal", "--lambda", "1e12", "--out", str(out),
    ]) == 0
    data = json.loads(out.read_text())
    assert data["lambda"] == 1e12
    scale = data["normal_eq_scale"]
    assert max(abs(c) for c in data["coefficients"]) <= 1e-6 * (1.0 + scale)


def test_design_round_trip_matches_recomputation(tmp_path, degenerate_manifest):
    out = tmp_path / "filter.json"
    assert main([
        "design", "--manifest", str(degenerate_manifest), "--subject", "ear02",
        "--condition", "PracticalOptimal", "--delay", "96", "--out", str(out),
    ]) == 0
    stored = filter_from_json(json.loads(out.read_text()))
    data = load_manifest(degenerate_manifest)
    cfg = EqDesignConfig(device_delay=96)
    redesigned = design_for_condition(data, "ear02", condition_named("PracticalOptimal"), cfg)
    assert np.allclose(stored.coefficients, redesigned.coefficients, atol=1e-12)
    assert stored.residual_norm == pytest.approx(redesigned.residual_norm, rel=1e-12)
    assert stored.penalty_norm == pytest.approx(redesigned.penalty_norm, rel=1e-12)


def test_design_missing_subject_fails_cleanly(tmp_path, degenerate_manifest, capsys):
    rc = main([
        "design", "--manifest", str(degenerate_manifest), "--subject", "ghost",
        "--condition", "Optimal", "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 1
    assert "ghost" in capsys.readouterr().err


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=6,
)
WEIGHTING = st.fixed_dictionaries({}, optional={
    "mode": JSON | st.sampled_from(["identity", "fir"]),
    "fir_taps": JSON | st.lists(st.floats(-4.0, 4.0), max_size=4),
})
DESIGN = st.fixed_dictionaries({}, optional={
    "L_a": JSON | st.integers(-2, 600),
    "lambda": JSON | st.floats(0.0, 10.0),
    "L_d": JSON | st.integers(-2, 600),
    "weighting": JSON | WEIGHTING,
})


@given(design=DESIGN, condition=st.sampled_from(CONDITION_NAMES))
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_design_section_fuzz_exits_0_or_prints_one_error_line(
        design, condition, degenerate_manifest, tmp_path_factory):
    root = tmp_path_factory.getbasetemp()
    config = root / "fuzz_config.json"
    config.write_text(json.dumps({"design": design}))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["design", "--manifest", str(degenerate_manifest), "--subject", "ear00",
                   "--condition", condition, "--config", str(config),
                   "--out", str(root / "fuzz_filter.json")])
    err = stderr.getvalue().splitlines()
    assert (rc, err) == (0, []) or (rc == 1 and len(err) == 1 and err[0].startswith("error: "))


# Values in or near each synth parameter's range. The cohort size is always
# given, since its default of 12 ears would make the fuzz slow.
SYNTH_VALUES = {
    "seed": st.integers(-2, 2**64),
    "inear_mismatch_db": st.floats(-1.0, 12.0),
    "model_error_db": st.floats(-1.0, 12.0),
}

SYNTH_CAPS = {"n_subjects": 4}


@given(synth=st.fixed_dictionaries({"n_subjects": st.integers(1, 4)}, optional=SYNTH_VALUES),
       junk=st.none() | st.tuples(st.sampled_from(["n_subjects", *SYNTH_VALUES, "typo"]), JSON))
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_synth_section_fuzz_exits_0_or_prints_one_error_line(synth, junk, tmp_path_factory):
    # At most one key holds an arbitrary JSON value; bare JSON integers are
    # unbounded, so the cohort size is capped to stay small.
    if junk is not None:
        key, value = junk
        capped = key in SYNTH_CAPS and type(value) is int
        synth[key] = min(value, SYNTH_CAPS[key]) if capped else value
    root = tmp_path_factory.getbasetemp()
    path = root / "fuzz_synth.json"
    path.write_text(json.dumps({"cohort": {"synth": synth}}))
    _exits_0_or_prints_one_error_line(["synth", "--config", str(path),
                                       "--out", str(root / "fuzz_cohort")])


def test_a_line_break_in_a_quoted_path_stays_on_the_error_line(tmp_path, capsys):
    assert main(["design", "--manifest", str(tmp_path / "a\nb\x0c.json"), "--subject", "ear00",
                 "--condition", "Optimal", "--out", str(tmp_path / "f.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: manifest not found: ")


def test_unwritable_out_fails_cleanly(tmp_path, degenerate_manifest, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    filter_path = tmp_path / "f.json"
    base = ["--manifest", str(degenerate_manifest), "--subject", "ear00"]
    design = ["design", *base, "--condition", "Optimal"]
    assert main([*design, "--out", str(filter_path)]) == 0
    for args in ([*design, "--out", str(blocker / "x.json")],
                 ["evaluate", *base, "--filter", str(filter_path), "--out", str(blocker)]):
        capsys.readouterr()
        assert main(args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write")


# --- experiment --------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("small_cohort")
    params = SynthCohortParams(n_subjects=3, seed=11)
    return save_cohort(synth_cohort(params), root, dummy=synth_dummy_ear(params),
                       params=params)


def test_experiment_grid_files_and_determinism(tmp_path, small_manifest):
    out = tmp_path / "exp"
    args = [
        "experiment", "--manifest", str(small_manifest),
        "--conditions", "Optimal,GenericDH,PracticalOptimal",
        "--delays", "0,96", "--out", str(out),
    ]
    assert main(args) == 0
    run_files = sorted(p.name for p in (out / "runs").iterdir())
    assert len(run_files) == 3 * 3 * 2 * 2  # subjects x conditions x delays x (csv+json)
    assert (out / "summary.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "ranking.csv").exists()

    first = tree_digest(out)
    assert main(args) == 0  # overwrite in place
    assert tree_digest(out) == first


def test_experiment_summary_carries_requested_delay(tmp_path, small_manifest):
    out = tmp_path / "exp96"
    assert main([
        "experiment", "--manifest", str(small_manifest),
        "--conditions", "Optimal", "--delays", "96", "--out", str(out),
    ]) == 0
    rows = (out / "summary.csv").read_text().strip().splitlines()
    assert rows[0] == "condition,d_G,mean_lsd_db,sd_lsd_db,n_subjects"
    assert all(line.split(",")[1] == "96" for line in rows[1:])
    data = json.loads((out / "summary.json").read_text())
    assert {row["d_G"] for row in data["rows"]} == {96}
    assert len(data["per_subject"]) == 3


def test_experiment_isolates_per_run_failures(tmp_path):
    # a manifest without a dummy ear makes every GenericDH run fail
    root = tmp_path / "nodummy"
    params = SynthCohortParams(n_subjects=3, seed=11)
    manifest = save_cohort(synth_cohort(params), root)
    out = tmp_path / "exp_fail"
    rc = main([
        "experiment", "--manifest", str(manifest),
        "--conditions", "Optimal,GenericDH", "--delays", "16", "--out", str(out),
    ])
    assert rc == 1
    data = json.loads((out / "summary.json").read_text())
    assert len(data["failures"]) == 3
    assert all(f["condition"] == "GenericDH" for f in data["failures"])
    optimal_runs = [r for r in data["per_subject"] if r["condition"] == "Optimal"]
    assert len(optimal_runs) == 3
    assert (out / "runs" / "ear00__Optimal__dG16.csv").exists()


def test_an_ill_conditioned_rtf_system_fails_with_one_error_line(tmp_path, small_manifest,
                                                                 capsys):
    # A quintuple zero at z = 1 in ear00's h_m puts its own RTF systems past
    # the condition limit; pooled with the other ears they stay solvable.
    h_m = tmp_path / "h_m.csv"
    write_impulse_csv(ImpulseResponse([1.0, -5.0, 10.0, -10.0, 5.0, -1.0], 16000), h_m)
    variant = _manifest_variant(tmp_path, small_manifest,
                                lambda d: d["subjects"][0].update(h_m=str(h_m)))
    assert main(["design", *variant, "--subject", "ear00", "--condition", "Optimal",
                 "--out", str(tmp_path / "never.json")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: RTF estimate: ")
    assert "condition estimate" in err[0]
    assert not (tmp_path / "never.json").exists()

    out = tmp_path / "grid"
    assert main(["experiment", *variant, "--conditions", "Optimal,PracticalOptimal",
                 "--delays", "16", "--out", str(out)]) == 1
    data = json.loads((out / "summary.json").read_text())
    assert [(f["subject_id"], f["condition"]) for f in data["failures"]] == [("ear00", "Optimal")]
    assert "SingularSystemError" in data["failures"][0]["error"]
    assert "condition estimate" in data["failures"][0]["error"]
    assert len(data["per_subject"]) == 5


def test_experiment_rerun_with_fewer_conditions_leaves_no_stale_runs(tmp_path, small_manifest):
    out = tmp_path / "rerun"
    args = ["experiment", "--manifest", str(small_manifest), "--delays", "16",
            "--out", str(out)]
    assert main([*args, "--conditions", "Optimal,GenericDH"]) == 0
    (out / "notes.txt").write_text("not a run file\n")
    assert main([*args, "--conditions", "Optimal"]) == 0
    records = json.loads((out / "summary.json").read_text())["per_subject"]
    assert len(records) == 3
    run_files = sorted(p.name for p in (out / "runs").iterdir())
    assert run_files == sorted(f"{r['subject']}__Optimal__dG16.{ext}"
                               for r in records for ext in ("csv", "json"))
    assert (out / "notes.txt").read_text() == "not a run file\n"


def test_experiment_config_file_with_flag_override(tmp_path, small_manifest):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "cohort": {"manifest": str(small_manifest)},
        "conditions": ["Optimal"],
        "delays": [0, 16],
        "design": {"L_a": 40, "lambda": 0.1, "L_d": 32},
    }))
    out = tmp_path / "cfg_run"
    assert main(["experiment", "--config", str(config), "--delays", "96",
                 "--out", str(out)]) == 0
    data = json.loads((out / "summary.json").read_text())
    assert {row["d_G"] for row in data["rows"]} == {96}  # flag beat the config
    run = json.loads((out / "runs" / "ear00__Optimal__dG96.json").read_text())
    assert run["filter"]["L_a"] == 40  # config beat the default


def test_experiment_exclude_subject(tmp_path, small_manifest):
    out = tmp_path / "excl"
    assert main([
        "experiment", "--manifest", str(small_manifest), "--conditions", "Optimal",
        "--delays", "0", "--exclude-subject", "ear01", "--out", str(out),
    ]) == 0
    data = json.loads((out / "summary.json").read_text())
    subjects = {row["subject"] for row in data["per_subject"]}
    assert subjects == {"ear00", "ear02"}


def test_perfect_knowledge_run_is_numerically_transparent(tmp_path):
    # Pass-through mic and receiver, negligible leak: with lam = 0 the whole
    # pipeline should equalize to within numerical precision.
    rng = np.random.default_rng(3)
    ears = []
    for i in range(2):
        delta = ImpulseResponse([1.0], 16000)
        h_open = ImpulseResponse(
            np.concatenate([[1.0], 0.2 * rng.standard_normal(40)]), 16000
        )
        h_occ = ImpulseResponse(h_open.samples * 1e-9, 16000)
        ears.append(EarDataset(f"p{i}", h_m=delta, h_open=h_open, h_occ=h_occ,
                               d_true=delta, d_inear=delta, d_model=delta))
    manifest = save_cohort(ears, tmp_path / "ideal")
    out = tmp_path / "run"
    assert main([
        "experiment", "--manifest", str(manifest), "--conditions", "Optimal",
        "--delays", "96", "--lambda", "0", "--out", str(out),
    ]) == 0
    data = json.loads((out / "summary.json").read_text())
    assert data["rows"][0]["mean_lsd_db"] <= 1e-6


def _malformed_config(tmp_path, manifest):
    config = tmp_path / "broken.json"
    config.write_text('{"delays": [0,')
    return ["--config", str(config)]


def _manifest_variant(tmp_path, manifest, edit):
    data = json.loads(manifest.read_text())
    edit(data)
    for entry in data["subjects"] + [data["dummy"]]:
        for key, value in entry.items():
            if key != "id":
                entry[key] = str(manifest.parent / value)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(data))
    return ["--manifest", str(path)]


def _without_h_m(tmp_path, manifest):
    return _manifest_variant(tmp_path, manifest, lambda d: d["subjects"][0].pop("h_m"))


def _duplicate_subject(tmp_path, manifest):
    return _manifest_variant(
        tmp_path, manifest, lambda d: d["subjects"].append(dict(d["subjects"][1])))


def _subject_named_dummy(tmp_path, manifest):
    return _manifest_variant(
        tmp_path, manifest, lambda d: d["subjects"][2].update(id=d["dummy"]["id"]))


def _config(data):
    def make_args(tmp_path, manifest):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(data))
        return ["--config", str(config)]
    return make_args


@pytest.mark.parametrize("make_args, message", [
    (_malformed_config, "invalid config file"),
    (_config({"rate": 8000}), "unknown key 'rate' in the config"),
    (_config({"cohort": {"synth": "x"}}), "\"cohort.synth\" must be an object"),
    (_config({"cohort": {"synth": [1]}}), "\"cohort.synth\" must be an object"),
    (_config({"cohort": {"manifest": 5}}), "\"cohort.manifest\" must be a string"),
    (_config({"cohort": "m.json"}), "\"cohort\" must be an object"),
    (_config({"conditions": ["Optimal"], "delays": [True]}), "got True"),
    (_config({"conditions": "Optimal"}), "\"conditions\" must be a list, got 'Optimal'"),
    (_config({"conditions": [["Optimal"]]}), "\"conditions\" must be a list of names"),
    (_config({"delays": 16}), "\"delays\" must be a list, got 16"),
    (_config({"design": "x"}), "\"design\" must be an object"),
    (_config({"design": {"weighting": "x"}}), "\"weighting\" must be an object"),
    (_config({"design": {"weighting": {"mode": "fir", "fir_taps": "12"}}}),
     "\"fir_taps\" must be a list of numbers"),
    (_config({"design": {"weighting": {"fir_taps": [1, -1]}}}),
     "fir_taps need mode 'fir', got mode 'identity'"),
    (_config({"design": {"L_a": 99.7}}), "\"L_a\" must be an integer, got 99.7"),
    (_config({"design": {"L_a": True}}), "\"L_a\" must be an integer, got True"),
    (_config({"design": {"L_a": 10**9}}), "filter_length must be in [1, 512]"),
    (_config({"design": {"lambda": "0.5"}}), "\"lambda\" must be a number"),
    (_config({"design": {"lambda": float("inf")}}), "lam must be finite"),
    (_without_h_m, "h_m"),
    (_duplicate_subject, "duplicate subject IDs ['ear01']"),
    (_subject_named_dummy, "duplicate subject IDs ['dummy']"),
    (lambda tmp_path, manifest: _manifest_variant(
        tmp_path, manifest, lambda d: d["subjects"][0].update(id=["ear00"])),
     '"id" must be a string, got [\'ear00\']'),
    (lambda tmp_path, manifest: _manifest_variant(
        tmp_path, manifest, lambda d: d["subjects"][0].update(id="../../escaped")),
     '"id" must be a plain file name, got \'../../escaped\''),
    *[(lambda tmp_path, manifest, rate=rate: _manifest_variant(
        tmp_path, manifest, lambda d: d.update(sample_rate_hz=rate)),
       f'"sample_rate_hz" must be an integer, got {rate!r}') for rate in (16000.9, True, "16000")],
    (lambda tmp_path, manifest: ["--manifest", str(manifest),
                                 "--conditions", "Optimal,Bogus"], "'Bogus'"),
    (lambda tmp_path, manifest: ["--manifest", str(manifest), "--delays", "-5"], "-5"),
    (lambda tmp_path, manifest: ["--manifest", str(manifest), "--delays", "16,513"],
     "device_delay must be in [0, 512], got 513"),
    (_config({"design": {"d_G": 513}}), "device_delay must be in [0, 512], got 513"),
    (_config({"design": {"d_G": 5}}), 'takes its delays from "delays" or --delays'),
    (lambda tmp_path, manifest: _manifest_variant(
        tmp_path, manifest, lambda d: d.update(sample_rate_hz=8000)),
     "a cohort at 8000 Hz cannot be scored: the 100-7000 Hz evaluation band"),
    (_config({"design": {"lamda": 50}}), "unknown key 'lamda' in \"design\""),
    (_config({"desing": {"L_a": 40}, "delays": [3]}), "unknown key 'desing' in the config"),
    (_config({"cohort": {"manifets": "m.json"}}), "unknown key 'manifets' in \"cohort\""),
    (_config({"design": {"weighting": {"mode": "fir", "taps": [1]}}}),
     "unknown key 'taps' in \"weighting\""),
    (_config({"workers": 2}), "unknown key 'workers' in the config"),
    (lambda tmp_path, manifest: ["--seed", "3", "--manifest", str(tmp_path / "no-manifest.json")],
     "--seed sets the seed of a synthesized cohort; it cannot go with a manifest"),
    (lambda tmp_path, manifest: ["--seed", "3", *_config({"cohort": {"manifest": str(manifest)}})(
        tmp_path, manifest)], "--seed sets the seed of a synthesized cohort"),
    (_config({"cohort": {"manifest": "m.json", "synth": {"n_subjects": 2}}}),
     '"cohort" holds both "manifest" and "synth"'),
], ids=["malformed-config", "rate-key", "synth-a-string", "synth-a-list",
        "manifest-a-number", "cohort-a-string", "delay-a-bool", "conditions-a-string",
        "condition-a-list", "delays-a-number", "design-a-string",
        "weighting-a-string", "fir_taps-a-string", "fir_taps-without-fir-mode", "L_a-a-float",
        "L_a-a-bool", "L_a-too-long", "lambda-a-string", "lambda-infinite", "entry-without-h_m",
        "duplicate-id", "id-of-dummy", "id-a-list", "id-escapes-out", "rate-a-float",
        "rate-a-bool", "rate-a-string", "unknown-condition", "negative-delay",
        "delay-too-long", "config-d_G-too-long", "config-d_G", "rate-below-14-khz",
        "unknown-design-key", "unknown-top-level-key", "unknown-cohort-key",
        "unknown-weighting-key", "workers-key", "seed-with-manifest", "seed-with-config-manifest",
        "manifest-and-synth"])
def test_experiment_bad_input_fails_before_the_grid(tmp_path, small_manifest, capsys,
                                                     make_args, message):
    out = tmp_path / "never"
    args = make_args(tmp_path, small_manifest)
    before = set(tmp_path.rglob("*"))
    rc = main(["experiment", *args, "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not out.exists()
    assert set(tmp_path.rglob("*")) == before


def test_manifest_flag_overrides_a_config_synth_section(tmp_path, small_manifest):
    # The synthesized cohort would have no ear02, so only the manifest's cohort can pass.
    config = write_params(tmp_path, n_subjects=2)
    assert main(["design", "--config", str(config), "--manifest", str(small_manifest),
                 "--subject", "ear02", "--condition", "Optimal",
                 "--out", str(tmp_path / "f.json")]) == 0


def test_design_rejects_an_unknown_config_key_before_the_cohort_loads(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"design": {"lamda": 50}}))
    rc = main(["design", "--manifest", str(tmp_path / "no-manifest.json"), "--subject", "ear00",
               "--condition", "Optimal", "--config", str(config),
               "--out", str(tmp_path / "f.json")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1 and len(err) == 1
    assert err[0].startswith("error: ") and "unknown key 'lamda' in \"design\"" in err[0]
    assert not (tmp_path / "f.json").exists()


def test_device_delay_over_512_fails_before_the_cohort_loads(tmp_path, capsys):
    # The manifest does not exist, so an error about it would mean it was read first.
    data = filter_to_json(EqFilter(np.zeros(99), EqDesignConfig(), 0.0, 0.0))
    filter_path = tmp_path / "late.json"
    filter_path.write_text(json.dumps({**data, "d_G": 513}))
    manifest = ["--manifest", str(tmp_path / "no-manifest.json")]
    for args in (["experiment", *manifest, "--delays", "513"],
                 ["design", *manifest, "--subject", "ear00", "--condition", "Optimal",
                  "--delay", "513"],
                 ["evaluate", *manifest, "--subject", "ear00", "--filter", str(filter_path)]):
        assert main([*args, "--out", str(tmp_path / "never")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "device_delay must be in [0, 512], got 513" in err[0]
    assert not (tmp_path / "never").exists()


def test_run_experiment_rejects_empty_requests(small_manifest, tmp_path):
    data = load_manifest(small_manifest)
    with pytest.raises(ValueError):
        run_experiment(data, [], [0], EqDesignConfig(), tmp_path / "x")
    with pytest.raises(ValueError):
        run_experiment(data, ["Optimal"], [], EqDesignConfig(), tmp_path / "y")


# --- evaluate ----------------------------------------------------------------------

def test_evaluate_round_trip(tmp_path, degenerate_manifest):
    filter_path = tmp_path / "f.json"
    assert main([
        "design", "--manifest", str(degenerate_manifest), "--subject", "ear00",
        "--condition", "Optimal", "--delay", "96", "--out", str(filter_path),
    ]) == 0
    out = tmp_path / "eval"
    assert main([
        "evaluate", "--manifest", str(degenerate_manifest), "--subject", "ear00",
        "--filter", str(filter_path), "--out", str(out),
    ]) == 0
    report = json.loads((out / "eval_ear00__dG96.json").read_text())
    assert report["d_G"] == 96
    assert report["lsd_db"] >= 0.0
    csv_lines = (out / "eval_ear00__dG96.csv").read_text().splitlines()
    assert csv_lines[0] == "frequency_hz,desired_db,aided_db,occluded_db"
    assert len(csv_lines) == 2050


def test_evaluate_writes_the_grid_report_of_the_same_filter(tmp_path, small_manifest):
    grid = tmp_path / "grid"
    assert main(["experiment", "--manifest", str(small_manifest), "--conditions", "ModelBased",
                 "--delays", "16", "--out", str(grid)]) == 0
    run = json.loads((grid / "runs" / "ear01__ModelBased__dG16.json").read_text())
    filter_path = tmp_path / "filter.json"
    filter_path.write_text(json.dumps(run["filter"]))
    out = tmp_path / "eval"
    args = ["evaluate", "--manifest", str(small_manifest), "--filter", str(filter_path),
            "--out", str(out)]
    assert main([*args, "--subject", "ear01"]) == 0
    assert ((out / "eval_ear01__dG16.csv").read_bytes()
            == (grid / "runs" / "ear01__ModelBased__dG16.csv").read_bytes())
    report = json.loads((out / "eval_ear01__dG16.json").read_text())
    assert list(report) == list(run)
    assert report["condition"] is None and report["responses_csv"] == "eval_ear01__dG16.csv"
    for key in ("subject", "d_G", "lsd_db", "band_errors_db", "filter"):
        assert report[key] == run[key]

    assert main([*args, "--subject", "dummy"]) == 0
    dummy = json.loads((out / "eval_dummy__dG16.json").read_text())
    assert dummy["subject"] == "dummy" and dummy["filter"] == run["filter"]
    assert dummy["lsd_db"] > 0.0 and dummy["lsd_db"] != report["lsd_db"]
    assert len((out / "eval_dummy__dG16.csv").read_text().splitlines()) == 2050


def test_evaluate_on_an_ear_without_d_true_fails_cleanly(tmp_path, small_manifest, capsys):
    filter_path = tmp_path / "zero.json"
    zero = EqFilter(np.zeros(99), EqDesignConfig(device_delay=16), 0.0, 0.0)
    filter_path.write_text(json.dumps(filter_to_json(zero)))
    variant = _manifest_variant(tmp_path, small_manifest, lambda d: d["subjects"][0].pop("d_true"))
    rc = main(["evaluate", *variant, "--subject", "ear00", "--filter", str(filter_path),
               "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ") and "d_true" in err[0]


@pytest.mark.parametrize("key, value", [("lambda", "0.1"), ("L_a", 99.0), ("weighting", None)])
def test_evaluate_rejects_filter_values_of_the_wrong_type(tmp_path, small_manifest, capsys,
                                                          key, value):
    data = filter_to_json(EqFilter(np.zeros(99), EqDesignConfig(), 0.0, 0.0))
    data[key] = value
    filter_path = tmp_path / "typed.json"
    filter_path.write_text(json.dumps(data))
    rc = main(["evaluate", "--manifest", str(small_manifest), "--subject", "ear00",
               "--filter", str(filter_path), "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ") and f'"{key}" must be' in err[0]


def test_evaluate_rejects_a_filter_with_an_unknown_key(tmp_path, small_manifest, capsys):
    data = filter_to_json(EqFilter(np.zeros(99), EqDesignConfig(), 0.0, 0.0))
    filter_path = tmp_path / "extra.json"
    filter_path.write_text(json.dumps({**data, "condition": "Optimal"}))
    rc = main(["evaluate", "--manifest", str(small_manifest), "--subject", "ear00",
               "--filter", str(filter_path), "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1 and not (tmp_path / "e").exists()
    assert len(err) == 1 and "unknown key 'condition' in the filter" in err[0]


def test_evaluate_missing_filter_fails_cleanly(tmp_path, degenerate_manifest, capsys):
    rc = main([
        "evaluate", "--manifest", str(degenerate_manifest), "--subject", "ear00",
        "--filter", str(tmp_path / "missing.json"), "--out", str(tmp_path / "e"),
    ])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


# --- manifest and response-CSV fuzzing ----------------------------------------------

CSV_LINE = (st.sampled_from(["sample", "", "  ", "1 2", "nan", "inf", "1e400", "1,2", "x"])
            | st.floats().map(repr) | st.text(max_size=4))
CSV_TEXT = (st.lists(CSV_LINE, max_size=6).map("\n".join)
            | st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40)
            .map(lambda xs: "sample\n" + "\n".join(map(repr, xs)) + "\n"))
MANIFEST_KEY = st.sampled_from(["sample_rate_hz", "subjects", "dummy"])
ENTRY_KEY = st.sampled_from(("id",) + RESPONSE_KEYS)
# (where, key, new value); a value of None deletes the key, "missing" names no file
EDIT = st.tuples(st.sampled_from(["manifest", "ear00", "ear01"]),
                 MANIFEST_KEY | ENTRY_KEY, st.none() | st.just("missing") | JSON)


@pytest.fixture(scope="module")
def fuzz_cohort(tmp_path_factory):
    """A 2-ear cohort, its manifest as a dict of absolute paths, and an Optimal filter."""
    root = tmp_path_factory.mktemp("fuzz_cohort")
    params = SynthCohortParams(n_subjects=2, seed=3)
    manifest = save_cohort(synth_cohort(params), root, dummy=synth_dummy_ear(params))
    data = json.loads(manifest.read_text())
    for entry in data["subjects"] + [data["dummy"]]:
        entry.update({k: str(root / v) for k, v in entry.items() if k != "id"})
    filter_path = root / "filter.json"
    assert main(["design", "--manifest", str(manifest), "--subject", "ear00",
                 "--condition", "Optimal", "--out", str(filter_path)]) == 0
    return data, filter_path


def _fuzzed_manifest(base, root, csv_key, csv, edits, whole):
    """`base` with ear00's `csv_key` pointing at `csv`, then `edits`, or `whole` instead."""
    data = json.loads(json.dumps(base))
    csv_path = root / "fuzzed.csv"
    (csv_path.write_bytes if isinstance(csv, bytes) else csv_path.write_text)(csv)
    data["subjects"][0][csv_key] = str(csv_path)
    entries = {"manifest": data, "ear00": data["subjects"][0], "ear01": data["subjects"][1]}
    for where, key, value in edits:
        if value is None:
            entries[where].pop(key, None)
        else:
            entries[where][key] = str(root / "no-such.csv") if value == "missing" else value
    manifest = root / "manifest.json"
    manifest.write_text(json.dumps(data if whole is None else whole))
    return manifest


def _exits_0_or_prints_one_error_line(argv):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv)
    err = stderr.getvalue().splitlines()
    assert (rc, err) == (0, []) or (rc == 1 and len(err) == 1 and err[0].startswith("error: "))


FUZZED_MANIFEST = dict(csv_key=st.sampled_from(RESPONSE_KEYS),
                       csv=CSV_TEXT | st.binary(max_size=8),
                       edits=st.lists(EDIT, max_size=2), whole=st.none() | JSON)


@given(**FUZZED_MANIFEST)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_manifest_and_csv_fuzz_exits_0_or_prints_one_error_line(
        csv_key, csv, edits, whole, fuzz_cohort, tmp_path_factory):
    base, filter_path = fuzz_cohort
    root = tmp_path_factory.getbasetemp() / "fuzz_inputs"
    root.mkdir(exist_ok=True)
    manifest = _fuzzed_manifest(base, root, csv_key, csv, edits, whole)
    _exits_0_or_prints_one_error_line([
        "evaluate", "--manifest", str(manifest), "--subject", "ear00",
        "--filter", str(filter_path), "--out", str(root / "eval")])


@given(**FUZZED_MANIFEST, subject=st.sampled_from(["ear00", "ear01"]),
       condition=st.sampled_from(["Optimal", "PracticalOptimal"]))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_manifest_and_csv_fuzz_through_design_exits_0_or_prints_one_error_line(
        csv_key, csv, edits, whole, subject, condition, fuzz_cohort, tmp_path_factory):
    # Optimal on ear01 never reads the fuzzed ear00 file; PracticalOptimal reads both ears.
    root = tmp_path_factory.getbasetemp() / "fuzz_design_inputs"
    root.mkdir(exist_ok=True)
    manifest = _fuzzed_manifest(fuzz_cohort[0], root, csv_key, csv, edits, whole)
    _exits_0_or_prints_one_error_line([
        "design", "--manifest", str(manifest), "--subject", subject,
        "--condition", condition, "--out", str(root / "filter.json")])


# --- which response files a request reads -------------------------------------------

@pytest.fixture
def reads(monkeypatch):
    """The ear directory of every response file the cohort module reads."""
    seen = []
    load = cohort_mod.load_impulse

    def counted(path, rate):
        seen.append(Path(path).parent.name)
        return load(path, rate)

    monkeypatch.setattr(cohort_mod, "load_impulse", counted)
    return seen


def _read_ears(reads):
    """{ear: files read}; every ear has six response files, each read at most once."""
    return {ear: reads.count(ear) for ear in reads}


ALL_SIX = dict.fromkeys(["ear00", "ear01", "ear02"], 6)


@pytest.mark.parametrize("condition, read", [
    ("Optimal", {"ear01": 6}),
    ("GenericDH", {"ear01": 6, "dummy": 6}),
    ("PracticalOptimal", ALL_SIX),
    ("GenericAV", ALL_SIX),
], ids=["Optimal", "GenericDH", "PracticalOptimal", "GenericAV"])
def test_design_reads_only_the_ears_its_condition_uses(tmp_path, small_manifest, reads,
                                                       condition, read):
    assert main(["design", "--manifest", str(small_manifest), "--subject", "ear01",
                 "--condition", condition, "--out", str(tmp_path / "f.json")]) == 0
    assert _read_ears(reads) == read


def test_evaluate_reads_only_its_subject(tmp_path, small_manifest, reads):
    filter_path = tmp_path / "f.json"
    filter_path.write_text(json.dumps(filter_to_json(
        EqFilter(np.zeros(99), EqDesignConfig(), 0.0, 0.0))))
    for subject in ("ear02", "dummy"):
        reads.clear()
        assert main(["evaluate", "--manifest", str(small_manifest), "--subject", subject,
                     "--filter", str(filter_path), "--out", str(tmp_path / "e")]) == 0
        assert _read_ears(reads) == {subject: 6}


def test_a_bad_file_fails_the_requests_that_use_its_ear(tmp_path, small_manifest, reads,
                                                        capsys):
    corrupt = tmp_path / "ear02" / "h_occ.csv"
    corrupt.parent.mkdir()
    corrupt.write_text("sample\n1 2\n")
    bad_csv = _manifest_variant(tmp_path, small_manifest,
                                lambda d: d["subjects"][2].update(h_occ=str(corrupt)))
    design = ["design", *bad_csv, "--subject", "ear01", "--out", str(tmp_path / "f.json")]
    assert main([*design, "--condition", "Optimal"]) == 0
    capsys.readouterr()
    assert main([*design, "--condition", "PracticalOptimal"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read subject 'ear02'")
    assert "h_occ.csv" in err[0] and "could not convert string to float: '1 2'" in err[0]
    # The grid reads every ear first, so the file fails the run, not its cells.
    assert main(["experiment", *bad_csv, "--out", str(tmp_path / "grid")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read subject 'ear02'")
    assert not (tmp_path / "grid").exists()

    # A missing file fails every request up front, before any response is read.
    missing = _manifest_variant(tmp_path, small_manifest,
                                lambda d: d["subjects"][2].update(d_model="no-such.csv"))
    reads.clear()
    assert main(["evaluate", *missing, "--subject", "ear00", "--filter", str(tmp_path / "f.json"),
                 "--out", str(tmp_path / "e")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "ear02" in err[0]
    assert "d_model file not found" in err[0] and reads == []


def test_exclude_subject_is_checked_against_the_manifest_ids(tmp_path, small_manifest, reads,
                                                              capsys):
    design = ["design", "--manifest", str(small_manifest), "--subject", "ear00",
              "--out", str(tmp_path / "f.json")]
    assert main([*design, "--condition", "Optimal", "--exclude-subject", "ear01"]) == 0
    assert _read_ears(reads) == {"ear00": 6}
    reads.clear()
    assert main([*design, "--condition", "PracticalOptimal", "--exclude-subject", "ear01"]) == 0
    assert _read_ears(reads) == {"ear00": 6, "ear02": 6}
    capsys.readouterr()
    assert main([*design, "--condition", "Optimal", "--exclude-subject", "ghost"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: --exclude-subject 'ghost'")


# --- command-line parsing -------------------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["synthesize"], "invalid choice: 'synthesize'"),
    (["synth", "--seeed", "3"], "unrecognized arguments: --seeed 3"),
    (["synth", "--seed"], "argument --seed: expected one argument"),
    (["synth", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["design", "--subject", "ear00", "--condition", "Optimal", "--lamda", "1"],
     "unrecognized arguments: --lamda 1"),
    (["design", "--subject", "ear00"], "the following arguments are required: --condition"),
    (["design", "--subject", "ear00", "--condition", "Bogus"],
     "argument --condition: invalid choice: 'Bogus'"),
    (["experiment", "--delyas", "16"], "unrecognized arguments: --delyas 16"),
    (["experiment", "--delays"], "argument --delays: expected one argument"),
    (["experiment", "--delays", "16,x"], "argument --delays: invalid _int_list value"),
    (["evaluate", "--subject", "ear00", "--filter", "f.json", "--manifst", "m.json"],
     "unrecognized arguments: --manifst m.json"),
    (["evaluate", "--subject", "ear00"], "the following arguments are required: --filter"),
    (["evaluate", "--subject", "ear00", "--filter", "f.json", "--condition", "Optimal"],
     "unrecognized arguments: --condition Optimal"),
    (["synth", "--exclude-subject", "ear01"], "unrecognized arguments: --exclude-subject ear01"),
    (["synth", "--params", "p.json"], "unrecognized arguments: --params p.json"),
    (["evaluate", "--subject", "ear00", "--filter", "f.json", "--exclude-subject", "ear01"],
     "unrecognized arguments: --exclude-subject ear01"),
    (["design", "--manifest", "m.json", "--seed", "99", "--subject", "ear00",
      "--condition", "Optimal"], "--seed sets the seed of a synthesized cohort"),
], ids=["no-command", "unknown-command", "synth-misspelt", "synth-missing-value",
        "synth-not-an-int", "design-misspelt", "design-missing-condition",
        "design-bad-condition", "experiment-misspelt", "experiment-missing-value",
        "experiment-bad-delays", "evaluate-misspelt", "evaluate-missing-filter",
        "evaluate-no-condition-flag", "synth-exclude-subject", "synth-params",
        "evaluate-exclude-subject", "design-seed-with-manifest"])
def test_argument_errors_print_one_error_line(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path / "never")] if argv else argv) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_an_unknown_eqforge_log_value_is_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EQFORGE_LOG", "verbose")
    assert main(["synth", "--seed", "3", "--out", str(tmp_path / "d")]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: EQFORGE_LOG must be one of debug, info, warning, error, got 'verbose'"]
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    monkeypatch.setenv("EQFORGE_LOG", "INFO")
    params = write_params(tmp_path)
    assert main(["synth", "--config", str(params), "--out", str(tmp_path / "d")]) == 0


@pytest.mark.parametrize("command", [[], ["synth"], ["design"], ["experiment"], ["evaluate"]])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: eqforge")


@pytest.mark.parametrize("command, options", [
    ("synth", ["--config", "--out", "--seed"]),
    ("design", ["--config", "--out", "--seed", "--manifest", "--exclude-subject", "--lambda",
                "--filter-length", "--lead", "--subject", "--condition", "--delay"]),
    ("experiment", ["--config", "--out", "--seed", "--manifest", "--exclude-subject",
                    "--lambda", "--filter-length", "--lead", "--conditions", "--delays"]),
    ("evaluate", ["--config", "--out", "--seed", "--manifest", "--subject", "--filter"]),
])
def test_each_command_lists_only_its_options(capsys, command, options):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert sorted(re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)) == sorted(options)
