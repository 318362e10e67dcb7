import concurrent.futures
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import logging
import os
import re
import signal
import tempfile
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings

from eqforge import cohort as cohort_mod
from eqforge import conditions, experiment, solvers
from eqforge.cli import build_parser, main
from eqforge.cohort import (
    RESPONSE_KEYS,
    CohortData,
    EarDataset,
    SynthCohortParams,
    load_manifest,
    save_cohort,
    synth_cohort,
    synth_dummy_ear,
)
from eqforge.conditions import CONDITION_NAMES, condition_named, design_for_condition
from eqforge.conditions import run_condition
from eqforge.design import FILTER_WIRE, EqDesignConfig, EqFilter, filter_from_json, filter_to_json
from eqforge.experiment import run_experiment
from eqforge.signals import ImpulseResponse, write_impulse_csv
from conftest import RATE


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
    """A config file whose "synth" section is a 3-ear cohort, updated by `overrides`."""
    return write_config(tmp_path, {"synth": {"n_subjects": 3, **overrides}})


# --- synth -----------------------------------------------------------------------

def test_synth_is_idempotent(tmp_path):
    args = ["synth", "--config", str(write_params(tmp_path)), "--seed", "11"]
    assert main([*args, "--out", str(tmp_path / "a")]) == 0
    assert main([*args, "--out", str(tmp_path / "b")]) == 0
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
    assert main(["synth", "--config", str(params), "--seed", "11", "--out", str(out)]) == 0
    for subject in json.loads((out / "manifest.json").read_text())["subjects"]:
        d_true = (out / subject["d_true"]).read_bytes()
        d_model = (out / subject["d_model"]).read_bytes()
        assert d_true == d_model


def test_synth_seed_flag_overrides_params(tmp_path):
    params = write_params(tmp_path)
    main(["synth", "--config", str(params), "--seed", "11", "--out", str(tmp_path / "s11")])
    main(["synth", "--config", str(params), "--seed", "12", "--out", str(tmp_path / "s12")])
    assert tree_digest(tmp_path / "s11") != tree_digest(tmp_path / "s12")


REMOVED_SYNTH_KEYS = ("sample_rate_hz", "resonance_bands", "canal_delay_range",
                      "occlusion_depth_db", "occlusion_cutoff_hz", "ear_ir_length",
                      "receiver_ir_length", "coloring_ir_length")


@pytest.mark.parametrize("args, message", [
    (["--seed", "-1"], "seed must be nonnegative, got -1"),
    ({"n_subjects": 2.5}, '"n_subjects" must be an integer, got 2.5'),
    ({"n_subjects": 1001}, "n_subjects must be in [2, 1000]"),
    (["--manifest", "m.json"], "unrecognized arguments: --manifest m.json"),
    (lambda tmp_path: ["--config", str(write_config(tmp_path, {"cohort": {"synth": {}}}))],
     "unknown key 'cohort' in the config of `synth`"),
    ({"seed": 11}, "unknown key 'seed' in \"synth\""),
    *[({key: 1}, f'unknown key {key!r} in "synth"') for key in REMOVED_SYNTH_KEYS],
    (lambda tmp_path: ["--config", str(write_config(tmp_path, {"synth": "x"}))],
     '"synth" must be an object'),
    (lambda tmp_path: ["--config", str(write_config(tmp_path, {"synth": [1]}))],
     '"synth" must be an object'),
    (lambda tmp_path: ["--config", str(write_config(tmp_path, {"synth": {"manifets": "m"}}))],
     "unknown key 'manifets' in \"synth\""),
], ids=["negative-seed", "n_subjects-a-float", "n_subjects-too-many", "synth-with-manifest",
        "old-cohort-key", "seed-in-config", *[f"removed-{key}" for key in REMOVED_SYNTH_KEYS],
        "synth-a-string", "synth-a-list", "unknown-synth-key"])
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
    config = write_config(tmp_path, {"design": {"lambda": 1e12}})
    assert main([
        "design", "--manifest", str(degenerate_manifest), "--subject", "ear01",
        "--condition", "Optimal", "--config", str(config), "--out", str(out),
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
WEIGHTING = st.lists(st.floats(-4.0, 4.0), max_size=4)
DESIGN = st.fixed_dictionaries({}, optional={
    "L_a": JSON | st.integers(-2, 600),
    "lambda": JSON | st.floats(0.0, 10.0),
    "L_d": JSON | st.integers(-2, 600),
    "weighting": JSON | WEIGHTING,
})


def test_design_section_fuzz_exits_0_or_prints_one_error_line(degenerate_manifest,
                                                               tmp_path_factory):
    root = tmp_path_factory.getbasetemp()
    config = root / "fuzz_config.json"
    codes = []

    @given(design=DESIGN, condition=st.sampled_from(CONDITION_NAMES))
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def run(design, condition):
        config.write_text(json.dumps({"design": design}))
        codes.append(_exits_0_or_prints_one_error_line([
            "design", "--manifest", str(degenerate_manifest), "--subject", "ear00",
            "--condition", condition, "--config", str(config),
            "--out", str(root / "fuzz_filter.json")]))

    run()
    assert 0 in codes  # some drawn configs are valid, so the fuzz reaches a design


# Values in or near each synth parameter's range. The cohort size is always
# given, since its default of 12 ears would make the fuzz slow.
SYNTH_VALUES = {
    "inear_mismatch_db": st.floats(-1.0, 12.0),
    "model_error_db": st.floats(-1.0, 12.0),
}

SYNTH_CAPS = {"n_subjects": 4}


def test_synth_section_fuzz_exits_0_or_prints_one_error_line(tmp_path_factory):
    root = tmp_path_factory.getbasetemp()
    path = root / "fuzz_synth.json"
    codes = []

    @given(synth=st.fixed_dictionaries({"n_subjects": st.integers(1, 4)}, optional=SYNTH_VALUES),
           seed=st.none() | st.integers(-2, 2**64),
           junk=st.none() | st.tuples(st.sampled_from(["n_subjects", *SYNTH_VALUES, "seed",
                                                       "typo"]), JSON))
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def run(synth, seed, junk):
        # At most one key holds an arbitrary JSON value; bare JSON integers are
        # unbounded, so the cohort size is capped to stay small.
        if junk is not None:
            key, value = junk
            capped = key in SYNTH_CAPS and type(value) is int
            synth[key] = min(value, SYNTH_CAPS[key]) if capped else value
        path.write_text(json.dumps({"synth": synth}))
        seed_flag = [] if seed is None else ["--seed", str(seed)]
        codes.append(_exits_0_or_prints_one_error_line(
            ["synth", "--config", str(path), *seed_flag, "--out", str(root / "fuzz_cohort")]))

    run()
    assert 0 in codes  # some drawn sections are valid, so the fuzz reaches the generator


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
    assert sorted(p.name for p in out.iterdir()) == ["runs", "summary.csv", "summary.json"]

    first = tree_digest(out)
    assert main(args) == 0  # overwrite in place
    assert tree_digest(out) == first


def test_experiment_summary_carries_requested_delay(tmp_path, small_manifest):
    out = tmp_path / "exp96"
    assert main([
        "experiment", "--manifest", str(small_manifest),
        "--conditions", "Optimal,GenericDH", "--delays", "96,16", "--out", str(out),
    ]) == 0
    lines = (out / "summary.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["d_G", "rank", "condition", "mean_lsd_db", "sd_lsd_db", "n_subjects"]
    data = json.loads((out / "summary.json").read_text())
    rows = data["rows"]
    assert [list(row) for row in rows] == [header] * len(rows)
    # the CSV and the JSON rows are one table, row for row, in the same order
    assert [dict(zip(header, (int(d), int(k), c, float(m), float(s), int(n))))
            for d, k, c, m, s, n in (line.split(",") for line in lines[1:])] == rows
    assert [row["d_G"] for row in rows] == [96, 96, 16, 16]
    for delay in (96, 16):
        ranked = [row for row in rows if row["d_G"] == delay]
        assert [row["rank"] for row in ranked] == [1, 2]
        assert {row["condition"] for row in ranked} == {"Optimal", "GenericDH"}
        means = [row["mean_lsd_db"] for row in ranked]
        assert means == sorted(means)
        assert all(row["n_subjects"] == 3 for row in ranked)
    assert len(data["per_subject"]) == 3 * 2 * 2


def test_a_grid_that_needs_a_missing_dummy_is_refused_before_it_writes(tmp_path, capsys):
    # Without a dummy ear no GenericDH cell can be designed, so the grid fails as a whole.
    # Per-cell isolation is for failures of the numbers: see the ill-conditioned RTF system.
    root = tmp_path / "nodummy"
    manifest = save_cohort(synth_cohort(SynthCohortParams(n_subjects=3, seed=11)), root)
    args = ["experiment", "--manifest", str(manifest), "--delays", "16"]
    out = tmp_path / "exp_fail"
    assert main([*args, "--conditions", "Optimal,GenericDH", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: condition GenericDH needs a dummy-head ear"]
    assert not out.exists()
    # Into an earlier grid's --out, the refusal changes no byte of it.
    assert main([*args, "--conditions", "Optimal", "--out", str(out)]) == 0
    before = tree_digest(out)
    assert main([*args, "--out", str(out)]) == 1
    assert tree_digest(out) == before


def _padded(tmp_path, manifest, key, n):
    """The manifest with ear01's response `key` zero-padded to `n` samples."""
    entry = json.loads(manifest.read_text())["subjects"][1]
    samples = np.loadtxt(manifest.parent / entry[key], skiprows=1)
    path = str(tmp_path / f"long_{key}.csv")
    write_impulse_csv(ImpulseResponse(np.concatenate([samples, np.zeros(n - samples.size)]),
                                      RATE), path)
    return _manifest_variant(tmp_path, manifest, lambda d: d["subjects"][1].update({key: path}))


TOO_LONG = "samples; the 4096-point spectra hold at most 4096"


def test_a_response_too_long_for_the_spectra_is_refused_before_the_grid(tmp_path, small_manifest,
                                                                         capsys):
    args = ["experiment", *_padded(tmp_path, small_manifest, "h_open", 5223),
            "--conditions", "Optimal,GenericDH", "--delays", "16"]
    assert main([*args, "--out", str(tmp_path / "never")]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: ear01: response h_open has 5223 {TOO_LONG}"]
    assert not (tmp_path / "never").exists()


def test_a_response_too_long_for_the_spectra_leaves_an_earlier_grid_in_place(tmp_path,
                                                                               small_manifest):
    out = tmp_path / "grid"
    assert main(["experiment", "--manifest", str(small_manifest), "--conditions",
                 "Optimal,GenericDH", "--delays", "16", "--out", str(out)]) == 0
    before = tree_digest(out)
    assert main(["experiment", *_padded(tmp_path, small_manifest, "h_occ", 5223),
                 "--conditions", "Optimal,GenericDH", "--delays", "16", "--out", str(out)]) == 1
    assert tree_digest(out) == before


def test_an_aided_path_too_long_for_the_spectra_is_refused_before_the_grid(tmp_path,
                                                                            small_manifest, capsys):
    # h_m fits the spectra, and so does ear01's aided path at d_G 0, but not at d_G 16.
    chain = EqDesignConfig().filter_length + len(load_manifest(small_manifest).ear("ear01").d_true)
    variant = _padded(tmp_path, small_manifest, "h_m", 4096 + 2 - chain - 8)
    assert main(["experiment", *variant, "--conditions", "Optimal", "--delays", "0,16",
                 "--out", str(tmp_path / "never")]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: ear01: the aided path has {4096 + 8} {TOO_LONG}"]
    assert not (tmp_path / "never").exists()


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
    config = write_config(tmp_path, {"design": {"lambda": 0}})
    out = tmp_path / "run"
    assert main([
        "experiment", "--manifest", str(manifest), "--conditions", "Optimal",
        "--delays", "96", "--config", str(config), "--out", str(out),
    ]) == 0
    data = json.loads((out / "summary.json").read_text())
    assert data["rows"][0]["mean_lsd_db"] <= 1e-6


def _malformed_config(tmp_path, manifest):
    config = tmp_path / "broken.json"
    config.write_text('{"delays": [0,')
    return ["--manifest", str(manifest), "--config", str(config)]


def _manifest_variant(tmp_path, manifest, edit):
    data = json.loads(manifest.read_text())
    for entry in data["subjects"] + [data["dummy"]]:
        for key, value in entry.items():
            if key != "id":
                entry[key] = str(manifest.parent / value)
    edit(data)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(data))
    return ["--manifest", str(path)]


def _manifest_text(tmp_path, text):
    path = tmp_path / "variant.json"
    path.write_text(text)
    return ["--manifest", str(path)]


def _without_h_m(tmp_path, manifest):
    return _manifest_variant(tmp_path, manifest, lambda d: d["subjects"][0].pop("h_m"))


def _duplicate_subject(tmp_path, manifest):
    return _manifest_variant(
        tmp_path, manifest, lambda d: d["subjects"].append(dict(d["subjects"][1])))


def _subject_named_dummy(tmp_path, manifest):
    return _manifest_variant(
        tmp_path, manifest, lambda d: d["subjects"][2].update(id=d["dummy"]["id"]))


def _subjects(value):
    def make_args(tmp_path, manifest):
        path = tmp_path / "variant.json"
        path.write_text(json.dumps({**json.loads(manifest.read_text()), "subjects": value}))
        return ["--manifest", str(path)]
    return make_args


# The refusal of a top-level key other than the design section: its value is a flag, a
# section that only `synth` reads, or nothing.
OLD_KEY = "unknown key '{}' in the config of `experiment`"


def _config(data):
    def make_args(tmp_path, manifest):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(data))
        return ["--manifest", str(manifest), "--config", str(config)]
    return make_args


@pytest.mark.parametrize("make_args, message", [
    (_malformed_config, "invalid config file"),
    (_config({"rate": 8000}), "unknown key 'rate' in the config"),
    (_config({"synth": "x"}), OLD_KEY.format("synth")),
    (_config({"synth": [1]}), OLD_KEY.format("synth")),
    (_config({"cohort": {"manifest": 5}}), OLD_KEY.format("cohort")),
    (_config({"cohort": "m.json"}), OLD_KEY.format("cohort")),
    (_config({"delays": [True]}), OLD_KEY.format("delays")),
    (_config({"conditions": "Optimal"}), OLD_KEY.format("conditions")),
    (_config({"conditions": [["Optimal"]]}), OLD_KEY.format("conditions")),
    (_config({"delays": 16}), OLD_KEY.format("delays")),
    (_config({"design": "x"}), "\"design\" must be an object"),
    (_config({"design": {"weighting": "x"}}), "\"weighting\" must be a list of numbers"),
    (_config({"design": {"weighting": {"mode": "identity"}}}),
     "\"weighting\" must be a list of numbers, got {'mode': 'identity'}"),
    (_config({"design": {"weighting": []}}), "weighting must form a nonempty, finite 1-D vector"),
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
    (_config({"design": {"d_G": 513}}), "unknown key 'd_G' in \"design\""),
    (_config({"design": {"d_G": 5}}), "unknown key 'd_G' in \"design\""),
    (lambda tmp_path, manifest: _manifest_variant(
        tmp_path, manifest, lambda d: d.update(sample_rate_hz=8000)),
     "a cohort at 8000 Hz cannot be scored: the 100-7000 Hz evaluation band"),
    (_config({"design": {"lamda": 50}}), "unknown key 'lamda' in \"design\""),
    (_config({"desing": {"L_a": 40}}), "unknown key 'desing' in the config"),
    (_config({"synth": {"manifets": "m.json"}}), OLD_KEY.format("synth")),
    (_config({"design": {"weighting": ["1"]}}),
     "\"weighting\" must be a list of numbers, got '1'"),
    (_config({"design": {"weighting": [True]}}),
     "\"weighting\" must be a list of numbers, got True"),
    (_config({"workers": 2}), "unknown key 'workers' in the config"),
    (_config({"cohort": {"manifest": "m.json", "synth": {"n_subjects": 2}}}),
     OLD_KEY.format("cohort")),
    (lambda tmp_path, manifest: ["--manifest", str(manifest), "--conditions", "Optimal,Optimal",
                                 "--delays", "0,0"], "condition 'Optimal' is given more than once"),
    (lambda tmp_path, manifest: ["--manifest", str(manifest), "--delays", "0,16,0"],
     "delay 0 is given more than once"),
    (_config({"conditions": ["GenericDH", "Optimal", "GenericDH"]}), OLD_KEY.format("conditions")),
    (_config({"conditions": []}), OLD_KEY.format("conditions")),
    (lambda tmp_path, manifest: ["--manifest", str(manifest), "--conditions", ","],
     "need at least one condition"),
    (_subjects([]), '"subjects" must be a nonempty list, got []'),
    (_subjects({}), '"subjects" must be a nonempty list, got {}'),
    (lambda tmp_path, manifest: _manifest_variant(
        tmp_path, manifest, lambda d: d.update(dummy=None)),
     '"dummy" must be an object, got None'),
    (lambda tmp_path, manifest: _manifest_variant(
        tmp_path, manifest, lambda d: d["subjects"].append("ear03")),
     '"subjects[3]" must be an object, got \'ear03\''),
    (lambda tmp_path, manifest: _manifest_variant(
        tmp_path, manifest, lambda d: d["subjects"][1].update(h_occ=5)),
     '"subjects[1].h_occ" must be a path, got 5'),
    (lambda tmp_path, manifest: _manifest_text(tmp_path, "[1, 2]"),
     '"manifest" must be an object, got [1, 2]'),
    *[(lambda tmp_path, manifest, path=path: _manifest_variant(
        tmp_path, manifest, lambda d: d["subjects"][1].update(h_occ=path(d["subjects"][1]))),
       "ear01: response h_occ file not found") for path in (
        lambda e: str(Path(e["h_occ"]).parent), lambda e: e["h_occ"] + "\0", lambda e: "",
        lambda e: e["h_occ"] + "/")],
    (lambda tmp_path, manifest: _manifest_variant(
        tmp_path, manifest, lambda d: d.update(dumy=d.pop("dummy"))),
     "unknown key 'dumy' in the manifest"),
    (lambda tmp_path, manifest: _manifest_variant(
        tmp_path, manifest, lambda d: d["subjects"][1].update(d_ture=d["subjects"][1]["d_true"])),
     "unknown key 'd_ture' in \"subjects[1]\""),
    (lambda tmp_path, manifest: _manifest_variant(
        tmp_path, manifest, lambda d: d["dummy"].update(name="KEMAR")),
     "unknown key 'name' in \"dummy\""),
    (lambda tmp_path, manifest: _manifest_variant(
        tmp_path, manifest, lambda d: d.update(synth_params=5)),
     '"synth_params" must be an object, got 5'),
    (lambda tmp_path, manifest: _manifest_variant(
        tmp_path, manifest, lambda d: d["synth_params"].update(n_subject=3)),
     "unknown key 'n_subject' in \"synth_params\""),
    (lambda tmp_path, manifest: _manifest_variant(tmp_path, manifest, lambda d: d.pop("dummy")),
     "condition GenericDH needs a dummy-head ear"),
    *[(lambda tmp_path, manifest, key=key: _manifest_variant(
        tmp_path, manifest, lambda d: d["subjects"][1].pop(key)),
       f"ear01: response {key} is not available") for key in ("d_model", "d_true")],
    (lambda tmp_path, manifest: [*_manifest_variant(
        tmp_path, manifest, lambda d: d.update(subjects=d["subjects"][:1])),
        "--conditions", "Optimal,PracticalOptimal"],
     "condition PracticalOptimal needs a cohort of at least 2 ears"),
], ids=["malformed-config", "rate-key", "synth-a-string", "synth-a-list",
        "manifest-a-number", "cohort-a-string", "delay-a-bool", "conditions-a-string",
        "condition-a-list", "delays-a-number", "design-a-string",
        "weighting-a-string", "weighting-an-object", "weighting-empty", "L_a-a-float",
        "L_a-a-bool", "L_a-too-long", "lambda-a-string", "lambda-infinite", "entry-without-h_m",
        "duplicate-id", "id-of-dummy", "id-a-list", "id-escapes-out", "rate-a-float",
        "rate-a-bool", "rate-a-string", "unknown-condition", "negative-delay",
        "delay-too-long", "config-d_G-too-long", "config-d_G", "rate-below-14-khz",
        "unknown-design-key", "unknown-top-level-key", "unknown-cohort-key",
        "weighting-a-string-tap", "weighting-a-bool-tap", "workers-key", "manifest-and-synth",
        "repeated-condition", "repeated-delay", "config-repeated-condition", "config-no-condition",
        "no-condition",
        "subjects-empty", "subjects-an-object", "dummy-null", "subject-a-string", "path-a-number",
        "manifest-a-list", "path-a-directory", "path-with-nul", "path-empty", "path-slash-ended",
        "manifest-misspelt-key", "entry-misspelt-key", "dummy-unknown-key",
        "synth_params-a-number", "synth_params-unknown-key", "no-dummy", "entry-without-d_model",
        "entry-without-d_true", "one-subject-leave-one-out"])
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


def test_absolute_response_paths_are_accepted(tmp_path, small_manifest):
    # The variant lies outside the cohort's directory and names every response absolutely.
    absolute = _manifest_variant(tmp_path, small_manifest, lambda d: None)
    design = ["design", "--subject", "ear01", "--condition", "ModelBased", "--delay", "16"]
    assert main([*design, *absolute, "--out", str(tmp_path / "absolute.json")]) == 0
    assert main([*design, "--manifest", str(small_manifest),
                 "--out", str(tmp_path / "relative.json")]) == 0
    assert (tmp_path / "absolute.json").read_bytes() == (tmp_path / "relative.json").read_bytes()


def test_repeated_main_calls_in_one_process_are_independent(tmp_path, small_manifest, capsys):
    base, filt = ["--manifest", str(small_manifest)], str(tmp_path / "filter.json")
    calls = [["experiment", *base, "--out", str(tmp_path / "grid")],
             ["design", *base, "--subject", "nobody", "--condition", "Optimal",
              "--out", str(tmp_path / "refused.json")],
             ["design", *base, "--subject", "ear01", "--condition", "ModelBased", "--delay", "16",
              "--out", filt],
             ["evaluate", *base, "--subject", "ear01", "--filter", filt,
              "--out", str(tmp_path / "eval")]]

    def session():
        outcomes = [(main(argv), capsys.readouterr()) for argv in calls]
        return outcomes, {p.relative_to(tmp_path).as_posix(): p.read_bytes()
                          for p in sorted(tmp_path.rglob("*")) if p.is_file()}

    first = session()
    assert [rc for rc, _ in first[0]] == [0, 1, 0, 0]
    assert "subject 'nobody' is not in the cohort" in first[0][1][1].err
    assert session() == first
    # The one parser's defaults cannot be changed by a call that receives them.
    args = build_parser().parse_args(["experiment", *base, "--out", "o"])
    assert args.conditions == CONDITION_NAMES and type(args.conditions) is tuple
    assert args.delays == (0, 1, 16, 96) and type(args.delays) is tuple
    assert build_parser() is build_parser()


@pytest.mark.parametrize("command, config, message", [
    (["synth"], {"design": {"L_a": 40}}, "unknown key 'design' in the config of `synth`"),
    (["synth"], {"conditions": ["Optimal"], "delays": [16]},
     "unknown key 'conditions' in the config of `synth`"),
    (["design", "--condition", "Optimal"], {"conditions": ["GenericDH"]},
     "unknown key 'conditions' in the config of `design`"),
    (["design", "--condition", "Optimal"], {"delays": [96]},
     "unknown key 'delays' in the config of `design`"),
    (["evaluate", "--filter", "f.json"], {"design": {"L_a": 40}},
     "unrecognized arguments: --config"),
    (["design", "--condition", "Optimal"], {"synth": {"n_subjects": 2}},
     "unknown key 'synth' in the config of `design`"),
], ids=["synth-design", "synth-conditions-delays", "design-conditions", "design-delays",
        "evaluate-design", "design-synth"])
def test_a_command_refuses_config_it_would_ignore(tmp_path, small_manifest, reads, capsys,
                                                  monkeypatch, command, config, message):
    monkeypatch.chdir(tmp_path)
    Path("f.json").write_text(json.dumps(filter_to_json(
        EqFilter(np.zeros(99), EqDesignConfig(), 0.0, 0.0, 0.0, 0.0, RATE))))
    cohort = ["--manifest", str(small_manifest), "--subject", "ear00"] * (command != ["synth"])
    argv = [*command, *cohort, "--config", str(write_config(tmp_path, config)), "--out", "out"]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not Path("out").exists() and reads == []


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
    data = filter_to_json(EqFilter(np.zeros(99), EqDesignConfig(), 0.0, 0.0, 0.0, 0.0, RATE))
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


@pytest.mark.parametrize("conditions, delays, message", [
    (["Optimal"], [600], "device_delay must be in [0, 512], got 600"),
    (["Optimal", "Bogus"], [0], "unknown condition 'Bogus'"),
    (["Optimal"], [0, 16, 0], "delay 0 is given more than once"),
], ids=["delay-600", "unknown-condition", "repeated-delay"])
def test_a_bad_library_request_leaves_an_earlier_grid_in_place(small_manifest, tmp_path, reads,
                                                               conditions, delays, message):
    out = tmp_path / "exp"
    run_experiment(load_manifest(small_manifest), ["Optimal"], [0], EqDesignConfig(), out)
    before = tree_digest(out)
    reads.clear()
    with pytest.raises(ValueError, match=re.escape(message)):
        run_experiment(load_manifest(small_manifest), conditions, delays, EqDesignConfig(), out)
    assert tree_digest(out) == before and all((out / name).exists() for name in SUMMARIES)
    assert reads == []


@pytest.mark.parametrize("cpus, n_subjects", [(1, 3), (4, 1)], ids=["one-cpu", "one-ear"])
def test_a_one_process_grid_creates_no_pool(tmp_path, small_manifest, monkeypatch, cpus,
                                            n_subjects):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was created")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    manifest = _manifest_variant(tmp_path, small_manifest,
                                 lambda d: d.update(subjects=d["subjects"][:n_subjects]))
    out = tmp_path / "exp"
    assert main(["experiment", *manifest, "--conditions", "Optimal,NaiveInEar", "--delays", "0",
                 "--out", str(out)]) == 0
    assert len(list((out / "runs").glob("*.csv"))) == 2 * n_subjects


def test_a_write_error_in_a_forked_share_is_one_error_line(tmp_path, small_manifest, capsys,
                                                           monkeypatch):
    write = experiment.write_report

    def write_or_fail(report, out_dir, name, csv_ref):
        if report.subject_id == "ear01":  # the second share's ear with two processes
            raise PermissionError(13, "Permission denied", str(out_dir / f"{name}.csv"))
        write(report, out_dir, name, csv_ref)

    monkeypatch.setattr(experiment, "write_report", write_or_fail)
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "exp"
    rc = main(["experiment", "--manifest", str(small_manifest), "--conditions", "Optimal",
               "--delays", "0", "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1 and len(err) == 1
    assert err[0].startswith(f"error: cannot write reports under {out}: [Errno 13]")
    assert "ear01__Optimal__dG0.csv" in err[0]
    assert not (out / "summary.json").exists()


def test_a_killed_grid_process_is_one_error_line(tmp_path, small_manifest, capsys, monkeypatch):
    parent = os.getpid()

    def killed(cohort, subject_id, cond, config):
        if subject_id == "ear01" and os.getpid() != parent:  # the child's share
            os.kill(os.getpid(), signal.SIGKILL)
        return run_condition(cohort, subject_id, cond, config)

    monkeypatch.setattr(experiment, "run_condition", killed)
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0, 1})
    out = tmp_path / "exp"
    rc = main(["experiment", "--manifest", str(small_manifest), "--conditions", "Optimal",
               "--delays", "0", "--out", str(out)])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1 and len(err) == 1
    assert err[0].startswith(f"error: the grid under {out} stopped: A process in the process pool")


SUMMARIES = ("summary.csv", "summary.json")


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "forked"])
@pytest.mark.parametrize("planted, rc, message", [
    (KeyboardInterrupt(), 130, "error: interrupted"),
    (PermissionError(13, "Permission denied"), 1, "error: cannot write reports under"),
], ids=["interrupt", "write-error"])
def test_an_unfinished_rerun_leaves_no_summary(tmp_path, small_manifest, capsys, monkeypatch,
                                                cpus, planted, rc, message):
    out = tmp_path / "exp"
    args = ["experiment", "--manifest", str(small_manifest), "--conditions", "Optimal,GenericAV",
            "--delays", "0,16", "--out", str(out)]
    assert main(args) == 0
    assert all((out / name).exists() for name in SUMMARIES)
    capsys.readouterr()
    write = experiment.write_report
    written = []

    def fail_on_the_third(report, out_dir, name, csv_ref):
        if report.subject_id == "ear01":  # the second share's ear with two processes
            written.append(name)
            if len(written) == 3:
                raise planted
        write(report, out_dir, name, csv_ref)

    monkeypatch.setattr(experiment, "write_report", fail_on_the_third)
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert main(args) == rc
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert not any((out / name).exists() for name in SUMMARIES)


@pytest.mark.parametrize("delays", [[16], list(experiment.DEFAULT_DELAYS)],
                         ids=["one-delay", "four-delays"])
def test_a_grid_factors_each_design_gram_once_per_ear_and_condition(small_manifest, tmp_path,
                                                                    monkeypatch, delays,
                                                                    factorizations):
    estimate, estimates = cohort_mod.estimate_average, []

    def counted_estimate(*args):
        estimates.append(args)
        return estimate(*args)

    monkeypatch.setattr(cohort_mod, "estimate_average", counted_estimate)
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0})
    data = load_manifest(small_manifest)
    n = len(data.subject_ids)
    result = run_experiment(data, list(CONDITION_NAMES), delays, EqDesignConfig(), tmp_path)
    assert len(result.runs) == n * 7 * len(delays) and not result.failures
    # A design Gram matrix does not depend on the delay: one per (ear, condition).
    assert factorizations.count("equalizer design") == 7 * n
    # Each ear's own pair, its leave-one-out pair and the dummy's pair; the open and
    # occluded estimates of a pair share the Gram matrix of the ears' h_m.
    assert len(estimates) == 2 * (2 * n + 1)
    assert 2 * factorizations.count("RTF estimate") == len(estimates)
    # When each ear kept its five design factors (d_true, d_inear, d_model, the pooled
    # peers, the dummy) and every RTF estimate factored its own, a grid made 5 n + 2 (2 n + 1).
    assert len(factorizations) <= 5 * n + len(estimates)


@pytest.fixture
def spectra(monkeypatch):
    """The responses whose spectra `conditions` and `cohort` compute from here on."""
    spectrum, responses = conditions.magnitude_response, []

    def counted(h):
        responses.append(h)
        return spectrum(h)

    monkeypatch.setattr(conditions, "magnitude_response", counted)
    monkeypatch.setattr(cohort_mod, "magnitude_response", counted)
    experiment._csv_template.cache_clear()
    return responses


def test_a_grid_computes_each_ears_spectra_and_csv_template_once(small_manifest, tmp_path,
                                                                 monkeypatch, spectra):
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0})
    data = load_manifest(small_manifest)
    n = len(data.subject_ids)
    result = run_experiment(data, list(CONDITION_NAMES), list(experiment.DEFAULT_DELAYS),
                            EqDesignConfig(), tmp_path)
    cells = len(result.runs)
    assert cells == n * 7 * 4 and not result.failures
    # Each cell's aided spectrum, and each ear's open and occluded one, whatever the delay.
    assert len(spectra) == cells + 2 * n
    assert experiment._csv_template.cache_info().misses == n


def test_an_ear_computes_its_spectra_once_when_its_cells_interleave(small_manifest, spectra):
    data = load_manifest(small_manifest)
    a, b = data.subject_ids[:2]
    for sid in (a, b, a, b):
        run_condition(data, sid, condition_named("Optimal"), EqDesignConfig(device_delay=16))
    ear_responses = [r for sid in (a, b) for r in data.ear(sid).responses().values()]
    # Each ear's open and occluded spectra once, and one aided spectrum per cell.
    assert sum(any(h is r for r in ear_responses) for h in spectra) == 4
    assert len(spectra) == 4 + 4


def _synth(seed):
    params = SynthCohortParams(seed=seed)
    return synth_cohort(params), synth_dummy_ear(params)


def test_cohorts_with_the_same_ids_give_the_reports_each_gives_alone(tmp_path, monkeypatch):
    # Both cohorts name their ears ear00..ear11: what one shares must never reach the other.
    cohorts = {seed: CohortData.of(*_synth(seed)) for seed in (42, 7)}
    cfg = EqDesignConfig(device_delay=16)

    def scored(seed):
        report = run_condition(cohorts[seed], "ear03", condition_named("Optimal"), cfg)
        return report.lsd_db, *(r.magnitude_db.tobytes()
                                for r in (report.aided, report.desired, report.occluded))

    fresh = {}
    for seed in (42, 7):
        solvers._factor.cache_clear()
        fresh[seed] = scored(seed)
    assert fresh[42] != fresh[7]
    assert {seed: scored(seed) for seed in (42, 7)} == fresh

    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0})
    grid = (["Optimal", "PracticalOptimal"], [0, 16], EqDesignConfig())
    alone = {}
    for seed in (42, 7):
        solvers._factor.cache_clear()
        run_experiment(CohortData.of(*_synth(seed)), *grid, tmp_path / f"alone{seed}")
        alone[seed] = tree_digest(tmp_path / f"alone{seed}")
    for seed in (42, 7):  # back to back, in one process
        run_experiment(CohortData.of(*_synth(seed)), *grid, tmp_path / f"after{seed}")
        assert tree_digest(tmp_path / f"after{seed}") == alone[seed]


@pytest.mark.parametrize("kind", ["config", "filter", "manifest"])
def test_a_deeply_nested_json_file_is_one_error_line(tmp_path, small_manifest, capsys, kind):
    deep = tmp_path / f"{kind}.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    argv = {"config": ["experiment", "--manifest", str(small_manifest), "--config", str(deep)],
            "filter": ["evaluate", "--manifest", str(small_manifest), "--subject", "ear00",
                       "--filter", str(deep)],
            "manifest": ["experiment", "--manifest", str(deep)]}[kind]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: invalid {kind}")
    assert "recursion" in err[0]


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
    zero = EqFilter(np.zeros(99), EqDesignConfig(device_delay=16), 0.0, 0.0, 0.0, 0.0, RATE)
    filter_path.write_text(json.dumps(filter_to_json(zero)))
    variant = _manifest_variant(tmp_path, small_manifest, lambda d: d["subjects"][0].pop("d_true"))
    rc = main(["evaluate", *variant, "--subject", "ear00", "--filter", str(filter_path),
               "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ") and "d_true" in err[0]


@pytest.mark.parametrize("key, value", [
    ("lambda", "0.1"), ("L_a", 99.0), ("weighting", None),
    ("residual_norm", True), ("penalty_norm", "0"), ("normal_eq_residual", None),
    ("residual_norm", float("nan")), ("normal_eq_scale", float("inf")),
    ("penalty_norm", float("-inf")), ("normal_eq_residual", -1.0),
    ("coefficients", [True] * 99), ("coefficients", "zeros"), ("coefficients", None),
    ("sample_rate_hz", True), ("sample_rate_hz", "16000"), ("sample_rate_hz", 0),
    ("sample_rate_hz", -16000), ("sample_rate_hz", 16000.0), ("sample_rate_hz", None),
    ("weighting", {"mode": "identity"}),
])
def test_evaluate_rejects_filter_values_of_the_wrong_type(tmp_path, small_manifest, capsys,
                                                          key, value):
    data = filter_to_json(EqFilter(np.zeros(99), EqDesignConfig(), 0.0, 0.0, 0.0, 0.0, RATE))
    data[key] = value
    filter_path = tmp_path / "typed.json"
    filter_path.write_text(json.dumps(data))
    rc = main(["evaluate", "--manifest", str(small_manifest), "--subject", "ear00",
               "--filter", str(filter_path), "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1
    assert len(err) == 1 and err[0].startswith("error: ") and f'"{key}" must be' in err[0]


@pytest.mark.parametrize("edit, message", [
    (lambda text: "[1, 2]", '"filter" must be an object, got [1, 2]'),
    (lambda text: text.replace('"residual_norm": 0.0', '"residual_norm": 1e400'),
     '"residual_norm" must be finite and nonnegative, got inf'),
], ids=["a-list", "1e400"])
def test_evaluate_rejects_a_filter_file_that_no_design_writes(tmp_path, small_manifest, capsys,
                                                              edit, message):
    text = json.dumps(filter_to_json(
        EqFilter(np.zeros(99), EqDesignConfig(), 0.0, 0.0, 0.0, 0.0, RATE)))
    filter_path = tmp_path / "odd.json"
    filter_path.write_text(edit(text))
    rc = main(["evaluate", "--manifest", str(small_manifest), "--subject", "ear00",
               "--filter", str(filter_path), "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1 and not (tmp_path / "e").exists()
    assert len(err) == 1 and err[0].startswith("error: invalid filter file") and message in err[0]


@pytest.mark.parametrize("key", list(FILTER_WIRE))
def test_evaluate_rejects_a_filter_without_a_design_key(tmp_path, small_manifest, capsys, key):
    # A missing key would otherwise take its default: d_G = 0 for a filter designed at 96, say.
    data = filter_to_json(
        EqFilter(np.zeros(99), EqDesignConfig(device_delay=96), 0.0, 0.0, 0.0, 0.0, RATE))
    del data[key]
    filter_path = tmp_path / "partial.json"
    filter_path.write_text(json.dumps(data))
    rc = main(["evaluate", "--manifest", str(small_manifest), "--subject", "ear00",
               "--filter", str(filter_path), "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1 and not (tmp_path / "e").exists()
    assert len(err) == 1 and err[0].startswith("error: invalid filter file")
    assert f"missing key '{key}'" in err[0]


def test_evaluate_refuses_a_filter_designed_at_another_rate(tmp_path, small_manifest, capsys):
    filter_path = tmp_path / "f.json"
    assert main(["design", "--manifest", str(small_manifest), "--subject", "ear01",
                 "--condition", "PracticalOptimal", "--delay", "16",
                 "--out", str(filter_path)]) == 0
    assert json.loads(filter_path.read_text())["sample_rate_hz"] == 16000
    at_32k = _manifest_variant(tmp_path, small_manifest, lambda d: d.update(sample_rate_hz=32000))
    rc = main(["evaluate", *at_32k, "--subject", "ear01", "--filter", str(filter_path),
               "--out", str(tmp_path / "e")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1 and not (tmp_path / "e").exists()
    assert err == ["error: cannot play a 16000 Hz filter at 32000 Hz"]


def test_evaluate_rejects_a_filter_with_an_unknown_key(tmp_path, small_manifest, capsys):
    data = filter_to_json(EqFilter(np.zeros(99), EqDesignConfig(), 0.0, 0.0, 0.0, 0.0, RATE))
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
    return rc


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


@st.composite
def grid_inputs(draw):
    """Lengths of 2-3 ears' responses (a few past 4096, d_* keys and the dummy maybe absent),
    a seed for their samples, and a request of 1-2 conditions at one delay."""
    ids = [f"ear{i:02d}" for i in range(draw(st.integers(2, 3)))]
    ears = {sid: {key: draw(st.integers(8, 40)) for key in RESPONSE_KEYS
                  if key in ("h_m", "h_open", "h_occ") or draw(st.integers(0, 7))}
            for sid in ids + ["dummy"] * draw(st.booleans())}
    for sid, key in draw(st.lists(st.sampled_from([(i, k) for i in ears for k in ears[i]]),
                                  max_size=2)):
        ears[sid][key] = draw(st.integers(4097, 4400))
    conditions = draw(st.lists(st.sampled_from(CONDITION_NAMES), min_size=1, max_size=2,
                               unique=True))
    return ears, draw(st.integers(0, 2**32 - 1)), conditions, draw(st.sampled_from([0, 16, 96]))


NUMERIC_FAILURES = {"ArithmeticError", "FloatingPointError", "OverflowError", "ZeroDivisionError",
                    "SingularSystemError"}


@given(grid_inputs())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_grid_either_refuses_its_input_or_scores_every_cell(tmp_path_factory, drawn):
    ears, seed, conditions, delay = drawn
    root = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    rng = np.random.default_rng(seed)
    entries = {}
    for sid, lengths in ears.items():
        (root / sid).mkdir()
        for key, n in lengths.items():
            write_impulse_csv(ImpulseResponse(rng.standard_normal(n), RATE),
                              root / sid / f"{key}.csv")
        entries[sid] = {"id": sid, **{key: f"{sid}/{key}.csv" for key in lengths}}
    manifest = {"sample_rate_hz": RATE, "subjects": [e for i, e in entries.items() if i != "dummy"]}
    manifest.update({"dummy": entries["dummy"]} if "dummy" in entries else {})
    (root / "manifest.json").write_text(json.dumps(manifest))
    out = root / "out"  # an earlier, finished grid
    (out / "runs").mkdir(parents=True)
    for name in ("summary.csv", "summary.json", "runs/ear00__Optimal__dG0.json"):
        (out / name).write_text("earlier\n")
    before = tree_digest(out)

    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc = main(["experiment", "--manifest", str(root / "manifest.json"), "--conditions",
                   ",".join(conditions), "--delays", str(delay), "--out", str(out)])
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
    if errors:  # refused: one line, and the earlier grid as it was
        event("refused")
        assert rc == 1 and len(errors) == 1 and tree_digest(out) == before
        return
    summary = json.loads((out / "summary.json").read_text())
    event(f"scored, {len(summary['failures'])} failed")
    cells = [(r["subject"], r["condition"], r["d_G"]) for r in summary["per_subject"]]
    cells += [(f["subject_id"], f["condition"], f["device_delay"]) for f in summary["failures"]]
    subjects = [entry["id"] for entry in manifest["subjects"]]
    assert sorted(cells) == sorted(itertools.product(subjects, conditions, [delay]))
    assert {f["error"].split(":")[0] for f in summary["failures"]} <= NUMERIC_FAILURES
    assert rc == (1 if summary["failures"] else 0)
    assert sorted(p.name for p in (out / "runs").iterdir()) == sorted(
        f"{r['subject']}__{r['condition']}__dG{r['d_G']}.{ext}"
        for r in summary["per_subject"] for ext in ("csv", "json"))


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
        EqFilter(np.zeros(99), EqDesignConfig(), 0.0, 0.0, 0.0, 0.0, RATE))))
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
    # The grid reads every subject first, so the file fails the run, not its cells.
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


def test_a_missing_plant_is_refused_before_any_solve(tmp_path, small_manifest, factorizations,
                                                     capsys):
    variant = _manifest_variant(tmp_path, small_manifest,
                                lambda d: d["subjects"][1].pop("d_model"))
    assert main(["design", *variant, "--subject", "ear01", "--condition", "ModelBased",
                 "--out", str(tmp_path / "never.json")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: ear01: response d_model is not available"]
    assert factorizations == [] and not (tmp_path / "never.json").exists()


def test_a_grid_reads_the_dummy_only_for_generic_dh(tmp_path, small_manifest, reads, capsys):
    corrupt = tmp_path / "dummy" / "h_occ.csv"
    corrupt.parent.mkdir()
    corrupt.write_text("sample\n1 2\n")
    bad_dummy = _manifest_variant(tmp_path, small_manifest,
                                  lambda d: d["dummy"].update(h_occ=str(corrupt)))
    out = tmp_path / "grid"
    assert main(["experiment", *bad_dummy, "--conditions", "Optimal", "--delays", "16",
                 "--out", str(out)]) == 0
    assert _read_ears(reads) == ALL_SIX
    before = tree_digest(out)
    assert main(["experiment", *bad_dummy, "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read subject 'dummy'")
    assert tree_digest(out) == before


@pytest.mark.parametrize("command", [
    ["design", "--subject", "ear02", "--condition", "Optimal"],
    ["experiment"],
    ["evaluate", "--subject", "ear02", "--filter", "f.json"],
], ids=["design", "experiment", "evaluate"])
def test_a_missing_out_fails_before_any_ear_is_read(tmp_path, small_manifest, reads, capsys,
                                                     monkeypatch, command):
    corrupt = tmp_path / "ear02" / "h_occ.csv"
    corrupt.parent.mkdir()
    corrupt.write_text("sample\n1 2\n")
    bad_csv = _manifest_variant(tmp_path, small_manifest,
                                lambda d: d["subjects"][2].update(h_occ=str(corrupt)))
    monkeypatch.chdir(tmp_path)
    assert main([command[0], *bad_csv, *command[1:]]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: the following arguments are required: --out"]
    assert main([command[0], *bad_csv, *command[1:], "--out", ""]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: argument --out: an empty path"]
    assert reads == [] and sorted(p.name for p in tmp_path.iterdir()) == ["ear02", "variant.json"]


# --- command-line parsing -------------------------------------------------------------

# A manifest that need not exist: each of these fails before any file is read.
M = ["--manifest", "m.json"]


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["synthesize"], "invalid choice: 'synthesize'"),
    (["synth", "--seeed", "3"], "unrecognized arguments: --seeed 3"),
    (["synth", "--seed"], "argument --seed: expected one argument"),
    (["synth", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["design", *M, "--subject", "ear00", "--condition", "Optimal", "--lamda", "1"],
     "unrecognized arguments: --lamda 1"),
    (["design", *M, "--subject", "ear00"], "the following arguments are required: --condition"),
    (["design", "--subject", "ear00", "--condition", "Bogus"],
     "argument --condition: invalid choice: 'Bogus'"),
    (["experiment", *M, "--delyas", "16"], "unrecognized arguments: --delyas 16"),
    (["experiment", "--delays"], "argument --delays: expected one argument"),
    (["experiment", "--delays", "16,x"], "argument --delays: not comma-separated integers: '16,x'"),
    (["evaluate", "--subject", "ear00", "--filter", "f.json", *M, "--manifst", "m.json"],
     "unrecognized arguments: --manifst m.json"),
    (["evaluate", *M, "--subject", "ear00"], "the following arguments are required: --filter"),
    (["evaluate", *M, "--subject", "ear00", "--filter", "f.json", "--condition", "Optimal"],
     "unrecognized arguments: --condition Optimal"),
    (["synth", "--exclude-subject", "ear01"], "unrecognized arguments: --exclude-subject ear01"),
    (["synth", "--params", "p.json"], "unrecognized arguments: --params p.json"),
    (["evaluate", *M, "--subject", "ear00", "--filter", "f.json", "--exclude-subject", "ear01"],
     "unrecognized arguments: --exclude-subject ear01"),
    (["design", *M, "--subject", "ear00", "--condition", "Optimal", "--exclude-subject", "ear01"],
     "unrecognized arguments: --exclude-subject ear01"),
    (["experiment", *M, "--exclude-subject", "ear01"],
     "unrecognized arguments: --exclude-subject ear01"),
    (["synth", "--config", ""], "argument --config: an empty path"),
    (["experiment", "--manifest", ""], "argument --manifest: an empty path"),
    (["evaluate", *M, "--subject", "ear00", "--filter", ""], "argument --filter: an empty path"),
    (["design", *M, "--subject", "ear00", "--condition", "Optimal", "--seed", "99"],
     "unrecognized arguments: --seed 99"),
    (["experiment", *M, "--seed", "42"], "unrecognized arguments: --seed 42"),
    (["evaluate", *M, "--subject", "ear00", "--filter", "f.json", "--seed", "42"],
     "unrecognized arguments: --seed 42"),
    (["evaluate", *M, "--subject", "ear00", "--filter", "f.json", "--config", "c.json"],
     "unrecognized arguments: --config c.json"),
    (["design", "--subject", "ear00", "--condition", "Optimal"],
     "the following arguments are required: --manifest"),
    (["experiment", "--seed", "42"], "the following arguments are required: --manifest"),
    (["evaluate", "--subject", "ear00", "--filter", "f.json"],
     "the following arguments are required: --manifest"),
], ids=["no-command", "unknown-command", "synth-misspelt", "synth-missing-value",
        "synth-not-an-int", "design-misspelt", "design-missing-condition",
        "design-bad-condition", "experiment-misspelt", "experiment-missing-value",
        "experiment-bad-delays", "evaluate-misspelt", "evaluate-missing-filter",
        "evaluate-no-condition-flag", "synth-exclude-subject", "synth-params",
        "evaluate-exclude-subject", "design-exclude-subject", "experiment-exclude-subject",
        "config-empty", "manifest-empty", "filter-empty", "design-seed", "experiment-seed",
        "evaluate-seed", "evaluate-config", "design-no-manifest", "experiment-no-manifest",
        "evaluate-no-manifest"])
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


def test_each_call_sets_its_own_eqforge_log_level(tmp_path, monkeypatch):
    logger = logging.getLogger("eqforge")
    params, seen = write_params(tmp_path), []
    try:
        for level in ("warning", "info", "warning"):
            monkeypatch.setenv("EQFORGE_LOG", level)
            assert main(["synth", "--config", str(params), "--out", str(tmp_path / level)]) == 0
            seen.append(logger.getEffectiveLevel())
    finally:
        logger.setLevel(logging.NOTSET)
    assert seen == [logging.WARNING, logging.INFO, logging.WARNING]


@pytest.mark.parametrize("command", [[], ["synth"], ["design"], ["experiment"], ["evaluate"]])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: eqforge")


@pytest.mark.parametrize("command, options", [
    ("synth", ["--config", "--out", "--seed"]),
    ("design", ["--config", "--out", "--manifest", "--subject", "--condition", "--delay"]),
    ("experiment", ["--config", "--out", "--manifest", "--conditions", "--delays"]),
    ("evaluate", ["--out", "--manifest", "--subject", "--filter"]),
])
def test_each_command_lists_only_its_options(capsys, command, options):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert sorted(re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)) == sorted(options)
