import dataclasses

import numpy as np
import pytest

from eqforge import cohort as cohort_mod
from eqforge.cohort import CohortData, EarDataset, SynthCohortParams, synth_cohort, synth_dummy_ear
from eqforge.conditions import (
    CONDITION_NAMES,
    CONDITIONS,
    aided_response,
    condition_named,
    individual_rtfs,
    design_for_condition,
    desired_response,
    device_gain,
    run_condition,
)
from eqforge.design import EqDesignConfig, EqFilter, build_target, design_filter
from eqforge.signals import convolve, magnitude_response, unit_delay, zero_extend
from conftest import RATE, make_ir

PARAMS = SynthCohortParams(n_subjects=4)
CFG = EqDesignConfig(device_delay=16)


@pytest.fixture(scope="module")
def cohort():
    return synth_cohort(PARAMS)


@pytest.fixture(scope="module")
def dummy():
    return synth_dummy_ear(PARAMS)


def zero_filter(cfg=CFG):
    return EqFilter(np.zeros(cfg.filter_length), cfg, 0.0, 0.0)


def degenerate(ear, subject_id=None):
    """Copy of `ear` whose receiver estimates equal the truth."""
    return dataclasses.replace(
        ear,
        subject_id=subject_id or ear.subject_id,
        d_inear=ear.d_true,
        d_model=ear.d_true,
    )


# --- condition registry --------------------------------------------------------

def test_condition_registry_is_fixed():
    assert set(CONDITION_NAMES) == {
        "Optimal", "GenericDH", "NaiveInEar", "ModelBased",
        "GenericAV", "PracticalModelBased", "PracticalOptimal",
    }
    assert {name: (spec.rtf_source, spec.d_source) for name, spec in CONDITIONS.items()} == {
        "Optimal": ("own", "true"),
        "GenericDH": ("dummy", "true"),
        "NaiveInEar": ("own", "inear"),
        "ModelBased": ("own", "model"),
        "GenericAV": ("peers", "true"),
        "PracticalModelBased": ("loo", "model"),
        "PracticalOptimal": ("loo", "true"),
    }
    with pytest.raises(ValueError):
        condition_named("Oracle")


# --- aided / desired paths -------------------------------------------------------

def test_muted_device_leaves_occluded_path(cohort):
    ear = cohort[0]
    g = device_gain(96, RATE)
    aided = aided_response(ear, g, zero_filter())
    occ = ear.h_occ.samples
    assert np.array_equal(aided.samples, zero_extend(occ, len(aided)))


def test_transparent_chain_reproduces_filter(rng):
    delta = make_ir([1.0])
    late_leak = unit_delay(200, 201)  # leak far beyond the device chain
    ear = EarDataset("t", h_m=delta, h_open=delta, h_occ=late_leak,
                     d_true=delta, d_inear=delta, d_model=delta)
    coeffs = rng.standard_normal(CFG.filter_length)
    filt = EqFilter(coeffs, dataclasses.replace(CFG, device_delay=0), 0.0, 0.0)
    aided = aided_response(ear, device_gain(0, RATE), filt)
    assert np.array_equal(aided.samples[: coeffs.size], coeffs)
    assert aided.samples[200] == 1.0


def test_desired_is_open_ear_through_device(cohort):
    ear = cohort[0]
    assert np.array_equal(
        desired_response(ear, device_gain(0, RATE)).samples, ear.h_open.samples
    )
    delayed = desired_response(ear, device_gain(96, RATE))
    assert np.array_equal(delayed.samples[96:], ear.h_open.samples)


def test_desired_magnitude_is_delay_invariant(cohort):
    ear = cohort[0]
    m0 = magnitude_response(desired_response(ear, device_gain(0, RATE)))
    m96 = magnitude_response(desired_response(ear, device_gain(96, RATE)))
    assert np.max(np.abs(m0.magnitude_db - m96.magnitude_db)) <= 1e-8


def test_aided_is_device_chain_plus_leak(cohort, rng):
    ear = cohort[1]
    g = device_gain(16, RATE)
    coeffs = rng.standard_normal(CFG.filter_length)
    filt = EqFilter(coeffs, CFG, 0.0, 0.0)
    aided = aided_response(ear, g, filt)
    chain = convolve(convolve(convolve(ear.h_m, g), make_ir(coeffs)), ear.d_true)
    want = zero_extend(chain.samples, len(aided)) + zero_extend(ear.h_occ.samples, len(aided))
    assert np.array_equal(aided.samples, want)
    # reassociated chain agrees up to rounding
    reassoc = convolve(ear.h_m, convolve(g, convolve(make_ir(coeffs), ear.d_true)))
    alt = zero_extend(reassoc.samples, len(aided)) + zero_extend(ear.h_occ.samples, len(aided))
    assert np.max(np.abs(aided.samples - alt)) <= 1e-12 * (1.0 + np.max(np.abs(aided.samples)))


# --- per-condition design behavior ------------------------------------------------

def test_d_source_conditions_coincide_on_degenerate_ears(cohort, dummy):
    degen = CohortData.of([degenerate(e) for e in cohort], dummy)
    filters = {
        name: design_for_condition(degen, "ear00", condition_named(name), CFG)
        for name in ("Optimal", "NaiveInEar", "ModelBased")
    }
    for name in ("NaiveInEar", "ModelBased"):
        delta = np.max(np.abs(filters[name].coefficients - filters["Optimal"].coefficients))
        assert delta <= 1e-10


def test_all_conditions_collapse_on_identical_cohort(cohort):
    base = degenerate(cohort[0])
    clones = CohortData.of([dataclasses.replace(base, subject_id=f"c{i}") for i in range(3)],
                           dataclasses.replace(base, subject_id="dummy"))
    filters = [
        design_for_condition(clones, "c0", condition_named(name), CFG)
        for name in CONDITION_NAMES
    ]
    reference = filters[0].coefficients
    scale = 1.0 + np.max(np.abs(reference))
    for filt in filters[1:]:
        assert np.max(np.abs(filt.coefficients - reference)) <= 1e-10 * scale


def test_generic_dh_is_optimal_designed_on_the_dummy(cohort, dummy):
    data = CohortData.of(cohort, dummy)
    for subject in ("ear00", "ear03"):
        dh = design_for_condition(data, subject, condition_named("GenericDH"), CFG)
        on_dummy = design_for_condition(CohortData.of([*cohort, dummy]), "dummy",
                                        condition_named("Optimal"), CFG)
        assert np.array_equal(dh.coefficients, on_dummy.coefficients)


def test_generic_av_on_two_ears_is_the_peers_optimal(cohort, dummy):
    pair = CohortData.of(cohort[:2], dummy)
    av = design_for_condition(pair, "ear00", condition_named("GenericAV"), CFG)
    peer = design_for_condition(pair, "ear01", condition_named("Optimal"), CFG)
    assert np.array_equal(av.coefficients, peer.coefficients)


def test_practical_optimal_on_two_ears_uses_the_peers_rtfs(cohort, dummy):
    practical = design_for_condition(CohortData.of(cohort[:2], dummy), "ear00",
                                     condition_named("PracticalOptimal"), CFG)
    rtfs = individual_rtfs(CohortData.of(cohort[:2]), "ear01", CFG.acausal_lead)
    direct = design_filter(cohort[0].d_true, build_target(*rtfs, CFG.device_delay), CFG)
    assert np.max(np.abs(practical.coefficients - direct.coefficients)) <= 1e-10


def test_leave_one_out_exclusion_is_exercised(cohort, dummy):
    spec = condition_named("PracticalOptimal")
    baseline = design_for_condition(CohortData.of(cohort, dummy), "ear00", spec, CFG)
    duplicated = [*cohort, dataclasses.replace(cohort[0], subject_id="ear00_copy")]
    shifted = design_for_condition(CohortData.of(duplicated, dummy), "ear00", spec, CFG)
    assert not np.allclose(baseline.coefficients, shifted.coefficients, atol=1e-12)


def test_generic_dh_is_worse_than_optimal(cohort, dummy):
    data = CohortData.of(cohort, dummy)
    for subject in ("ear00", "ear01"):
        optimal = run_condition(data, subject, condition_named("Optimal"), CFG)
        dh = run_condition(data, subject, condition_named("GenericDH"), CFG)
        assert optimal.lsd_db < dh.lsd_db


def test_run_condition_report_contents(cohort, dummy):
    report = run_condition(CohortData.of(cohort, dummy), "ear02", condition_named("ModelBased"),
                           CFG)
    assert report.subject_id == "ear02"
    assert report.condition == "ModelBased"
    assert report.device_delay == CFG.device_delay
    assert report.lsd_db >= 0.0
    assert report.aided.frequencies_hz.size == report.desired.frequencies_hz.size
    assert report.eq_filter is not None
    assert report.eq_filter.normal_eq_residual <= 1e-8 * (report.eq_filter.normal_eq_scale + 1.0)


def test_missing_dummy_raises(cohort):
    with pytest.raises(ValueError, match="dummy"):
        design_for_condition(CohortData.of(cohort), "ear00", condition_named("GenericDH"), CFG)


def test_unknown_subject_raises(cohort, dummy):
    with pytest.raises(ValueError, match="not in the cohort"):
        run_condition(CohortData.of(cohort, dummy), "nobody", condition_named("Optimal"), CFG)
    # the dummy is readable, but it is not a design subject
    with pytest.raises(ValueError, match="not in the cohort"):
        design_for_condition(CohortData.of(cohort, dummy), "dummy", condition_named("Optimal"),
                             CFG)


def test_leave_one_out_needs_peers(cohort, dummy):
    alone = CohortData.of(cohort[:1], dummy)
    with pytest.raises(ValueError):
        design_for_condition(alone, "ear00", condition_named("GenericAV"), CFG)


def test_missing_receiver_estimate_raises(cohort, dummy):
    stripped = CohortData.of([dataclasses.replace(e, d_model=None) for e in cohort], dummy)
    with pytest.raises(ValueError, match="d_model"):
        design_for_condition(stripped, "ear00", condition_named("ModelBased"), CFG)


@pytest.fixture
def estimates(monkeypatch):
    """How many ears each RTF estimate of a cohort memo pools, in call order."""
    seen = []
    estimate = cohort_mod.estimate_average

    def counted(pairs, *args):
        seen.append(len(pairs))
        return estimate(pairs, *args)

    monkeypatch.setattr(cohort_mod, "estimate_average", counted)
    return seen


def test_rtf_cache_is_reused(cohort, dummy, estimates):
    data = CohortData.of(cohort, dummy)
    run_condition(data, "ear00", condition_named("Optimal"), CFG)
    assert estimates == [1, 1]  # the open and the occluded RTF of ear00
    run_condition(data, "ear00", condition_named("NaiveInEar"), CFG)
    assert estimates == [1, 1]
    run_condition(data, "ear00", condition_named("PracticalOptimal"), CFG)
    assert estimates == [1, 1, 3, 3]
    run_condition(data, "ear01", condition_named("GenericAV"), CFG)  # ear00 is already known
    assert estimates == [1, 1, 3, 3, 1, 1, 1, 1]
    run_condition(data, "ear02", condition_named("ModelBased"), CFG)
    assert len(estimates) == 8


def test_rtf_memo_is_per_cohort_and_per_lead(dummy, estimates):
    # two cohorts with the same subject IDs, designed in turn at two leads
    cohorts = [CohortData.of(synth_cohort(SynthCohortParams(n_subjects=3, seed=seed)), dummy)
               for seed in (1, 2)]
    for lead in (CFG.acausal_lead, CFG.acausal_lead + 8):
        cfg = dataclasses.replace(CFG, acausal_lead=lead)
        for data in cohorts:
            for name in ("Optimal", "PracticalOptimal"):
                spec = condition_named(name)
                cached = design_for_condition(data, "ear00", spec, cfg)
                fresh = design_for_condition(dataclasses.replace(data), "ear00", spec, cfg)
                assert cached.coefficients.tobytes() == fresh.coefficients.tobytes()
    # per lead, cohort and memo (cached or fresh): ear00's own RTFs and its leave-one-out ones
    assert len(estimates) == 2 * 2 * 2 * (2 + 2)


def test_cohort_rejects_duplicate_ids(cohort, dummy):
    with pytest.raises(ValueError, match=r"duplicate subject IDs \['ear01'\]"):
        CohortData.of([*cohort, cohort[1]], dummy)
    with pytest.raises(ValueError, match=r"duplicate subject IDs \['dummy'\]"):
        CohortData.of([*cohort, dummy], dummy)
