"""Experiment conditions: filter-design recipes and aided-ear path simulation.

Every condition runs the same regularized least-squares design; a condition
is data naming which ears the design is pooled over, which RTF estimates
build their targets, and which receiver-to-eardrum response is the plant.
Evaluation always runs on the subject's true acoustics, so a condition's
score isolates the impact of its design-side estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohort import CohortData, EarDataset, RtfPair
from .design import EqDesignConfig, EqFilter, build_target, design_filter_pooled
from .metrics import ConditionReport, band_error_profile, log_spectral_distance
from .signals import ImpulseResponse, convolve, magnitude_response, zero_extend, zero_pad_leading

# Where the design ears and their RTFs come from:
#   own    the subject, with its own RTFs
#   dummy  the dummy-head ear, with its own RTFs
#   peers  every other cohort ear, each with its own RTFs, pooled into one filter
#   loo    the subject, with RTFs averaged over every other cohort ear
RTF_SOURCES = ("own", "dummy", "peers", "loo")
# Which receiver-to-eardrum response of each design ear is the design plant.
D_SOURCES = {"true": "d_true", "inear": "d_inear", "model": "d_model"}


@dataclass(frozen=True)
class ConditionSpec:
    """One experiment condition: RTF provenance plus the design-side d source."""

    name: str
    rtf_source: str
    d_source: str

    def __post_init__(self) -> None:
        if self.rtf_source not in RTF_SOURCES:
            raise ValueError(f"rtf_source must be one of {RTF_SOURCES}, got {self.rtf_source!r}")
        if self.d_source not in D_SOURCES:
            raise ValueError(f"d_source must be one of {tuple(D_SOURCES)}, got {self.d_source!r}")


CONDITIONS: dict[str, ConditionSpec] = {
    spec.name: spec
    for spec in (
        ConditionSpec("Optimal", "own", "true"),
        ConditionSpec("GenericDH", "dummy", "true"),
        ConditionSpec("NaiveInEar", "own", "inear"),
        ConditionSpec("ModelBased", "own", "model"),
        ConditionSpec("GenericAV", "peers", "true"),
        ConditionSpec("PracticalModelBased", "loo", "model"),
        ConditionSpec("PracticalOptimal", "loo", "true"),
    )
}

CONDITION_NAMES = tuple(CONDITIONS)


def condition_named(name: str) -> ConditionSpec:
    try:
        return CONDITIONS[name]
    except KeyError:
        raise ValueError(f"unknown condition {name!r}; expected one of {CONDITION_NAMES}") from None


def aided_response(ear: EarDataset, a: EqFilter) -> ImpulseResponse:
    """Device path through the true receiver response plus the passive leak.

    The device processing is a pure delay of the filter's `device_delay` samples. A filter
    designed at a rate other than the ear's is a ValueError. Evaluation always runs through
    d_true; whatever estimate shaped the filter, the ear it plays into is the real one.
    """
    if a.sample_rate_hz != ear.sample_rate_hz:
        raise ValueError(f"cannot play a {a.sample_rate_hz} Hz filter at {ear.sample_rate_hz} Hz")
    eq = ImpulseResponse(a.coefficients, ear.sample_rate_hz)
    chain = convolve(convolve(zero_pad_leading(ear.h_m, a.config.device_delay), eq),
                     ear.require("d_true")).samples
    n = max(chain.size, len(ear.h_occ))
    samples = zero_extend(chain, n) + zero_extend(ear.h_occ.samples, n)
    return ImpulseResponse(samples, ear.sample_rate_hz)


def individual_rtfs(cohort: CohortData, subject_id: str, acausal_lead: int) -> RtfPair:
    """(open, occluded) RTF estimates from one ear's own measurements."""
    return cohort.pooled_rtfs((subject_id,), acausal_lead)


def average_rtfs(cohort: CohortData, exclude_subject: str, acausal_lead: int) -> RtfPair:
    """(open, occluded) pooled RTF estimates, leaving one subject out."""
    members = tuple(i for i in cohort.subject_ids if i != exclude_subject)
    if not members:
        raise ValueError(f"no cohort members remain after excluding {exclude_subject!r}")
    return cohort.pooled_rtfs(members, acausal_lead)


def design_ears(cohort: CohortData, subject_id: str, cond: ConditionSpec) -> list[EarDataset]:
    """The ears `cond` designs over, read and each with its plant; a missing one is a ValueError.

    The subject is read too, but needs no d_true, which a model-based design does without."""
    if subject_id not in cohort.subject_ids:
        raise ValueError(f"subject {subject_id!r} is not in the cohort")
    peers = [i for i in cohort.subject_ids if i != subject_id]
    if cond.rtf_source in ("peers", "loo") and not peers:
        raise ValueError(f"condition {cond.name} needs a cohort of at least 2 ears")
    if cond.rtf_source == "dummy" and cohort.dummy_id is None:
        raise ValueError(f"condition {cond.name} needs a dummy-head ear")
    design_ids = {"own": [subject_id], "dummy": [cohort.dummy_id], "peers": peers,
                  "loo": [subject_id]}[cond.rtf_source]
    cohort.ear(subject_id)
    for i in design_ids:
        cohort.ear(i).require(D_SOURCES[cond.d_source])
    return [cohort.ear(i) for i in design_ids]


def design_for_condition(cohort: CohortData, subject_id: str, cond: ConditionSpec,
                         config: EqDesignConfig) -> EqFilter:
    """Design the equalizer over `design_ears`, exactly as the condition's data prescribes."""
    plants, targets = [], []
    for ear in design_ears(cohort, subject_id, cond):
        if cond.rtf_source == "loo":  # the average reads every peer before it solves
            rtfs = average_rtfs(cohort, subject_id, config.acausal_lead)
        else:
            rtfs = individual_rtfs(cohort, ear.subject_id, config.acausal_lead)
        targets.append(build_target(*rtfs, config.device_delay))
        plants.append(ear.require(D_SOURCES[cond.d_source]))
    return design_filter_pooled(plants, targets, config)


def evaluate(ear: EarDataset, filt: EqFilter, condition: str | None = None) -> ConditionReport:
    """Score `filt` on the ear's true acoustics: aided against desired (open) spectra."""
    aided = magnitude_response(aided_response(ear, filt))
    desired, occluded = ear.spectra
    return ConditionReport(subject_id=ear.subject_id, condition=condition,
                           lsd_db=log_spectral_distance(aided, desired),
                           band_errors_db=band_error_profile(aided, desired),
                           aided=aided, desired=desired, occluded=occluded, eq_filter=filt)


def run_condition(cohort: CohortData, subject_id: str, cond: ConditionSpec,
                  config: EqDesignConfig) -> ConditionReport:
    """Design per the condition, evaluate on the subject's true acoustics."""
    filt = design_for_condition(cohort, subject_id, cond, config)
    return evaluate(cohort.ear(subject_id), filt, cond.name)
