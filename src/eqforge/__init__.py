"""eqforge: individualized hear-through equalization filters, end to end.

Design regularized least-squares FIR equalizers for occluding hearing
devices, estimate the relative transfer functions they need from individual
or pooled measurements, and score the resulting aided ear signal paths on
synthetic cohorts.
"""

from .cohort import (
    CohortData,
    EarDataset,
    SynthCohortParams,
    load_manifest,
    save_cohort,
    synth_cohort,
    synth_dummy_ear,
)
from .conditions import (
    CONDITION_NAMES,
    CONDITIONS,
    ConditionSpec,
    aided_response,
    condition_named,
    design_for_condition,
    desired_response,
    device_gain,
    evaluate,
    run_condition,
)
from .design import (
    EqDesignConfig,
    EqFilter,
    WeightingSpec,
    build_target,
    design_filter,
    design_filter_pooled,
    weighting_taps,
)
from .metrics import (
    ConditionReport,
    ConditionSummary,
    band_error_profile,
    log_spectral_distance,
    rank_conditions,
)
from .rtf import (
    RelativeTransferEstimate,
    default_rtf_length,
    estimate_average,
    estimate_individual,
)
from .signals import (
    ImpulseResponse,
    MagnitudeResponse,
    SampleRateMismatch,
    convolution_matrix,
    convolve,
    magnitude_response,
    unit_delay,
    zero_pad_leading,
)
from .solvers import SingularSystemError

__version__ = "0.1.0"
