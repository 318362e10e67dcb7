#!/usr/bin/env python3
"""Record the default-cohort baseline that the acceptance suite pins against.

Runs the full condition grid on the seed-42 cohort and freezes the mean
log-spectral distances into tests/data/pilot_seed42.json. Rerun this only
when a deliberate generator or solver change moves the baseline.
"""

import json
import sys
from pathlib import Path

import numpy as np

from eqforge import (
    CohortData,
    EqDesignConfig,
    SynthCohortParams,
    condition_named,
    run_condition,
    synth_cohort,
    synth_dummy_ear,
)
from eqforge.conditions import CONDITION_NAMES
from eqforge.experiment import DEFAULT_DELAYS

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "pilot_seed42.json"


def main() -> int:
    params = SynthCohortParams()
    cohort = CohortData.of(synth_cohort(params), synth_dummy_ear(params))

    baseline: dict[str, dict[str, float]] = {}
    for delay in DEFAULT_DELAYS:
        cfg = EqDesignConfig(device_delay=delay)
        baseline[str(delay)] = {}
        for name in CONDITION_NAMES:
            values = [run_condition(cohort, subject_id, condition_named(name), cfg).lsd_db
                      for subject_id in cohort.subject_ids]
            baseline[str(delay)][name] = float(np.mean(sorted(values)))
        line = "  ".join(f"{k}={v:.4f}" for k, v in baseline[str(delay)].items())
        print(f"d_G={delay}: {line}")

    OUT.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "cohort": {"seed": params.seed, "n_subjects": params.n_subjects},
        "design": {"L_a": 99, "lambda": 0.1, "L_d": 32},
        "band_hz": [100.0, 7000.0],
        "mean_lsd_db": baseline,
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
