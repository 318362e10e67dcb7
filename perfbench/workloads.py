"""The three workloads: inputs made from the seed, and the CLI calls that run them.

grid-default  the default `eqforge experiment` grid on a 12-ear cohort
              (12 x 7 x 4 = 336 cells); report writing dominates a pass.
loo-cohort    the three leave-one-out conditions at delay LOO_DELAY on a 24-ear
              cohort; LOO averaging grows with the square of the cohort size,
              so RTF estimation and solves dominate and writing is small.
fit-session   one clinician fitting ears one at a time, a closed loop: each
              request is `design` then `evaluate` against a manifest on disk,
              so manifest loading, uncached RTF estimates and the CLI writer
              are on every request.

The program only sees the generated cohort (a manifest written during set-up)
and the request arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ALL_CONDITIONS = ("Optimal", "GenericDH", "NaiveInEar", "ModelBased",
                  "GenericAV", "PracticalModelBased", "PracticalOptimal")
LOO_CONDITIONS = ("GenericAV", "PracticalModelBased", "PracticalOptimal")
FIT_CONDITIONS = ("Optimal", "ModelBased", "NaiveInEar", "GenericDH")
DELAYS = (0, 1, 16, 96)
# loo-cohort runs at this one delay, the same for every seed.
LOO_DELAY = 16

WORKLOADS = ("grid-default", "loo-cohort", "fit-session")
COHORT_SIZE = {"grid-default": 12, "loo-cohort": 24, "fit-session": 12}
# The benchmark's own tests run every workload on cohorts this small.
TINY_COHORT_SIZE = 3
# fit-session serves its cycle in blocks of this many requests: each
# (condition, delay) pair once, so every block has the same mix of work.
FIT_BLOCK = len(FIT_CONDITIONS) * len(DELAYS)
# A traced fit-session pass serves this many requests from the start of the cycle.
FIT_TRACE_REQUESTS = 3 * FIT_BLOCK


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    tiny: bool
    manifest: Path
    subjects: tuple[str, ...]
    conditions: tuple[str, ...]
    delays: tuple[int, ...]
    # fit-session only: (subject, condition, delay) in serving order.
    requests: tuple[tuple[str, str, int], ...] = ()

    @property
    def cells(self) -> list[tuple[str, str, int]]:
        """Grid cells one `experiment` pass must account for."""
        return [(s, c, d) for s in self.subjects for c in self.conditions for d in self.delays]

    def experiment_argv(self, out_dir: Path) -> list[str]:
        argv = ["experiment", "--manifest", str(self.manifest), "--out", str(out_dir)]
        if self.workload == "loo-cohort":
            argv += ["--conditions", ",".join(self.conditions),
                     "--delays", ",".join(map(str, self.delays))]
        return argv

    def fit_argvs(self, request: tuple[str, str, int], out_dir: Path) -> tuple[list[str], list[str]]:
        subject, condition, delay = request
        filter_path = str(out_dir / "filter.json")
        design = ["design", "--manifest", str(self.manifest), "--subject", subject,
                  "--condition", condition, "--delay", str(delay), "--out", filter_path]
        evaluate = ["evaluate", "--manifest", str(self.manifest), "--subject", subject,
                    "--filter", filter_path, "--out", str(out_dir / "eval")]
        return design, evaluate


def prepare(workload: str, seed: int, work_dir: Path, tiny: bool = False) -> Inputs:
    """Synthesize the workload's cohort from `seed` and write its manifest."""
    from eqforge import cohort as cohort_mod

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    size = TINY_COHORT_SIZE if tiny else COHORT_SIZE[workload]
    params = cohort_mod.SynthCohortParams(n_subjects=size, seed=seed)
    ears = cohort_mod.synth_cohort(params)
    dummy = cohort_mod.synth_dummy_ear(params)
    manifest = cohort_mod.save_cohort(ears, work_dir / "cohort", dummy=dummy, params=params)
    subjects = tuple(e.subject_id for e in ears)
    if workload == "grid-default":
        return Inputs(workload, seed, tiny, manifest, subjects, ALL_CONDITIONS, DELAYS)
    if workload == "loo-cohort":
        return Inputs(workload, seed, tiny, manifest, subjects, LOO_CONDITIONS, (LOO_DELAY,))
    return Inputs(workload, seed, tiny, manifest, subjects, FIT_CONDITIONS, DELAYS,
                  fit_cycle(subjects, seed))


def fit_cycle(subjects: tuple[str, ...], seed: int) -> tuple[tuple[str, str, int], ...]:
    """Every (subject, condition, delay) once, in blocks of FIT_BLOCK requests.

    Block b gives pair j of the (condition, delay) pairs to subject
    order[(b + j) % n], so over n blocks each pair meets each subject once.
    The seed draws the subject order and the order within each block.
    """
    rng = random.Random(seed)
    order = list(subjects)
    rng.shuffle(order)
    pairs = [(c, d) for c in FIT_CONDITIONS for d in DELAYS]
    cycle = []
    for b in range(len(order)):
        block = [(order[(b + j) % len(order)], c, d) for j, (c, d) in enumerate(pairs)]
        rng.shuffle(block)
        cycle += block
    return tuple(cycle)
