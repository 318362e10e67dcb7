"""Acceptance gate: each criterion runs at its stated tolerance and prints
one PASS/FAIL line. The cohort-level criteria share a single full grid run
produced through the command-line entry point."""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from eqforge.cli import main
from eqforge.cohort import SynthCohortParams, synth_cohort, synth_dummy_ear
from eqforge.conditions import aided_response, device_gain
from eqforge.design import EqDesignConfig, EqFilter, WeightingSpec, design_filter, weighting_taps
from eqforge.rtf import estimate_average, estimate_individual
from eqforge.signals import ImpulseResponse, convolve, zero_extend
from conftest import RATE, make_ir

FIXTURE = Path(__file__).parent / "data" / "pilot_seed42.json"
DELAYS = (0, 1, 16, 96)
CONDITIONS = ("Optimal", "GenericDH", "NaiveInEar", "ModelBased",
              "GenericAV", "PracticalModelBased", "PracticalOptimal")


def check(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def loop_built_design_matrix(d_hat: np.ndarray, n_cols: int) -> np.ndarray:
    rows = d_hat.size + n_cols - 1
    out = np.zeros((rows, n_cols))
    for j in range(n_cols):
        out[j : j + d_hat.size, j] = d_hat
    return out


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    """Full default grid (12 ears x 7 conditions x 4 delays) run twice via the CLI."""
    out = tmp_path_factory.mktemp("acceptance_grid") / "exp"
    start = time.perf_counter()
    rc_first = main(["experiment", "--out", str(out)])
    elapsed = time.perf_counter() - start
    digest_first = tree_digest(out)
    rc_second = main(["experiment", "--out", str(out)])
    digest_second = tree_digest(out)
    summary = json.loads((out / "summary.json").read_text())
    means = {
        (row["d_G"], row["condition"]): row["mean_lsd_db"] for row in summary["rows"]
    }
    return {
        "out": out,
        "elapsed": elapsed,
        "rcs": (rc_first, rc_second),
        "identical": digest_first == digest_second,
        "summary": summary,
        "means": means,
    }


def test_criterion_1_solver_oracle_equivalence():
    rng = np.random.default_rng(7)
    lams = (0.0, 0.1, 10.0)
    worst = 0.0
    start = time.perf_counter()
    for i in range(200):
        filter_length = int(rng.integers(1, 33))
        d_hat = rng.standard_normal(int(rng.integers(2, 17)))
        target = rng.standard_normal(int(rng.integers(filter_length, filter_length + 41)))
        cfg = EqDesignConfig(filter_length=filter_length, lam=lams[i % 3])
        filt = design_filter(make_ir(d_hat), target, cfg)

        matrix = loop_built_design_matrix(d_hat, filter_length)
        aligned = np.zeros(matrix.shape[0])
        keep = min(matrix.shape[0], target.size)
        aligned[:keep] = target[:keep]
        if cfg.lam > 0:
            matrix = np.vstack([matrix, np.sqrt(cfg.lam) * np.eye(filter_length)])
            aligned = np.concatenate([aligned, np.zeros(filter_length)])
        want, *_ = np.linalg.lstsq(matrix, aligned, rcond=None)
        err = np.linalg.norm(filt.coefficients - want) / (1.0 + np.linalg.norm(want))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    check("1 solver-oracle-equivalence",
          ok, f"worst rel err {worst:.3e}, {elapsed:.2f} s for 200 instances")


def test_criterion_2_normal_equation_residual(grid_run):
    rng = np.random.default_rng(8)
    worst = 0.0
    for i in range(60):
        filter_length = int(rng.integers(1, 33))
        d_hat = rng.standard_normal(int(rng.integers(2, 17)))
        target = rng.standard_normal(int(rng.integers(filter_length, filter_length + 41)))
        cfg = EqDesignConfig(filter_length=filter_length, lam=(0.0, 0.1, 10.0)[i % 3])
        filt = design_filter(make_ir(d_hat), target, cfg)

        matrix = loop_built_design_matrix(d_hat, filter_length)
        aligned = np.zeros(matrix.shape[0])
        keep = min(matrix.shape[0], target.size)
        aligned[:keep] = target[:keep]
        weights = loop_built_design_matrix(weighting_taps(cfg.weighting), filter_length)
        gradient = matrix.T @ (matrix @ filt.coefficients - aligned)
        gradient += cfg.lam * (weights.T @ (weights @ filt.coefficients))
        bound = 1e-8 * (np.max(np.abs(matrix.T @ aligned)) + 1.0)
        worst = max(worst, np.max(np.abs(gradient)) / bound)

    stored_worst = 0.0
    n_filters = 0
    for run_json in sorted((grid_run["out"] / "runs").glob("*.json")):
        data = json.loads(run_json.read_text())
        filt = data["filter"]
        bound = 1e-8 * (filt["normal_eq_scale"] + 1.0)
        stored_worst = max(stored_worst, filt["normal_eq_residual"] / bound)
        n_filters += 1
    ok = worst <= 1.0 and stored_worst <= 1.0 and n_filters == 336
    check("2 normal-equation-residual",
          ok, f"independent worst {worst:.3f}x bound, grid worst {stored_worst:.3f}x "
              f"over {n_filters} designed filters")


def test_criterion_3_estimator_recovery():
    rng = np.random.default_rng(9)
    worst_rel = 0.0
    worst_pooled = 0.0
    for i in range(25):
        lead = (0, 32)[i % 2]
        r_true = rng.standard_normal(int(rng.integers(2, 12)))
        planted = np.concatenate([np.zeros(lead), r_true])
        length = lead + r_true.size
        pairs = []
        for _ in range(2):
            h_m = make_ir(rng.standard_normal(int(rng.integers(4, 20))))
            pairs.append((h_m, convolve(h_m, make_ir(r_true))))
        est = estimate_individual(*pairs[0], length, lead)
        rel = np.linalg.norm(est.coefficients - planted) / np.linalg.norm(r_true)
        worst_rel = max(worst_rel, rel)

        avg = estimate_average(pairs, length, lead)
        pooled = np.linalg.norm(avg.coefficients - planted) / np.linalg.norm(r_true)
        worst_pooled = max(worst_pooled, pooled)
    ok = worst_rel <= 1e-8 and worst_pooled <= 1e-8
    check("3 estimator-recovery",
          ok, f"worst recovery rel err {worst_rel:.3e}, "
              f"worst two-pair pooled recovery rel err {worst_pooled:.3e}")


def test_criterion_4_perfect_knowledge_transparency(grid_run):
    means = grid_run["means"]
    optimal = means[(96, "Optimal")]
    generic = means[(96, "GenericDH")]
    gap = generic - optimal
    fixture = json.loads(FIXTURE.read_text())["mean_lsd_db"]
    drift = max(
        abs(means[(int(d), cond)] - fixture[d][cond])
        for d in fixture
        for cond in fixture[d]
    )
    ok = gap >= 6.0 and drift <= 1e-6
    check("4 perfect-knowledge-transparency",
          ok, f"Optimal {optimal:.3f} dB vs GenericDH {generic:.3f} dB "
              f"(gap {gap:.2f} >= 6), fixture drift {drift:.2e}")


def test_criterion_5_experiment1_ordering(grid_run):
    means = grid_run["means"]
    failures = []
    for d in DELAYS:
        opt, model = means[(d, "Optimal")], means[(d, "ModelBased")]
        naive, dh = means[(d, "NaiveInEar")], means[(d, "GenericDH")]
        if not (opt <= model < naive and opt < dh):
            failures.append(f"d_G={d}: {opt:.3f},{model:.3f},{naive:.3f},{dh:.3f}")
    check("5 experiment1-ordering", not failures,
          "Optimal <= ModelBased < NaiveInEar and Optimal < GenericDH at every delay"
          + ("" if not failures else f"; violated: {failures}"))


def test_criterion_6_experiment2_ordering(grid_run):
    means = grid_run["means"]
    failures = []
    for d in DELAYS:
        po = means[(d, "PracticalOptimal")]
        pmb = means[(d, "PracticalModelBased")]
        av, dh = means[(d, "GenericAV")], means[(d, "GenericDH")]
        if not abs(po - pmb) < (av - po):
            failures.append(f"d_G={d}: |{po:.3f}-{pmb:.3f}| !< {av:.3f}-{po:.3f}")
        if not (po < dh and po < av and pmb < dh and pmb < av):
            failures.append(f"d_G={d}: practical not ahead of generics")
    check("6 experiment2-ordering", not failures,
          "practical pair within AV margin and ahead of both generics at every delay"
          + ("" if not failures else f"; violated: {failures}"))


def test_criterion_7_muted_device_identity():
    params = SynthCohortParams()
    cohort = synth_cohort(params)
    cfg = EqDesignConfig(device_delay=96)
    muted = EqFilter(np.zeros(cfg.filter_length), cfg, 0.0, 0.0)
    g = device_gain(96, cohort[0].sample_rate_hz)
    exact = all(
        np.array_equal(
            aided_response(ear, g, muted).samples,
            zero_extend(ear.h_occ.samples, len(aided_response(ear, g, muted))),
        )
        for ear in cohort
    )
    check("7 muted-device-identity", exact,
          f"aided == occluded bit-exactly for all {len(cohort)} ears")


def test_criterion_8_lambda_sweep_monotonicity():
    rng = np.random.default_rng(10)
    lams = [1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2]
    violations = 0
    for _ in range(50):
        d_hat = make_ir(rng.standard_normal(int(rng.integers(2, 14))))
        target = rng.standard_normal(int(rng.integers(12, 45)))
        length = int(rng.integers(2, 12))
        residuals, penalties = [], []
        for lam in lams:
            filt = design_filter(d_hat, target, EqDesignConfig(filter_length=length, lam=lam))
            residuals.append(filt.residual_norm)
            penalties.append(filt.penalty_norm)
        for lo, hi in zip(residuals, residuals[1:]):
            if hi < lo - 1e-12:
                violations += 1
        for hi, lo in zip(penalties, penalties[1:]):
            if lo > hi + 1e-12:
                violations += 1
    check("8 lambda-sweep-monotonicity", violations == 0,
          f"{violations} violations over 50 instances x {len(lams)} lambdas")


def test_criterion_9_determinism_and_scale(grid_run):
    n_records = len(list((grid_run["out"] / "runs").glob("*.json")))
    ok = (
        grid_run["rcs"] == (0, 0)
        and grid_run["elapsed"] < 60.0
        and grid_run["identical"]
        and n_records == 336
        and not grid_run["summary"]["failures"]
    )
    check("9 determinism-and-scale", ok,
          f"336-run grid in {grid_run['elapsed']:.1f} s (<60), rerun byte-identical: "
          f"{grid_run['identical']}, records: {n_records}")
