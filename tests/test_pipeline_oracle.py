"""Every condition of the grid against a dense oracle that shares no code with the pipeline.

The oracle works from the definitions alone: it picks each condition's design
ears, plants and RTF sources from its own table, solves every least-squares
problem with `np.linalg.lstsq` on loop-built convolution matrices, convolves
the aided chain explicitly and scores it with a direct DFT sum.
"""

import numpy as np
import hypothesis.strategies as st
from hypothesis import HealthCheck, assume, given, settings

from eqforge.cohort import CohortData, EarDataset
from eqforge.conditions import condition_named, run_condition
from eqforge.design import EqDesignConfig
from conftest import RATE, make_ir

N_FFT = 4096
BAND_HZ = (100.0, 7000.0)
MAX_RTF_TAPS = 512
ORACLE_CONDITION_LIMIT = 1e10  # far below the pipeline's own limit of 1e12
RESPONSES = ("h_m", "h_open", "h_occ", "d_true", "d_inear", "d_model")


def conv_matrix(h, n_cols):
    """Full convolution matrix of `h` with `n_cols` columns, one shifted column at a time."""
    out = np.zeros((len(h) + n_cols - 1, n_cols))
    for j in range(n_cols):
        out[j : j + len(h), j] = h
    return out


def fitted(target, rows):
    """`target` cut or zero-extended to `rows` samples."""
    out = np.zeros(rows)
    keep = min(rows, len(target))
    out[:keep] = target[:keep]
    return out


def lstsq(blocks, targets):
    """Least-squares solution of the stacked blocks; draws the oracle cannot trust are skipped."""
    matrix = np.vstack(blocks)
    assume(np.linalg.cond(matrix.T @ matrix) <= ORACLE_CONDITION_LIMIT)
    return np.linalg.lstsq(matrix, np.concatenate(targets), rcond=None)[0]


def meaning(condition, subject, peers, dummy):
    """(design ear, plant response, ears its RTFs are averaged over) for each design ear."""
    return {
        "Optimal": [(subject, "d_true", [subject])],
        "GenericDH": [(dummy, "d_true", [dummy])],
        "NaiveInEar": [(subject, "d_inear", [subject])],
        "ModelBased": [(subject, "d_model", [subject])],
        "GenericAV": [(peer, "d_true", [peer]) for peer in peers],
        "PracticalModelBased": [(subject, "d_model", peers)],
        "PracticalOptimal": [(subject, "d_true", peers)],
    }[condition]


def oracle_rtf(ears, name, lead):
    """The RTF r minimizing sum_k |h_m,k * r - (lead zeros, then ear k's `name`)|^2."""
    n = max(min(lead + len(ear[name]), MAX_RTF_TAPS) for ear in ears)
    blocks = [conv_matrix(ear["h_m"], n) for ear in ears]
    delayed = [np.concatenate([np.zeros(lead), ear[name]]) for ear in ears]
    return lstsq(blocks, [fitted(t, len(b)) for b, t in zip(blocks, delayed)])


def oracle_filter(ears, design, cfg):
    """The stacked system [H_1; ...; H_K; sqrt(lam K) W] solved against [t_1; ...; t_K; 0]."""
    blocks, targets = [], []
    for ear, plant, sources in design:
        r_open = oracle_rtf([ears[s] for s in sources], "h_open", cfg.acausal_lead)
        r_occ = oracle_rtf([ears[s] for s in sources], "h_occ", cfg.acausal_lead)
        inverted = fitted(r_occ[cfg.device_delay:], len(r_occ))  # the device delay undone
        n = max(len(r_open), len(r_occ))
        target = fitted(r_open, n) - fitted(inverted, n)
        blocks.append(conv_matrix(ears[ear][plant], cfg.filter_length))
        targets.append(fitted(target, len(blocks[-1])))
    blocks.append(np.sqrt(cfg.lam * len(design)) * conv_matrix(cfg.weighting, cfg.filter_length))
    targets.append(np.zeros(len(blocks[-1])))
    return lstsq(blocks, targets)


def spectrum_db(h):
    """20 log10 of the direct DFT sum of `h` on bins 0..N_FFT/2, exact zeros at -200 dB."""
    k = np.arange(N_FFT // 2 + 1)[:, None]
    phases = (k * np.arange(len(h))[None, :]) % N_FFT  # exact integers before the angle
    magnitude = np.abs(np.exp(-2j * np.pi * phases / N_FFT) @ h)
    return np.where(magnitude > 0.0, 20.0 * np.log10(np.where(magnitude > 0.0, magnitude, 1.0)),
                    -200.0)


def oracle_lsd(ear, a, cfg):
    """Band RMS dB distance of the aided ear (delayed h_m, filter, d_true, plus h_occ) to h_open."""
    device = np.concatenate([np.zeros(cfg.device_delay), ear["h_m"]])
    through_filter = conv_matrix(device, len(a)) @ a
    chain = conv_matrix(through_filter, len(ear["d_true"])) @ ear["d_true"]
    n = max(len(chain), len(ear["h_occ"]))
    aided = fitted(chain, n) + fitted(ear["h_occ"], n)
    freqs = np.arange(N_FFT // 2 + 1) * RATE / N_FFT
    band = (freqs >= BAND_HZ[0]) & (freqs <= BAND_HZ[1])
    diff = spectrum_db(aided)[band] - spectrum_db(ear["h_open"])[band]
    return float(np.sqrt(np.mean(diff * diff)))


@st.composite
def cohorts(draw):
    """A tiny cohort plus a dummy as plain arrays, a subject, and a design config."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = [f"ear{i}" for i in range(draw(st.integers(2, 4)))] + ["dummy"]
    ears = {sid: {name: rng.standard_normal(draw(st.integers(8, 24))) for name in RESPONSES}
            for sid in ids}
    cfg = EqDesignConfig(filter_length=draw(st.integers(4, 12)),
                         lam=draw(st.sampled_from([0.0, 0.1, 10.0])),
                         acausal_lead=draw(st.integers(0, 4)),
                         device_delay=draw(st.integers(0, 3)),
                         weighting=tuple(rng.standard_normal(draw(st.integers(1, 3)))))
    return ears, draw(st.sampled_from(ids[:-1])), cfg


CONDITIONS = ("Optimal", "GenericDH", "NaiveInEar", "ModelBased", "GenericAV",
              "PracticalModelBased", "PracticalOptimal")


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cohorts())
def test_every_condition_matches_the_dense_oracle(drawn):
    ears, subject, cfg = drawn
    peers = [sid for sid in ears if sid not in (subject, "dummy")]
    oracle = {c: oracle_filter(ears, meaning(c, subject, peers, "dummy"), cfg) for c in CONDITIONS}

    datasets = {sid: EarDataset(sid, **{k: make_ir(v) for k, v in ear.items()})
                for sid, ear in ears.items()}
    cohort = CohortData.of([datasets[sid] for sid in ears if sid != "dummy"], datasets["dummy"])
    for condition, want in oracle.items():
        report = run_condition(cohort, subject, condition_named(condition), cfg)
        got = report.eq_filter.coefficients
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want), condition
        assert abs(report.lsd_db - oracle_lsd(ears[subject], want, cfg)) <= 1e-9, condition
