import numpy as np
import pytest

from eqforge import solvers
from eqforge.signals import ImpulseResponse

RATE = 16000


def make_ir(samples, rate=RATE) -> ImpulseResponse:
    return ImpulseResponse(np.asarray(samples, dtype=np.float64), rate)


def unit_impulse(delay: int, rate=RATE) -> ImpulseResponse:
    """An impulse of amplitude 1 at index `delay`, in a response of `delay` + 1 samples."""
    samples = np.zeros(delay + 1)
    samples[delay] = 1.0
    return make_ir(samples, rate)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)


@pytest.fixture
def factorizations(monkeypatch):
    """The contexts of the `cholesky_factor` calls from here on, none kept from before."""
    factor = solvers.cholesky_factor
    contexts = []

    def counted(first_row, *, context):
        contexts.append(context)
        return factor(first_row, context=context)

    monkeypatch.setattr(solvers, "cholesky_factor", counted)
    solvers._factor.cache_clear()
    return contexts
