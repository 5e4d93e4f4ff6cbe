"""Shared helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from regap.core import IterationTrace
from regap.phase import PhaseInstance, box_support, smooth_object, synthesize

settings.register_profile("suite", deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture
def iterates(monkeypatch):
    """Every cycle's ``(even, odd)`` Points, per trace, in append order.

    A trace keeps the iterates of its first and last two records only; a
    test that compares whole orbits reads them here, captured as each
    record is appended.
    """
    captured: dict[IterationTrace, list] = {}
    append = IterationTrace.append

    def capture(trace, record):
        pair = (record.even, record.odd)
        append(trace, record)
        captured.setdefault(trace, []).append(pair)
    monkeypatch.setattr(IterationTrace, "append", capture)
    return captured


def smooth_instance(seed: int, shape=(32, 32), photon_scale: float = 1e3,
                    sigma: float = 1.0) -> PhaseInstance:
    """Smoothed random object on a centered 12x12 box, Poisson observed."""
    support = box_support(shape, 6)
    obj = smooth_object(support, seed, sigma)
    return synthesize(shape, support, photon_scale, seed, object_image=obj)


def noiseless_instance(seed: int, shape=(32, 32)) -> PhaseInstance:
    """Same object family but observed without noise (consistent data)."""
    support = box_support(shape, 6)
    obj = smooth_object(support, seed)
    intensity = np.abs(np.fft.fftn(obj, norm="ortho")) ** 2
    return PhaseInstance(object_image=obj, noiseless_intensity=intensity,
                         observed=intensity.copy(), support=support,
                         photon_scale=float("inf"), seed=seed)
