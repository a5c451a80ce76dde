"""Shared fixtures and hypothesis configuration for the test-suite."""

from __future__ import annotations

from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Keep hypothesis deterministic-ish and fast in CI; examples are still
# random per run, which is what we want for rule-soundness checks.
settings.register_profile(
    "repro",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed NumPy generator for reproducible test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def pool() -> Iterator[ThreadPoolExecutor]:
    """A two-thread stdlib pool: the host executor every ``executor=`` takes."""
    with ThreadPoolExecutor(max_workers=2) as ex:
        yield ex
