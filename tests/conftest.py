"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# tests/ holds no __init__.py packages; make the shared helpers under
# tests/support/ importable (``from support.chaos import ...``) from any
# test module regardless of which directory pytest was invoked from.
_TESTS_DIR = str(Path(__file__).resolve().parent)
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)

from repro.streams.frequency import geometric_counts, scaled_weibull_counts, zipf_counts
from repro.streams.generators import exchangeable_stream, iterate_rows

#: Single shared seed for batch-vs-scalar equivalence tests: both the batch
#: workload and every sketch under test derive from it, so runs are
#: deterministic across machines and pytest orderings.
BATCH_SEED = 20180618


@pytest.fixture
def np_rng() -> np.random.Generator:
    """A seeded numpy generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_skewed_model():
    """A small but skewed frequency model (fast to stream in tests)."""
    return scaled_weibull_counts(num_items=120, shape=0.4, target_total=6_000)


@pytest.fixture
def small_geometric_model():
    """A small geometric frequency model."""
    return geometric_counts(num_items=150, success_probability=0.05)


@pytest.fixture
def small_stream(small_skewed_model, np_rng):
    """A shuffled (exchangeable) stream of the small skewed model."""
    return list(iterate_rows(exchangeable_stream(small_skewed_model, rng=np_rng)))


@pytest.fixture
def batch_seed() -> int:
    """The shared deterministic seed for batch-ingestion equivalence tests."""
    return BATCH_SEED


@pytest.fixture
def batch_workload(batch_seed):
    """A deterministic skewed row batch for batch-vs-scalar equivalence tests.

    Returned as a plain Python list; tests that exercise the numpy fast path
    wrap it in ``np.asarray`` themselves so both collapse paths are covered
    on identical data.
    """
    model = zipf_counts(num_items=400, exponent=1.1, total=8_000)
    stream = exchangeable_stream(model, rng=np.random.default_rng(batch_seed))
    return list(iterate_rows(stream))
