"""pytest-benchmark micro-benchmarks for the columnar kernel's hot paths.

The end-to-end numbers (``perfbench/run.py``) tell you *that* ingestion
regressed; these cases tell you *where*.  Each one
isolates a single phase of :meth:`ColumnarCounterStore.apply_batch`:

* **scatter-add** — the all-present steady state: one fancy-indexed
  ``counts[slots] += weights`` plus a bulk priority refresh;
* **min-replacement** — the contest sweep over an all-absent batch on a
  full store (the level-sweep kernel itself);
* **dict-to-index lookup** — membership resolution of a batch against
  the label map, on both the sorted-searchsorted integer fast path and
  the generic dict-walk fallback.

Where a phase dispatches through a sweep kernel, the numpy kernel is
benchmarked against the ``reference`` executable spec.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_columnar_kernel.py
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.columnar import (
    ColumnarCounterStore,
    _sweep_numpy,
    _sweep_reference,
)

CAPACITY = 256
BATCH = 20_000

def make_store(kernel: str, *, labels=None) -> ColumnarCounterStore:
    store = ColumnarCounterStore(
        CAPACITY,
        generator=np.random.Generator(np.random.PCG64(0)),
        kernel=kernel,
    )
    if labels is not None:
        store.load(labels, np.arange(1, len(labels) + 1, dtype=np.float64))
    return store


@pytest.fixture(scope="module")
def resident_labels():
    return list(range(CAPACITY))


@pytest.fixture(scope="module")
def present_batch(resident_labels):
    rng = np.random.default_rng(1)
    items = rng.choice(np.asarray(resident_labels, dtype=np.int64), size=BATCH)
    unique, sums = np.unique(items, return_counts=True)
    return unique, sums.astype(np.float64)


@pytest.fixture(scope="module")
def absent_batch():
    # Labels disjoint from the resident range: every row is a contest.
    unique = np.arange(CAPACITY, CAPACITY + 2_000, dtype=np.int64)
    return unique, np.ones(unique.size, dtype=np.float64)


# ----------------------------------------------------------------------
# Scatter-add (all-present steady state)
# ----------------------------------------------------------------------
def _scatter(store, batch):
    unique, weights = batch
    store.apply_batch(unique, weights)
    return store


def test_scatter_add_numpy(benchmark, resident_labels, present_batch):
    store = make_store("numpy", labels=resident_labels)
    benchmark(_scatter, store, present_batch)
    assert len(store) == CAPACITY


# ----------------------------------------------------------------------
# Min-replacement sweep (all-absent batch on a full store)
# ----------------------------------------------------------------------
def _contest_round(kernel, resident_labels, batch):
    store = make_store(kernel, labels=resident_labels)
    unique, weights = batch
    store.apply_batch(unique, weights)
    return store


def test_min_replacement_sweep_numpy(benchmark, resident_labels, absent_batch):
    store = benchmark(_contest_round, "numpy", resident_labels, absent_batch)
    assert len(store) == CAPACITY


def test_min_replacement_sweep_reference(benchmark, resident_labels):
    # The executable spec is O(contests * capacity); a smaller batch keeps
    # the benchmark round sub-second while still timing the same loop.
    unique = np.arange(CAPACITY, CAPACITY + 200, dtype=np.int64)
    batch = (unique, np.ones(unique.size, dtype=np.float64))
    store = benchmark(_contest_round, "reference", resident_labels, batch)
    assert len(store) == CAPACITY


def _raw_sweep(sweep, counts, prio, weights, r_draws, u_draws):
    return sweep(counts.copy(), prio.copy(), weights, r_draws, u_draws, False)


@pytest.fixture(scope="module")
def sweep_inputs():
    rng = np.random.default_rng(2)
    counts = rng.integers(1, 5, size=CAPACITY).astype(np.float64)
    prio = rng.random(CAPACITY)
    weights = np.ones(2_000, dtype=np.float64)
    return counts, prio, weights, rng.random(2_000), rng.random(2_000)


def test_raw_sweep_numpy(benchmark, sweep_inputs):
    slots, accepted, levels = benchmark(_raw_sweep, _sweep_numpy, *sweep_inputs)
    assert slots.size == 2_000


def test_raw_sweep_reference(benchmark, sweep_inputs):
    counts, prio, _, r_draws, u_draws = sweep_inputs
    weights = np.ones(200, dtype=np.float64)
    slots, accepted, levels = benchmark(
        _raw_sweep, _sweep_reference, counts, prio, weights,
        r_draws[:200], u_draws[:200],
    )
    assert slots.size == 200


# ----------------------------------------------------------------------
# Dict-to-index membership lookup
# ----------------------------------------------------------------------
def test_member_lookup_sorted_int_path(benchmark, resident_labels, present_batch):
    # Integer labels ride the sorted-searchsorted vectorized path.
    store = make_store("numpy", labels=resident_labels)
    unique, _ = present_batch
    slots = benchmark(store._member_slots, unique)
    assert (slots >= 0).all()


def test_member_lookup_generic_dict_path(benchmark):
    # String labels force the generic per-item dict walk — the fallback
    # whose cost the fast path exists to avoid.
    labels = [f"item-{position}" for position in range(CAPACITY)]
    store = make_store("numpy", labels=labels)
    rng = np.random.default_rng(3)
    batch = [labels[i] for i in rng.integers(0, CAPACITY, size=2_000)]
    slots = benchmark(store._member_slots, batch)
    assert (slots >= 0).all()
