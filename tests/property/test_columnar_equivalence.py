"""Differential-equivalence suite: columnar kernel vs the reference scalar spec.

The columnar store (:mod:`repro.core.columnar`) ships two kernels that must
be *bit-identical*, not merely distributionally equal: the vectorized numpy
level sweep and ``reference`` — a naive scalar linear-scan implementation of
the per-contest replacement rule that serves as the executable
specification.  Both kernels consume the same pre-drawn randomness block, so
under one seed every count, priority, label and query answer must match
exactly.

Every property here drives a full sketch (not the bare store) through
hypothesis-generated streams — unit and weighted rows, heavy duplication,
adversarial min-ties, capacity churn — once per kernel, then asserts
query-level identity: point estimates, subset sums with variances, heavy
hitters, top-k, merges, and serialize → restore → continue continuations.

The fast side runs with the ``REPRO_KERNEL`` feature flag unset (the numpy
default); the CI kernel-matrix job also runs this suite with
``REPRO_KERNEL=reference``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DeterministicSpaceSaving,
    UnbiasedSpaceSaving,
    merge_unbiased,
    resolve_kernel_name,
)
from repro.errors import InvalidParameterError

# The fast side's feature-flag setting: ``None`` means unset (numpy kernel).
KERNEL_FLAGS = [None]


def _flag_id(flag):
    return "flag-unset" if flag is None else f"flag-{flag}"


def make_sketch(kernel, cls=UnbiasedSpaceSaving, *, capacity, seed, **kwargs):
    """Build a sketch whose columnar store uses ``kernel``.

    ``kernel`` is a kernel name or ``None`` (flag unset), applied through
    the environment exactly as a deployment would set it.
    """
    previous = os.environ.pop("REPRO_KERNEL", None)
    try:
        if kernel is not None:
            os.environ["REPRO_KERNEL"] = kernel
        return cls(capacity, seed=seed, **kwargs)
    finally:
        os.environ.pop("REPRO_KERNEL", None)
        if previous is not None:
            os.environ["REPRO_KERNEL"] = previous


def drive(sketch, chunks, weights_chunks=None):
    """Replay a stream as a mix of scalar updates and array batches."""
    for position, chunk in enumerate(chunks):
        weights = None if weights_chunks is None else weights_chunks[position]
        if position % 2 == 0:
            sketch.update_batch(np.asarray(chunk, dtype=np.int64), weights)
        else:
            for row_index, item in enumerate(chunk):
                weight = 1.0 if weights is None else weights[row_index]
                sketch.update(int(item), weight)
    return sketch


def assert_query_identical(left, right):
    """Full query-surface identity between two sketches."""
    assert left.estimates() == right.estimates()
    assert left.total_weight == right.total_weight
    assert left.rows_processed == right.rows_processed
    assert left.total_estimate() == right.total_estimate()
    if left.estimates():
        labels = sorted(left.estimates())
        half = set(labels[: len(labels) // 2 + 1])
        lhs = left.subset_sum_with_error(lambda item: item in half)
        rhs = right.subset_sum_with_error(lambda item: item in half)
        assert lhs.estimate == rhs.estimate
        assert lhs.variance == rhs.variance
        assert left.heavy_hitters(0.05) == right.heavy_hitters(0.05)
        assert left.top_k(5) == right.top_k(5)


# ---------------------------------------------------------------------------
# Stream strategies
# ---------------------------------------------------------------------------

# Small label universes against small capacities force constant min-bin
# contests; the duplicated blocks create adversarial min-ties (many bins
# sitting at the same level simultaneously).
unit_streams = st.lists(
    st.lists(st.integers(min_value=0, max_value=30), min_size=0, max_size=60),
    min_size=1,
    max_size=5,
)

weighted_chunks = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=25),
            st.floats(min_value=0.0078125, max_value=8.0, allow_nan=False, width=32),
        ),
        min_size=0,
        max_size=50,
    ),
    min_size=1,
    max_size=4,
)


@pytest.mark.parametrize("flag", KERNEL_FLAGS, ids=_flag_id)
class TestColumnarEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(chunks=unit_streams, capacity=st.integers(min_value=2, max_value=16), seed=st.integers(0, 2**20))
    def test_unit_streams_match_reference(self, flag, chunks, capacity, seed):
        fast = drive(make_sketch(flag, capacity=capacity, seed=seed), chunks)
        spec = drive(make_sketch("reference", capacity=capacity, seed=seed), chunks)
        assert_query_identical(fast, spec)

    @settings(max_examples=200, deadline=None)
    @given(chunks=weighted_chunks, capacity=st.integers(min_value=2, max_value=12), seed=st.integers(0, 2**20))
    def test_weighted_streams_match_reference(self, flag, chunks, capacity, seed):
        items = [[item for item, _ in chunk] for chunk in chunks]
        weights = [[weight for _, weight in chunk] for chunk in chunks]
        fast = drive(make_sketch(flag, capacity=capacity, seed=seed), items, weights)
        spec = drive(make_sketch("reference", capacity=capacity, seed=seed), items, weights)
        assert_query_identical(fast, spec)

    @settings(max_examples=200, deadline=None)
    @given(
        distinct=st.integers(min_value=4, max_value=40),
        repeats=st.integers(min_value=1, max_value=4),
        capacity=st.integers(min_value=2, max_value=6),
        seed=st.integers(0, 2**20),
    )
    def test_adversarial_min_ties_and_churn(self, flag, distinct, repeats, capacity, seed):
        # Every label appears with the same weight, so after warm-up *all*
        # bins tie at the minimum and every arrival is a contest decided
        # purely by tie-breaking; distinct >> capacity adds label churn.
        stream = list(range(distinct)) * repeats
        chunks = [stream, list(reversed(stream))]
        fast = drive(make_sketch(flag, capacity=capacity, seed=seed), chunks)
        spec = drive(make_sketch("reference", capacity=capacity, seed=seed), chunks)
        assert_query_identical(fast, spec)
        assert fast._label_replacements == spec._label_replacements

    @settings(max_examples=200, deadline=None)
    @given(chunks=unit_streams, capacity=st.integers(min_value=2, max_value=12), seed=st.integers(0, 2**20))
    def test_deterministic_space_saving_matches_reference(self, flag, chunks, capacity, seed):
        fast = drive(make_sketch(flag, cls=DeterministicSpaceSaving, capacity=capacity, seed=seed), chunks)
        spec = drive(
            make_sketch("reference", cls=DeterministicSpaceSaving, capacity=capacity, seed=seed),
            chunks,
        )
        assert fast.estimates() == spec.estimates()
        assert fast.bins() == spec.bins()
        assert fast.guaranteed_heavy_hitters(0.1) == spec.guaranteed_heavy_hitters(0.1)
        assert fast.to_misra_gries_estimates() == spec.to_misra_gries_estimates()

    @settings(max_examples=200, deadline=None)
    @given(
        head=st.lists(st.integers(min_value=0, max_value=30), max_size=80),
        tail=st.lists(st.integers(min_value=0, max_value=30), max_size=80),
        capacity=st.integers(min_value=2, max_value=12),
        seed=st.integers(0, 2**20),
    )
    def test_checkpoint_restore_continue(self, flag, head, tail, capacity, seed):
        # A restored sketch must continue the stream bit-identically to the
        # original — counts, priorities and the kernel's RNG stream all
        # survive the round trip.
        original = drive(make_sketch(flag, capacity=capacity, seed=seed), [head])
        restored = UnbiasedSpaceSaving.from_bytes(original.to_bytes())
        drive(original, [tail])
        drive(restored, [tail])
        assert_query_identical(original, restored)

    @settings(max_examples=200, deadline=None)
    @given(
        left=st.lists(st.integers(min_value=0, max_value=25), max_size=60),
        right=st.lists(st.integers(min_value=25, max_value=50), max_size=60),
        capacity=st.integers(min_value=3, max_value=10),
        seed=st.integers(0, 2**20),
    )
    def test_merge_unbiased_matches_reference(self, flag, left, right, capacity, seed):
        fast_pair = [
            drive(make_sketch(flag, capacity=capacity, seed=seed), [left]),
            drive(make_sketch(flag, capacity=capacity, seed=seed + 1), [right]),
        ]
        spec_pair = [
            drive(make_sketch("reference", capacity=capacity, seed=seed), [left]),
            drive(make_sketch("reference", capacity=capacity, seed=seed + 1), [right]),
        ]
        merged_fast = merge_unbiased(*fast_pair, seed=seed)
        merged_spec = merge_unbiased(*spec_pair, seed=seed)
        assert merged_fast.estimates() == merged_spec.estimates()
        assert merged_fast.total_weight == merged_spec.total_weight


@settings(max_examples=200, deadline=None)
@given(
    stream=st.lists(st.integers(min_value=0, max_value=20), max_size=60),
    capacity=st.integers(min_value=2, max_value=8),
    seed=st.integers(0, 2**20),
)
def test_scalar_update_equals_batch_of_one(stream, capacity, seed):
    """update(item) and update_batch([item]) draw identically (k = 1 kernel)."""
    scalar = make_sketch(None, capacity=capacity, seed=seed)
    batched = make_sketch(None, capacity=capacity, seed=seed)
    for item in stream:
        scalar.update(item)
        batched.update_batch(np.asarray([item], dtype=np.int64))
    assert_query_identical(scalar, batched)


def test_kernel_flag_resolution():
    """The flag resolves exactly as documented; unknown names raise."""
    previous = os.environ.pop("REPRO_KERNEL", None)
    try:
        assert resolve_kernel_name(None) == "numpy"
        os.environ["REPRO_KERNEL"] = "reference"
        assert resolve_kernel_name(None) == "reference"
        # Any other name raises, numba included.
        os.environ["REPRO_KERNEL"] = "numba"
        with pytest.raises(InvalidParameterError, match="numba"):
            resolve_kernel_name(None)
    finally:
        os.environ.pop("REPRO_KERNEL", None)
        if previous is not None:
            os.environ["REPRO_KERNEL"] = previous


@settings(max_examples=200, deadline=None)
@given(
    head=st.lists(st.integers(min_value=0, max_value=10), max_size=20),
    tail=st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=10),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False, width=16),
        ),
        max_size=20,
    ),
    seed=st.integers(0, 2**20),
)
def test_mixed_numeric_labels_never_alias(head, tail, seed):
    """Batches mixing int and float labels must not truncate floats to ints.

    Regression: the int membership fast path once cast whole Python-list
    batches to int64 when the *first* element was an int, silently
    crediting 2.5's weight to bin 2.  With capacity ≥ the number of
    distinct labels no replacement contest ever fires, so the sketch must
    hold the exact multiset counts of the stream — aliasing breaks that.
    The int-only head batch arms the store's int-labels fast path before
    the mixed batch arrives.
    """
    from collections import Counter

    expected = Counter(head + tail)
    capacity = max(2, len(expected))
    sketch = make_sketch(None, capacity=capacity, seed=seed)
    if head:
        sketch.update_batch(list(head))
    if tail:
        sketch.update_batch(list(tail))
    assert sketch.estimates() == {k: float(v) for k, v in expected.items()}


def test_mixed_batch_keeps_float_label_distinct():
    """The reviewer's exact case: [2, 2.5] into a store already holding 2."""
    sketch = make_sketch(None, capacity=4, seed=3)
    sketch.update(2)
    sketch.update_batch([2, 2.5])
    estimates = sketch.estimates()
    assert estimates[2] == 2.0
    assert estimates[2.5] == 1.0


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=6),
    kr=st.integers(min_value=1, max_value=12),
    seed=st.integers(0, 2**20),
)
def test_sweep_matches_reference_under_float_absorption(m, kr, seed):
    """Kernels stay bit-identical when ``level + weight == level`` (float64).

    Regression: the numpy level sweep once retired an entire tied level in
    one pass, assuming every winner's count moves strictly upward.  With
    counts near 2**53 × weight the addition is absorbed, the winner stays
    at the level, and the reference kernel re-selects it under its fresh
    priority — the sweep must truncate the retirement and re-derive the
    tied set at that point.
    """
    from repro.core.columnar import _sweep_numpy, _sweep_reference

    rng = np.random.default_rng(seed)
    counts = np.full(m, 1e16)  # 1e16 + 2.0 == 1e16 in float64
    prio = rng.random(m)
    weights = rng.choice([0.5, 1.0, 2.0], kr)
    r_draws = rng.random(kr)
    u_draws = rng.random(kr)
    for always_replace in (False, True):
        fast = _sweep_numpy(
            counts.copy(), prio.copy(), weights, r_draws, u_draws, always_replace
        )
        spec = _sweep_reference(
            counts.copy(), prio.copy(), weights, r_draws, u_draws, always_replace
        )
        for got, expected in zip(fast, spec):
            assert np.array_equal(got, expected)
