"""Batched ingestion: update_batch equivalence and the sharded executor.

Three families of guarantees are pinned down here:

1. For every sketch that overrides ``update_batch``, the batched state
   equals a scalar ``update`` loop over the batch's collapsed
   ``(item, summed weight)`` pairs in first-occurrence order, under the
   same seed (exact equality, including the randomized sketches, because
   the batch path consumes the RNG identically).
2. For the purely additive sketches (CountMin without conservative update,
   Count Sketch, bottom-k) the batched state also equals the raw row loop
   exactly.
3. ``ShardedSketch`` answers match manually built per-shard sketches and a
   single merged sketch produced by ``merge_many_unbiased``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.batching import collapse_batch
from repro.core.deterministic_space_saving import DeterministicSpaceSaving
from repro.core.merge import merge_many_unbiased
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.distributed.partition import scatter_batch, stable_shard
from repro.distributed.sharded import ShardedSketch
from repro.errors import InvalidParameterError, UnsupportedUpdateError
from repro.core.base import FrequentItemSketch
from repro.frequent.count_sketch import CountSketch
from repro.frequent.countmin import CountMinSketch
from repro.frequent.lossy_counting import LossyCountingSketch
from repro.frequent.misra_gries import MisraGriesSketch
from repro.frequent.sticky_sampling import StickySamplingSketch
from repro.sampling.bottom_k import BottomKSketch
from repro.sampling.priority import PrioritySample, StreamingPrioritySampler
from repro.sampling.varopt import varopt_sample, varopt_sample_batch


# ----------------------------------------------------------------------
# collapse_batch
# ----------------------------------------------------------------------
class TestCollapseBatch:
    def test_unit_weights_first_occurrence_order(self):
        unique, collapsed, rows, total = collapse_batch(["b", "a", "b", "c", "b"])
        assert unique == ["b", "a", "c"]
        assert collapsed == [3.0, 1.0, 1.0]
        assert rows == 5
        assert total == 5.0

    def test_explicit_weights(self):
        unique, collapsed, rows, total = collapse_batch(
            ["x", "y", "x"], [1.5, 2.0, 0.5]
        )
        assert unique == ["x", "y"]
        assert collapsed == [2.0, 2.0]
        assert rows == 3
        assert total == 4.0

    def test_numpy_path_matches_generic_path(self, batch_workload):
        array = np.asarray(batch_workload, dtype=np.int64)
        assert collapse_batch(array) == collapse_batch(batch_workload)

    def test_numpy_path_with_weights(self):
        items = np.asarray([3, 1, 3, 2, 1], dtype=np.int64)
        weights = np.asarray([1.0, 2.0, 3.0, 4.0, 5.0])
        unique, collapsed, rows, total = collapse_batch(items, weights)
        assert unique == [3, 1, 2]
        assert collapsed == [4.0, 7.0, 4.0]
        assert rows == 5 and total == 15.0
        # Labels come back as Python ints so repr-based hashing matches the
        # scalar path.
        assert all(type(item) is int for item in unique)

    def test_empty_batch(self):
        assert collapse_batch([]) == ([], [], 0, 0.0)
        assert collapse_batch(np.asarray([], dtype=np.int64)) == ([], [], 0, 0.0)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(InvalidParameterError):
            collapse_batch(["a", "b"], [1.0])
        with pytest.raises(InvalidParameterError):
            collapse_batch(np.asarray([1, 2]), np.asarray([1.0]))


# ----------------------------------------------------------------------
# Batch == scalar loop over collapsed pairs (every overriding sketch)
# ----------------------------------------------------------------------
class _ExactCounterSketch(FrequentItemSketch):
    """Minimal weighted sketch using the inherited ``update_batch``."""

    def __init__(self, capacity, *, seed=None):
        super().__init__(capacity, seed=seed)
        self._exact = {}

    def update(self, item, weight=1.0):
        self._record_update(weight)
        self._exact[item] = self._exact.get(item, 0.0) + weight

    def estimate(self, item):
        return self._exact.get(item, 0.0)

    def estimates(self):
        return dict(self._exact)


SKETCH_FACTORIES = [
    pytest.param(lambda seed: UnbiasedSpaceSaving(24, seed=seed), id="uss"),
    # A warm start from bulk-loaded bins: the batch then opens on present
    # labels and occupied slots rather than an empty store.
    pytest.param(
        lambda seed: UnbiasedSpaceSaving.from_bins(
            24, {0: 3.5, 1: 12.0, 10_000: 1.25}, seed=seed
        ),
        id="uss-from-bins",
    ),
    pytest.param(lambda seed: DeterministicSpaceSaving(24, seed=seed), id="dss"),
    pytest.param(lambda seed: MisraGriesSketch(24, seed=seed), id="misra-gries"),
    pytest.param(lambda seed: CountMinSketch(width=128, depth=4, seed=seed), id="countmin"),
    pytest.param(
        lambda seed: CountMinSketch(width=128, depth=4, conservative=True, seed=seed),
        id="countmin-conservative",
    ),
    pytest.param(lambda seed: CountSketch(width=128, depth=4, seed=seed), id="countsketch"),
    pytest.param(lambda seed: BottomKSketch(24, seed=seed), id="bottom-k"),
    # No override: exercises the FrequentItemSketch base implementation.
    pytest.param(lambda seed: _ExactCounterSketch(10_000, seed=seed), id="exact-base"),
]


def _estimates_of(sketch, items):
    # CountMin / Count Sketch enumerate only a tracked-key view (absent
    # here), so compare them on explicit per-item point estimates.
    estimates = getattr(sketch, "estimates", None)
    if estimates is not None and not isinstance(sketch, (CountMinSketch, CountSketch)):
        return sketch.estimates()
    return {item: sketch.estimate(item) for item in items}


@pytest.mark.parametrize("factory", SKETCH_FACTORIES)
class TestBatchMatchesCollapsedScalarLoop:
    def test_list_input(self, factory, batch_workload, batch_seed):
        batched = factory(batch_seed).update_batch(batch_workload)
        scalar = factory(batch_seed)
        unique, collapsed, _, __ = collapse_batch(batch_workload)
        for item, weight in zip(unique, collapsed):
            scalar.update(item, weight)
        assert _estimates_of(batched, unique) == _estimates_of(scalar, unique)
        assert batched.total_weight == scalar.total_weight
        assert batched.rows_processed == len(batch_workload)

    def test_numpy_input_matches_list_input(self, factory, batch_workload, batch_seed):
        from_list = factory(batch_seed).update_batch(batch_workload)
        from_array = factory(batch_seed).update_batch(
            np.asarray(batch_workload, dtype=np.int64)
        )
        items = set(batch_workload)
        assert _estimates_of(from_list, items) == _estimates_of(from_array, items)
        assert from_list.rows_processed == from_array.rows_processed

    def test_chunked_batches_accumulate(self, factory, batch_workload, batch_seed):
        whole = factory(batch_seed)
        chunked = factory(batch_seed)
        unique, collapsed, _, __ = collapse_batch(batch_workload)
        for item, weight in zip(unique, collapsed):
            whole.update(item, weight)
        half = len(batch_workload) // 2
        # Chunk at a collapsed-pair boundary so both sides see the same
        # weighted update sequence.
        pairs = list(zip(unique, collapsed))
        first, second = pairs[:half], pairs[half:]
        chunked.update_batch([p[0] for p in first], [p[1] for p in first])
        chunked.update_batch([p[0] for p in second], [p[1] for p in second])
        assert _estimates_of(whole, unique) == _estimates_of(chunked, unique)


# ----------------------------------------------------------------------
# Additive sketches: batch == raw row loop, exactly
# ----------------------------------------------------------------------
ADDITIVE_FACTORIES = [
    pytest.param(lambda seed: CountMinSketch(width=128, depth=4, seed=seed), id="countmin"),
    pytest.param(lambda seed: CountSketch(width=128, depth=4, seed=seed), id="countsketch"),
    pytest.param(lambda seed: BottomKSketch(24, seed=seed), id="bottom-k"),
]


@pytest.mark.parametrize("factory", ADDITIVE_FACTORIES)
def test_additive_batch_matches_raw_row_loop(factory, batch_workload, batch_seed):
    batched = factory(batch_seed).update_batch(batch_workload)
    scalar = factory(batch_seed)
    for row in batch_workload:
        scalar.update(row)
    items = set(batch_workload)
    assert {i: batched.estimate(i) for i in items} == {
        i: scalar.estimate(i) for i in items
    }
    assert batched.rows_processed == scalar.rows_processed
    assert batched.total_weight == scalar.total_weight


@pytest.mark.parametrize(
    "factory",
    [
        lambda: LossyCountingSketch(epsilon=0.01),
        lambda: StickySamplingSketch(epsilon=0.02, seed=20180618),
    ],
    ids=["lossy_counting", "sticky_sampling"],
)
def test_unit_row_batch_matches_scalar_loop(factory, batch_workload):
    # The dedicated unit-row overrides replay the batch exactly as the
    # scalar loop would — same bucket boundaries / rate halvings, same RNG
    # draw order — so the final state is identical, not just statistically
    # equivalent.
    scalar = factory()
    for row in batch_workload:
        scalar.update(row)
    batched = factory()
    batched.update_batch(batch_workload)
    assert batched.estimates() == scalar.estimates()
    assert batched.rows_processed == scalar.rows_processed
    assert batched.total_weight == scalar.total_weight

    array_batched = factory()
    array_batched.update_batch(np.asarray(batch_workload, dtype=np.int64))
    assert array_batched.estimates() == scalar.estimates()


@pytest.mark.parametrize(
    "factory",
    [
        lambda: LossyCountingSketch(epsilon=0.01),
        lambda: StickySamplingSketch(epsilon=0.02, seed=20180618),
    ],
    ids=["lossy_counting", "sticky_sampling"],
)
def test_unit_row_batch_split_points_are_irrelevant(factory, batch_workload):
    # Splitting the same rows into arbitrary chunks (crossing bucket and
    # rate-change boundaries mid-chunk) leaves the state unchanged.
    whole = factory()
    whole.update_batch(batch_workload)
    chunked = factory()
    for start in range(0, len(batch_workload), 997):
        chunked.update_batch(batch_workload[start : start + 997])
    assert chunked.estimates() == whole.estimates()
    assert chunked.rows_processed == whole.rows_processed


def test_unit_row_batch_weight_validation():
    with pytest.raises(UnsupportedUpdateError):
        LossyCountingSketch(epsilon=0.1).update_batch(["a", "b"], [1.0, 2.0])
    with pytest.raises(UnsupportedUpdateError):
        StickySamplingSketch(epsilon=0.1, seed=0).update_batch(["a"], [0.5])
    with pytest.raises(InvalidParameterError):
        LossyCountingSketch(epsilon=0.1).update_batch(["a", "b"], [1.0])
    # All-ones weights are accepted as unit rows.
    sketch = StickySamplingSketch(epsilon=0.1, seed=0)
    sketch.update_batch(["a", "b", "a"], [1, 1, 1])
    assert sketch.rows_processed == 3


def test_unit_only_sketches_accept_duplicate_batches():
    # Lossy Counting is defined for unit rows only; its dedicated batch
    # override (PR 2) replays duplicates as unit rows instead of rejecting
    # the collapsed weight the generic path would produce.
    sketch = LossyCountingSketch(0.02, seed=0)
    sketch.update_batch(["a", "b", "c"])
    assert sketch.rows_processed == 3
    duplicated = LossyCountingSketch(0.02, seed=0)
    duplicated.update_batch(["a", "a"])
    assert duplicated.rows_processed == 2
    assert duplicated.estimate("a") == 2.0
    # Non-unit weights are still rejected explicitly.
    with pytest.raises(UnsupportedUpdateError):
        LossyCountingSketch(0.02, seed=0).update_batch(["a"], [2.0])


def test_update_batch_weight_validation():
    with pytest.raises(UnsupportedUpdateError):
        UnbiasedSpaceSaving(8, seed=0).update_batch(["a"], [0.0])
    with pytest.raises(UnsupportedUpdateError):
        DeterministicSpaceSaving(8, seed=0).update_batch(["a", "b"], [1.0, -1.0])
    with pytest.raises(UnsupportedUpdateError):
        MisraGriesSketch(8).update_batch(["a"], [0.5])
    with pytest.raises(UnsupportedUpdateError):
        CountMinSketch(width=16, depth=2, seed=0).update_batch(["a"], [-1.0])


def test_update_batch_float_weights_migrate_uss_store():
    sketch = UnbiasedSpaceSaving(8, seed=0)
    sketch.update_batch(["a", "b", "a"], [1.5, 2.0, 1.0])
    assert sketch.estimate("a") == 2.5
    assert sketch.total_weight == 4.5


def test_countmin_heavy_hitter_tracking_survives_batching():
    scalar = CountMinSketch(width=256, depth=4, seed=1, track_heavy_hitters=4)
    batched = CountMinSketch(width=256, depth=4, seed=1, track_heavy_hitters=4)
    rows = ["hot"] * 50 + ["warm"] * 20 + [f"cold{i}" for i in range(30)]
    for row in rows:
        scalar.update(row)
    batched.update_batch(rows)
    assert batched.heavy_hitters(0.2) == scalar.heavy_hitters(0.2)


def test_countmin_heavy_tracking_matches_collapsed_loop_under_collisions():
    # A tiny table forces hash collisions, where _track's admission decisions
    # depend on the table state at the moment each item's update lands; the
    # batch path must preserve the collapsed-loop ordering of those reads.
    rows = [f"item{i % 13}" for i in range(200)] + ["hot"] * 40
    scalar = CountMinSketch(width=8, depth=2, seed=3, track_heavy_hitters=3)
    batched = CountMinSketch(width=8, depth=2, seed=3, track_heavy_hitters=3)
    unique, collapsed, _, __ = collapse_batch(rows)
    for item, weight in zip(unique, collapsed):
        scalar.update(item, weight)
    batched.update_batch(rows)
    assert batched._heavy_members == scalar._heavy_members


# ----------------------------------------------------------------------
# Sampling layer batch entry points
# ----------------------------------------------------------------------
class TestSamplingBatchAPIs:
    def test_priority_sample_from_rows_collapses(self):
        rows = ["a", "b", "a", "c", "a", "b"]
        unique, collapsed, _, __ = collapse_batch(rows)
        direct = PrioritySample(
            dict(zip(unique, collapsed)), sample_size=2, rng=random.Random(5)
        )
        batched = PrioritySample.from_rows(rows, sample_size=2, rng=random.Random(5))
        assert batched.estimates() == direct.estimates()
        assert batched.threshold == direct.threshold

    def test_streaming_priority_offer_batch_matches_sequential(self):
        pairs = [(f"item{i}", float(i % 7 + 1)) for i in range(40)]
        sequential = StreamingPrioritySampler(8, rng=random.Random(3))
        for item, value in pairs:
            sequential.offer(item, value)
        batched = StreamingPrioritySampler(8, rng=random.Random(3)).offer_batch(
            [item for item, _ in pairs], [value for _, value in pairs]
        )
        seq_sample = {s.item: s.adjusted_value for s in sequential.result()}
        batch_sample = {s.item: s.adjusted_value for s in batched.result()}
        assert batch_sample == seq_sample

    def test_streaming_priority_offer_batch_validates_alignment(self):
        with pytest.raises(InvalidParameterError):
            StreamingPrioritySampler(4).offer_batch(["a", "b"], [1.0])

    def test_varopt_sample_batch_matches_collapsed_dict(self):
        rows = ["a", "b", "a", "c", "d", "a", "b"]
        unique, collapsed, _, __ = collapse_batch(rows)
        direct = varopt_sample(
            dict(zip(unique, collapsed)), sample_size=3, rng=random.Random(9)
        )
        batched = varopt_sample_batch(rows, sample_size=3, rng=random.Random(9))
        assert {s.item: s.adjusted_value for s in batched} == {
            s.item: s.adjusted_value for s in direct
        }


# ----------------------------------------------------------------------
# ShardedSketch
# ----------------------------------------------------------------------
class TestShardedSketch:
    NUM_SHARDS = 4
    CAPACITY = 32

    @pytest.fixture
    def sharded(self, batch_workload, batch_seed):
        sketch = ShardedSketch(self.CAPACITY, self.NUM_SHARDS, seed=batch_seed)
        sketch.update_batch(np.asarray(batch_workload, dtype=np.int64))
        return sketch

    def manual_shards(self, batch_workload, batch_seed):
        """Per-shard sketches built by hand with the same routing and seeds."""
        unique, collapsed, _, __ = collapse_batch(batch_workload)
        parts = scatter_batch(
            unique, collapsed, None, self.NUM_SHARDS, seed=batch_seed
        )
        shards = []
        for index, (items, weights, _) in enumerate(parts):
            shard = UnbiasedSpaceSaving(self.CAPACITY, seed=batch_seed + index)
            shard.update_batch(items, weights)
            shards.append(shard)
        return shards

    def test_matches_manually_built_shards(self, sharded, batch_workload, batch_seed):
        manual = self.manual_shards(batch_workload, batch_seed)
        for built, expected in zip(sharded.shards, manual):
            assert built.estimates() == expected.estimates()

    def test_routing_is_stable_and_disjoint(self, sharded):
        retained_per_shard = [set(shard.estimates()) for shard in sharded.shards]
        for index, retained in enumerate(retained_per_shard):
            for item in retained:
                assert sharded.shard_index(item) == index
        union = set().union(*retained_per_shard)
        assert len(union) == sum(len(retained) for retained in retained_per_shard)

    def test_point_and_union_queries(self, sharded, batch_workload):
        estimates = sharded.estimates()
        for item in list(estimates)[:10]:
            assert sharded.estimate(item) == estimates[item]
            assert item in sharded
        assert len(sharded) == len(estimates)
        assert sharded.rows_processed == len(batch_workload)
        # Each shard preserves its total exactly, so the union does too.
        assert sharded.total_estimate() == pytest.approx(len(batch_workload))
        even = sharded.subset_sum(lambda item: item % 2 == 0)
        assert even == pytest.approx(
            sum(v for item, v in estimates.items() if item % 2 == 0)
        )
        with_error = sharded.subset_sum_with_error(lambda item: item % 2 == 0)
        assert with_error.estimate == pytest.approx(even)
        assert with_error.variance >= 0.0

    def test_merged_goes_through_merge_machinery(
        self, sharded, batch_workload, batch_seed
    ):
        merged = sharded.merged()
        expected = merge_many_unbiased(
            list(sharded.shards), capacity=self.CAPACITY, method="pps", seed=batch_seed
        )
        assert merged.estimates() == expected.estimates()
        assert merged.capacity == self.CAPACITY
        # Each call merges afresh: seeded calls agree byte for byte, and a
        # caller's edits to one result reach neither the ensemble nor the
        # next result.
        assert sharded.merged().to_bytes() == merged.to_bytes()
        merged.update("not-a-label", 5.0)
        assert sharded.merged().estimate("not-a-label") == 0.0
        assert sharded.total_estimate() == pytest.approx(len(batch_workload))
        sharded.update(batch_workload[0])
        assert sharded.merged().total_estimate() == pytest.approx(len(batch_workload) + 1)

    def test_merged_answers_track_union(self, sharded):
        merged = sharded.merged()
        union_total = sum(sharded.estimates().values())
        assert merged.total_estimate() == pytest.approx(union_total)

    def test_scalar_updates_route_like_batches(self, batch_workload, batch_seed):
        scalar = ShardedSketch(self.CAPACITY, self.NUM_SHARDS, seed=batch_seed)
        unique, collapsed, _, __ = collapse_batch(batch_workload)
        for item, weight in zip(unique, collapsed):
            scalar.update(item, weight)
        batched = ShardedSketch(self.CAPACITY, self.NUM_SHARDS, seed=batch_seed)
        batched.update_batch(batch_workload)
        assert scalar.estimates() == batched.estimates()

    def test_heavy_hitters_and_top_k(self, sharded, batch_workload):
        top = sharded.top_k(5)
        assert len(top) == 5
        assert top == sorted(top, key=lambda kv: (-kv[1], repr(kv[0])))
        hitters = sharded.heavy_hitters(0.01)
        threshold = 0.01 * len(batch_workload)
        assert all(count >= threshold for count in hitters.values())

    def test_unseeded_shards_are_entropy_seeded(self):
        # Without a seed the shards must behave like unseeded scalar
        # sketches: independent entropy, not a silent fixed 0..N-1 seeding.
        first = ShardedSketch(8, 2)
        second = ShardedSketch(8, 2)
        assert first.shards[0]._rng.random() != second.shards[0]._rng.random()

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            ShardedSketch(8, 0)
        sketch = ShardedSketch(8, 2, seed=0)
        with pytest.raises(InvalidParameterError):
            sketch.heavy_hitters(0.0)
        with pytest.raises(InvalidParameterError):
            sketch.top_k(-1)
        with pytest.raises(InvalidParameterError):
            stable_shard("a", 0)
