"""ShardedSketch: the one hash-partitioned Unbiased Space Saving ensemble.

Pinned here: merging goes through the core unbiased merge; subset queries
add per-shard estimates and variances; scalar rows and batches route
every label to the same shard; global reads are the disjoint union of the
shards, ranked like the cluster gather; each ``merged()`` is a fresh
merge the caller owns; frames and checkpoints round-trip and resume bit-identically.
The statistical check asserts the paper's guarantees for the ensemble
over many seeds: unbiased subset sums, exact totals and a calibrated
variance estimate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.merge import merge_many_unbiased
from repro.core.base import ranked_pairs
from repro.distributed.sharded import ShardedSketch, merge_shard_states
from repro.errors import InvalidParameterError, UnsupportedUpdateError
from repro.io import load_bytes

SEED = 20180618
CAPACITY = 24
NUM_SHARDS = 4


@pytest.fixture
def chunks(batch_workload):
    array = np.asarray(batch_workload, dtype=np.int64)
    return [array[start : start + 2000] for start in range(0, len(array), 2000)]


def _fill(sharded, chunks):
    for chunk in chunks:
        sharded.update_batch(chunk)
    return sharded


@pytest.fixture
def sharded(chunks):
    return _fill(ShardedSketch(CAPACITY, NUM_SHARDS, seed=SEED), chunks)


class TestQueries:
    def test_merged_matches_the_core_merge(self, sharded):
        for capacity in (None, 12):
            expected = merge_many_unbiased(
                list(sharded.shards),
                capacity=capacity or CAPACITY,
                method="pps",
                seed=SEED,
            )
            assert sharded.merged(capacity).estimates() == expected.estimates()
        priority = ShardedSketch(CAPACITY, NUM_SHARDS, seed=SEED, merge_method="priority")
        priority.update_batch(np.arange(500) % 97)
        expected = merge_many_unbiased(
            list(priority.shards), capacity=CAPACITY, method="priority", seed=SEED
        )
        assert priority.merged().estimates() == expected.estimates()

    def test_subset_queries_add_across_shards(self, sharded):
        predicate = lambda item: int(item) % 5 == 0  # noqa: E731
        per_shard = [shard.subset_sum_with_error(predicate) for shard in sharded.shards]
        result = sharded.subset_sum_with_error(predicate)
        assert result.estimate == sum(part.estimate for part in per_shard)
        assert result.variance == sum(part.variance for part in per_shard)
        assert sharded.subset_sum(predicate) == pytest.approx(result.estimate)

    def test_global_reads_are_the_ranked_disjoint_union(self, sharded):
        bins, total = merge_shard_states(
            [(shard.estimates(), shard.total_weight) for shard in sharded.shards]
        )
        assert sharded.estimates() == bins
        assert sharded.total_estimate() == pytest.approx(total)
        assert sharded.top_k(10) == ranked_pairs(bins, k=10)
        threshold = 0.01 * sharded.total_weight
        assert sharded.heavy_hitters(0.01) == dict(ranked_pairs(bins, threshold=threshold))
        for item, count in list(bins.items())[:10]:
            assert sharded.estimate(item) == count
            assert item in sharded
        assert len(sharded) == len(bins)

    def test_invalid_configuration(self):
        with pytest.raises(InvalidParameterError):
            ShardedSketch(8, 0)
        sharded = ShardedSketch(8, 2, seed=0)
        with pytest.raises(InvalidParameterError):
            sharded.top_k(-1)
        with pytest.raises(InvalidParameterError):
            sharded.heavy_hitters(0.0)
        with pytest.raises(InvalidParameterError):
            sharded.heavy_hitters(1.5)


class TestIngestion:
    def test_scalar_rows_route_like_batches(self, batch_workload):
        # Capacity above the distinct count keeps every estimate exact, so
        # the two ingestion paths must agree bin for bin.
        rows = [int(item) for item in batch_workload[:3000]]
        capacity = len(set(rows))
        scalar = ShardedSketch(capacity, NUM_SHARDS, seed=SEED)
        for item in rows:
            scalar.update(item)
        batched = ShardedSketch(capacity, NUM_SHARDS, seed=SEED)
        batched.update_batch(rows)
        assert scalar.estimates() == batched.estimates()
        assert scalar.rows_processed == batched.rows_processed == len(rows)
        assert scalar.total_weight == batched.total_weight
        for index, (left, right) in enumerate(zip(scalar.shards, batched.shards)):
            assert set(left.estimates()) == set(right.estimates())
            assert all(scalar.shard_index(item) == index for item in left.estimates())

    def test_a_refused_batch_changes_no_shard(self):
        """A weight the shards refuse fails the whole batch before any
        shard applies its slice: bins, totals and counters stay put."""
        sharded = ShardedSketch(8, NUM_SHARDS, seed=0)
        sharded.update_batch(["a", "b"])
        before = sharded.to_bytes()
        labels = [f"k{i}" for i in range(12)]
        weights = [1.0] * 12
        weights[0] = -1.0
        # The bad label sits on the last shard, after every other slice.
        assert sharded.shard_index("k0") == NUM_SHARDS - 1
        with pytest.raises(UnsupportedUpdateError):
            sharded.update_batch(labels, weights)
        assert sharded.to_bytes() == before
        assert sharded.total_estimate() == sharded.total_weight == 2.0

    def test_empty_batch_is_a_noop(self):
        sharded = ShardedSketch(8, 2, seed=0)
        sharded.update_batch(["a", "b"])
        merged = sharded.merged()
        before = sharded.to_bytes()
        sharded.update_batch([])
        assert sharded.rows_processed == 2
        assert sharded.to_bytes() == before
        assert sharded.merged().to_bytes() == merged.to_bytes()

    def test_mutating_a_merged_result_leaves_the_ensemble_alone(self):
        sharded = ShardedSketch(8, 2, seed=0)
        sharded.update_batch(["a", "b", "a"])
        sharded.merged().update("zz", 5.0)
        again = sharded.merged()
        assert again.estimate("zz") == 0.0
        assert again.total_estimate() == sharded.total_estimate() == 3.0
        assert sharded.estimate("zz") == 0.0

    def test_seeded_merges_are_byte_equal_and_follow_updates(self):
        sharded = ShardedSketch(8, 2, seed=0)
        sharded.update_batch(["a"] * 5)
        assert sharded.merged().to_bytes() == sharded.merged().to_bytes()
        assert sharded.merged(seed=1).to_bytes() == sharded.merged(seed=1).to_bytes()
        sharded.update("a")
        assert sharded.merged().estimate("a") == sharded.estimate("a") == 6.0


class TestSerialization:
    def test_round_trip_preserves_state(self, sharded):
        frame = sharded.to_bytes()
        for restored in (ShardedSketch.from_bytes(frame), load_bytes(frame)):
            assert type(restored) is ShardedSketch
            assert restored.estimates() == sharded.estimates()
            assert restored.rows_processed == sharded.rows_processed
            assert restored.total_weight == sharded.total_weight
            assert restored.to_bytes() == frame

    def test_checkpoint_resume_continues_identically(self, tmp_path, chunks, sharded):
        half = len(chunks) // 2
        first = _fill(ShardedSketch(CAPACITY, NUM_SHARDS, seed=SEED), chunks[:half])
        checkpoint = tmp_path / "sharded.ckpt"
        first.save_checkpoint(checkpoint)
        resumed = _fill(ShardedSketch.load_checkpoint(checkpoint), chunks[half:])
        assert resumed.estimates() == sharded.estimates()
        assert resumed.rows_processed == sharded.rows_processed
        assert resumed.to_bytes() == sharded.to_bytes()


def test_subset_sums_are_unbiased_with_exact_totals_and_calibrated_variance():
    """§3-§4 guarantees for the ensemble over 200 seeds.

    A fixed stream of 300 labels with counts 1..7 (1,250 rows) runs
    through ``ShardedSketch(16, num_shards=4)``: 64 bins for 300 labels,
    so every shard evicts.  Each seed changes both the shard sketches'
    randomness and the label routing.
    """
    rng = np.random.default_rng(7)
    counts = {label: int(count) for label, count in enumerate(rng.integers(1, 8, 300))}
    rows = rng.permutation(np.repeat(np.array(list(counts)), list(counts.values())))
    subset = {label for label in counts if label % 3 == 0}
    truth = sum(counts[label] for label in subset)

    estimates, variances = [], []
    for seed in range(200):
        sharded = ShardedSketch(16, 4, seed=seed)
        for start in range(0, len(rows), 100):
            sharded.update_batch(rows[start : start + 100])
        assert sharded.total_estimate() == float(len(rows))
        result = sharded.subset_sum_with_error(lambda label: label in subset)
        estimates.append(result.estimate)
        variances.append(result.variance)

    estimates = np.asarray(estimates)
    standard_error = estimates.std(ddof=1) / np.sqrt(len(estimates))
    assert abs(estimates.mean() - truth) <= 4 * standard_error
    # Equation 5 charges each retained subset label the full N̂_min², while
    # a label's actual variance n_i(N̂_min - n_i) is smaller, so the
    # reported variance is conservative: ratio >= 1 up to the ~10% relative
    # error of a 200-sample variance.  With counts comparable to N̂_min here
    # it runs about 2x.  The band's upper edge of 3 still fails if the
    # per-shard variances were counted twice, and its lower edge of 0.8
    # fails if one shard's variance were reported instead of the sum.
    ratio = np.mean(variances) / estimates.var(ddof=1)
    assert 0.8 <= ratio <= 3.0
