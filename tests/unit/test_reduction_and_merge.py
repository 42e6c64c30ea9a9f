"""Unit tests for reduction policies, GeneralizedSpaceSaving and merges."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.deterministic_space_saving import DeterministicSpaceSaving
from repro.core.merge import (
    combine_estimates,
    merge_many_unbiased,
    merge_misra_gries,
    merge_unbiased,
    reduce_bins_unbiased,
)
from repro.core.reduction import (
    DeterministicPairReduction,
    GeneralizedSpaceSaving,
    PPSReduction,
    UnbiasedPairReduction,
)
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.distributed.sharded import ShardedSketch
from repro.errors import IncompatibleSketchError, InvalidParameterError


class TestReductionPolicies:
    def test_deterministic_pair_reduction_keeps_newcomer(self):
        policy = DeterministicPairReduction()
        bins = {"a": 5.0, "b": 2.0, "new": 1.0}
        reduced = policy.reduce(bins, 2, np.random.default_rng(0), "new")
        assert set(reduced) == {"a", "new"}
        assert reduced["new"] == 3.0
        assert not policy.unbiased

    def test_unbiased_pair_reduction_preserves_total(self):
        policy = UnbiasedPairReduction()
        bins = {"a": 5.0, "b": 2.0, "new": 1.0}
        reduced = policy.reduce(bins, 2, np.random.default_rng(1), "new")
        assert sum(reduced.values()) == pytest.approx(8.0)
        assert len(reduced) == 2
        assert policy.unbiased

    def test_unbiased_pair_reduction_expectation(self):
        policy = UnbiasedPairReduction()
        bins = {"big": 9.0, "small": 3.0, "new": 1.0}
        keeps_new = 0
        trials = 4000
        for seed in range(trials):
            reduced = policy.reduce(dict(bins), 2, np.random.default_rng(seed), "new")
            if "new" in reduced:
                keeps_new += 1
        # P(keep new) = 1 / (3 + 1) = 0.25.
        assert keeps_new / trials == pytest.approx(0.25, abs=0.03)

    def test_pps_reduction_shrinks_to_capacity(self):
        policy = PPSReduction()
        bins = {f"i{k}": float(k + 1) for k in range(20)}
        reduced = policy.reduce(bins, 5, np.random.default_rng(2), "i0")
        assert len(reduced) <= 5


class TestGeneralizedSpaceSaving:
    def test_capacity_respected(self):
        sketch = GeneralizedSpaceSaving(capacity=4, seed=0)
        sketch.extend(range(100))
        assert len(sketch) <= 4

    def test_total_preserved_with_unbiased_policy(self):
        sketch = GeneralizedSpaceSaving(capacity=3, seed=1)
        sketch.extend(range(60))
        assert sum(sketch.estimates().values()) == pytest.approx(60.0)

    def test_matches_deterministic_with_deterministic_policy(self):
        rows = ["a", "a", "b", "c", "d", "a", "e"]
        general = GeneralizedSpaceSaving(
            capacity=3, policy=DeterministicPairReduction(), seed=2
        )
        general.extend(rows)
        reference = DeterministicSpaceSaving(capacity=3, seed=2)
        reference.extend(rows)
        assert sum(general.estimates().values()) == sum(reference.estimates().values())

    def test_add_aggregate_with_pps_policy(self):
        sketch = GeneralizedSpaceSaving(capacity=5, policy=PPSReduction(), seed=3)
        for index in range(30):
            sketch.add_aggregate(f"unit{index}", float(index + 1))
        assert len(sketch) <= 5
        assert sketch.total_weight == pytest.approx(sum(range(1, 31)))

    def test_invalid_updates_rejected(self):
        sketch = GeneralizedSpaceSaving(capacity=2)
        with pytest.raises(InvalidParameterError):
            sketch.update("a", 0)
        with pytest.raises(InvalidParameterError):
            sketch.add_aggregate("a", -1.0)

    def test_subset_sum_with_error(self):
        sketch = GeneralizedSpaceSaving(capacity=3, seed=4)
        sketch.extend(range(50))
        result = sketch.subset_sum_with_error(lambda item: item < 25)
        assert result.variance >= 0.0


def _build_sketch(rows, capacity, seed):
    sketch = UnbiasedSpaceSaving(capacity, seed=seed)
    sketch.extend(rows)
    return sketch


class TestCombineAndReduce:
    def test_combine_estimates_sums_overlapping_items(self):
        first = _build_sketch(["a", "a", "b"], 5, 0)
        second = _build_sketch(["a", "c"], 5, 1)
        combined = combine_estimates([first, second])
        assert combined["a"] == 3.0
        assert combined["b"] == 1.0
        assert combined["c"] == 1.0

    def test_reduce_noop_when_under_capacity(self):
        bins = {"a": 1.0, "b": 2.0}
        assert reduce_bins_unbiased(bins, 5) == bins

    def test_reduce_methods_cap_size(self):
        bins = {f"i{k}": float(k + 1) for k in range(40)}
        for method in ("pps", "poisson", "priority"):
            reduced = reduce_bins_unbiased(
                bins, 10, method=method, rng=np.random.default_rng(3)
            )
            if method == "poisson":
                # Poisson reduction has random size with expectation 10.
                assert len(reduced) <= 40
            else:
                assert len(reduced) <= 10

    def test_reduce_unknown_method_rejected(self):
        with pytest.raises(InvalidParameterError):
            reduce_bins_unbiased({"a": 1.0}, 1, method="nope")

    def test_reduce_preserves_expected_total(self):
        bins = {f"i{k}": float((k % 7) + 1) for k in range(30)}
        total = sum(bins.values())
        totals = []
        for seed in range(300):
            reduced = reduce_bins_unbiased(bins, 8, method="pps", rng=np.random.default_rng(seed))
            totals.append(sum(reduced.values()))
        assert np.mean(totals) == pytest.approx(total, rel=0.05)


class TestUnbiasedMerge:
    def test_merge_preserves_rows_and_weight(self):
        first = _build_sketch(range(100), 20, 0)
        second = _build_sketch(range(50, 200), 20, 1)
        merged = merge_unbiased(first, second, seed=2)
        assert merged.rows_processed == first.rows_processed + second.rows_processed
        assert merged.total_weight == first.total_weight + second.total_weight
        assert len(merged) <= merged.capacity

    def test_merge_keeps_capacity_of_first_by_default(self):
        first = _build_sketch(range(100), 16, 0)
        second = _build_sketch(range(100, 160), 8, 1)
        merged = merge_unbiased(first, second, seed=3)
        assert merged.capacity == 16

    def test_merge_expectation_preserved_for_shared_frequent_item(self):
        rows_first = ["hot"] * 30 + [f"a{k}" for k in range(40)]
        rows_second = ["hot"] * 25 + [f"b{k}" for k in range(40)]
        estimates = []
        for seed in range(200):
            first = _build_sketch(rows_first, 12, seed)
            second = _build_sketch(rows_second, 12, seed + 1000)
            merged = merge_unbiased(first, second, seed=seed)
            estimates.append(merged.estimate("hot"))
        assert np.mean(estimates) == pytest.approx(55.0, rel=0.1)

    def test_merge_many_matches_pairwise_totals(self):
        sketches = [_build_sketch(range(k * 50, (k + 1) * 50), 10, k) for k in range(4)]
        merged = merge_many_unbiased(sketches, seed=5)
        assert merged.rows_processed == 200
        assert len(merged) <= 10

    def test_merge_many_requires_at_least_one(self):
        with pytest.raises(InvalidParameterError):
            merge_many_unbiased([])

    def test_merged_sketch_can_keep_ingesting(self):
        first = _build_sketch(range(60), 10, 0)
        second = _build_sketch(range(60, 120), 10, 1)
        merged = merge_unbiased(first, second, seed=6)
        merged.update("new-item")
        assert merged.rows_processed == 121


class TestMisraGriesMerge:
    def test_merge_caps_nonzero_counters(self):
        first = DeterministicSpaceSaving(10, seed=0)
        first.extend(range(100))
        second = DeterministicSpaceSaving(10, seed=1)
        second.extend(range(50, 150))
        merged = merge_misra_gries(first, second)
        assert len(merged) <= 10

    def test_merge_biases_counts_downward(self):
        first = DeterministicSpaceSaving(5, seed=0)
        first.extend(["hot"] * 20 + list(range(30)))
        second = DeterministicSpaceSaving(5, seed=1)
        second.extend(["hot"] * 15 + list(range(30, 60)))
        merged = merge_misra_gries(first, second)
        assert sum(merged.values()) <= sum(
            combine_estimates([first, second]).values()
        )

    def test_merge_under_capacity_is_exact_sum(self):
        first = DeterministicSpaceSaving(10, seed=0)
        first.extend(["a", "b"])
        second = DeterministicSpaceSaving(10, seed=1)
        second.extend(["a", "c"])
        merged = merge_misra_gries(first, second)
        assert merged == {"a": 2.0, "b": 1.0, "c": 1.0}


def _small(cls, seed):
    sketch = cls(4, seed=seed)
    sketch.extend(["a", "b", "a"])
    return sketch


@pytest.mark.parametrize(
    "merge, error",
    [
        (
            lambda: merge_unbiased(
                _small(UnbiasedSpaceSaving, 0), _small(UnbiasedSpaceSaving, 1), capacity=0
            ),
            InvalidParameterError,
        ),
        (
            lambda: merge_many_unbiased(
                [_small(UnbiasedSpaceSaving, 0), _small(UnbiasedSpaceSaving, 1)], capacity=0
            ),
            InvalidParameterError,
        ),
        (
            lambda: merge_misra_gries(
                _small(DeterministicSpaceSaving, 0),
                _small(DeterministicSpaceSaving, 1),
                capacity=0,
            ),
            IncompatibleSketchError,
        ),
        (
            lambda: ShardedSketch(4, 2, seed=0).update_batch(["a", "b", "a"]).merged(0),
            InvalidParameterError,
        ),
    ],
    ids=["merge_unbiased", "merge_many_unbiased", "merge_misra_gries", "sharded_merged"],
)
def test_zero_merge_capacity_is_rejected(merge, error):
    # capacity=0 is a caller error, not a request for the default capacity.
    with pytest.raises(error):
        merge()
