"""Unit tests for the Unbiased Space Saving sketch."""

from __future__ import annotations


import numpy as np
import pytest

from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.errors import InvalidParameterError, UnsupportedUpdateError


class TestConstruction:
    def test_requires_positive_capacity(self):
        with pytest.raises(InvalidParameterError):
            UnbiasedSpaceSaving(0)

    def test_unknown_store_rejected(self):
        # The columnar store is the only one; there is no store argument.
        with pytest.raises(TypeError, match="store"):
            UnbiasedSpaceSaving(5, store="heap")

    def test_from_bins_roundtrip(self):
        sketch = UnbiasedSpaceSaving.from_bins(
            4, {"a": 3.0, "b": 1.5}, rows_processed=10, total_weight=4.5, seed=0
        )
        assert sketch.estimate("a") == 3.0
        assert sketch.estimate("b") == 1.5
        assert sketch.rows_processed == 10
        assert sketch.total_weight == 4.5

    def test_from_bins_rejects_too_many_bins(self):
        with pytest.raises(InvalidParameterError):
            UnbiasedSpaceSaving.from_bins(1, {"a": 1.0, "b": 2.0})
        # Zero-count bins still count against the capacity.
        with pytest.raises(InvalidParameterError, match="capacity"):
            UnbiasedSpaceSaving.from_bins(2, {"a": 1.0, "b": 1.0, "c": 0.0})

    def test_from_bins_rejects_negative_counts(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                UnbiasedSpaceSaving.from_bins(3, {"a": 1.0, "b": bad})

    def test_from_bins_drops_zero_counts(self):
        sketch = UnbiasedSpaceSaving.from_bins(4, {"a": 2.0, "b": 0.0}, seed=1)
        assert sketch.estimates() == {"a": 2.0}
        assert sketch.total_weight == 2.0

    def test_from_bins_float_label_survives_int_batches(self):
        # The loader must lower labels like the kernel does: a float label
        # disables the integer searchsorted fast path, which would
        # otherwise truncate 2.5 to 2 and credit label 2's weight to it.
        sketch = UnbiasedSpaceSaving.from_bins(4, {2.5: 3.0, 7: 1.0}, seed=0)
        sketch.update_batch(np.array([2]))
        assert sketch.estimate(2.5) == 3.0
        assert sketch.estimate(2) == 1.0

    def test_from_bins_total_defaults_to_the_bin_sum(self):
        sketch = UnbiasedSpaceSaving.from_bins(4, {"a": 2.5, "b": 1.25}, seed=0)
        assert sketch.total_weight == 3.75
        assert sketch.rows_processed == 0
        sketch.update("a")
        assert sketch.total_weight == 4.75
        assert sketch.estimate("a") == 3.5

    def test_seeded_from_bins_is_deterministic(self):
        bins = {label: float(label % 5 + 1) for label in range(8)}
        rows = np.random.default_rng(3).integers(0, 40, size=300)
        first = UnbiasedSpaceSaving.from_bins(8, bins, seed=12).update_batch(rows)
        second = UnbiasedSpaceSaving.from_bins(8, bins, seed=12)
        second.update_batch(rows)
        assert first.estimates() == second.estimates()
        assert first.label_replacements == second.label_replacements
        assert first.total_weight == sum(bins.values()) + 300


class TestExactRegime:
    def test_exact_counts_under_capacity(self):
        sketch = UnbiasedSpaceSaving(capacity=10, seed=0)
        sketch.extend(["a"] * 4 + ["b"] * 2 + ["c"])
        assert sketch.estimate("a") == 4
        assert sketch.estimate("b") == 2
        assert sketch.estimate("c") == 1
        assert sketch.min_count == 0.0
        assert not sketch.is_saturated()

    def test_estimate_zero_for_unknown(self):
        sketch = UnbiasedSpaceSaving(capacity=3, seed=0)
        sketch.update("a")
        assert sketch.estimate("zzz") == 0.0


class TestOverflowBehaviour:
    def test_capacity_never_exceeded(self):
        sketch = UnbiasedSpaceSaving(capacity=7, seed=1)
        sketch.extend(range(500))
        assert len(sketch) == 7
        assert sketch.is_saturated()

    def test_total_is_always_exact(self):
        sketch = UnbiasedSpaceSaving(capacity=5, seed=2)
        rows = ["a"] * 20 + list(range(100))
        sketch.extend(rows)
        assert sketch.total_estimate() == pytest.approx(len(rows))

    def test_counter_increment_happens_even_without_relabel(self):
        # With 1 bin every new item increments the single counter.
        sketch = UnbiasedSpaceSaving(capacity=1, seed=3)
        sketch.extend(range(50))
        assert sketch.total_estimate() == 50.0
        assert len(sketch) == 1

    def test_label_replacements_counted(self):
        sketch = UnbiasedSpaceSaving(capacity=2, seed=4)
        sketch.extend(range(200))
        assert 0 < sketch.label_replacements <= 200


class TestUnbiasedness:
    def test_point_estimate_unbiased_over_replications(self):
        """Theorem 1: E[N̂_x] equals the true count, here for a mid-tail item."""
        rows = []
        for index in range(30):
            rows.extend([f"tail{index}"] * 3)
        rows.extend(["target"] * 6)
        truth = 6.0
        estimates = []
        for seed in range(400):
            rng = np.random.default_rng(seed)
            shuffled = list(rng.permutation(np.array(rows, dtype=object)))
            sketch = UnbiasedSpaceSaving(capacity=8, seed=seed)
            sketch.extend(shuffled)
            estimates.append(sketch.estimate("target"))
        mean_estimate = float(np.mean(estimates))
        standard_error = float(np.std(estimates) / np.sqrt(len(estimates)))
        assert abs(mean_estimate - truth) <= 4 * standard_error + 0.5

    def test_subset_sum_unbiased_over_replications(self):
        rows = [f"i{k}" for k in range(60) for _ in range(k % 5 + 1)]
        subset = {f"i{k}" for k in range(0, 60, 7)}
        truth = sum(k % 5 + 1 for k in range(0, 60, 7))
        estimates = []
        for seed in range(300):
            rng = np.random.default_rng(seed + 1000)
            shuffled = list(rng.permutation(np.array(rows, dtype=object)))
            sketch = UnbiasedSpaceSaving(capacity=15, seed=seed)
            sketch.extend(shuffled)
            estimates.append(sketch.subset_sum(lambda item: item in subset))
        mean_estimate = float(np.mean(estimates))
        standard_error = float(np.std(estimates) / np.sqrt(len(estimates)))
        assert abs(mean_estimate - truth) <= 4 * standard_error + 1.0


class TestFrequentItems:
    def test_frequent_item_retained_with_near_exact_count(self, small_stream, small_skewed_model):
        sketch = UnbiasedSpaceSaving(capacity=40, seed=5)
        sketch.extend(small_stream)
        top_item, top_count = small_skewed_model.sorted_items()[0]
        assert top_item in sketch.estimates()
        assert sketch.estimate(top_item) == pytest.approx(top_count, rel=0.15)

    def test_heavy_hitters_report(self):
        rows = ["hot"] * 400 + [f"c{i}" for i in range(200)]
        sketch = UnbiasedSpaceSaving(capacity=20, seed=6)
        sketch.extend(rows)
        hitters = sketch.heavy_hitters(0.5)
        assert set(hitters) == {"hot"}

    def test_top_k_sorted_by_estimate(self):
        sketch = UnbiasedSpaceSaving(capacity=10, seed=7)
        sketch.extend(["a"] * 5 + ["b"] * 3 + ["c"])
        top = sketch.top_k(2)
        assert [item for item, _ in top] == ["a", "b"]

    def test_top_k_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            UnbiasedSpaceSaving(capacity=2).top_k(-1)


class TestVarianceAndConfidence:
    def test_subset_sum_with_error_exact_regime_zero_variance(self):
        sketch = UnbiasedSpaceSaving(capacity=10, seed=8)
        sketch.extend(["a"] * 4 + ["b"])
        result = sketch.subset_sum_with_error(lambda item: item == "a")
        assert result.estimate == 4.0
        assert result.variance == 0.0

    def test_variance_positive_when_saturated(self):
        sketch = UnbiasedSpaceSaving(capacity=4, seed=9)
        sketch.extend(range(100))
        result = sketch.subset_sum_with_error(lambda item: True)
        assert result.variance > 0

    def test_confidence_interval_contains_estimate(self):
        sketch = UnbiasedSpaceSaving(capacity=4, seed=10)
        sketch.extend(range(100))
        predicate = lambda item: item < 50  # noqa: E731 - concise test predicate
        low, high = sketch.subset_sum_confidence_interval(predicate)
        estimate = sketch.subset_sum(predicate)
        assert low <= estimate <= high

    def test_approximate_inclusion_probability(self):
        sketch = UnbiasedSpaceSaving(capacity=5, seed=11)
        sketch.extend(range(200))
        assert sketch.approximate_inclusion_probability(0) == 0.0
        assert sketch.approximate_inclusion_probability(sketch.min_count * 2) == 1.0
        with pytest.raises(InvalidParameterError):
            sketch.approximate_inclusion_probability(-1)


class TestWeightedUpdates:
    def test_zero_or_negative_weight_rejected(self):
        sketch = UnbiasedSpaceSaving(capacity=2)
        with pytest.raises(UnsupportedUpdateError):
            sketch.update("a", 0)
        with pytest.raises(UnsupportedUpdateError):
            sketch.update("a", -1.0)

    def test_integer_weights_accumulate_exactly(self):
        sketch = UnbiasedSpaceSaving(capacity=4, seed=12)
        sketch.update("a", 3)
        sketch.update("a", 2)
        assert sketch.estimate("a") == 5.0

    def test_auto_store_migrates_for_float_weights(self):
        sketch = UnbiasedSpaceSaving(capacity=4, seed=13)
        sketch.update("a", 2)
        sketch.update("b", 1.5)
        assert sketch.estimate("a") == 2.0
        assert sketch.estimate("b") == pytest.approx(1.5)
        assert sketch.total_estimate() == pytest.approx(3.5)

    def test_weighted_total_preserved_when_saturated(self):
        sketch = UnbiasedSpaceSaving(capacity=3, seed=14)
        total = 0.0
        rng = np.random.default_rng(0)
        for index in range(100):
            weight = float(rng.uniform(0.1, 2.0))
            sketch.update(f"item{index}", weight)
            total += weight
        assert sketch.total_estimate() == pytest.approx(total)

    def test_extend_accepts_weighted_pairs(self):
        sketch = UnbiasedSpaceSaving(capacity=5, seed=15)
        sketch.extend([("a", 2), ("b", 3)])
        assert sketch.estimate("a") == 2.0
        assert sketch.estimate("b") == 3.0

    def test_extend_keeps_tuple_items_as_keys(self):
        sketch = UnbiasedSpaceSaving(capacity=5, seed=16)
        sketch.extend([("user1", "ad1"), ("user1", "ad1"), ("user2", "ad2")])
        assert sketch.estimate(("user1", "ad1")) == 2.0


class TestDeterministicComparison:
    def test_uss_and_dss_identical_while_under_capacity(self):
        from repro.core.deterministic_space_saving import DeterministicSpaceSaving

        rows = ["a", "b", "a", "c", "a", "b"]
        unbiased = UnbiasedSpaceSaving(capacity=10, seed=17).extend(rows)
        deterministic = DeterministicSpaceSaving(capacity=10, seed=17)
        deterministic.extend(rows)
        assert unbiased.estimates() == deterministic.estimates()

    def test_relative_frequencies_sum_to_one_when_saturated(self):
        sketch = UnbiasedSpaceSaving(capacity=5, seed=18)
        sketch.extend(range(100))
        assert sum(sketch.relative_frequencies().values()) == pytest.approx(1.0)
