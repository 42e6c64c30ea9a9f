"""Unit tests for Deterministic Space Saving."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.deterministic_space_saving import DeterministicSpaceSaving
from repro.errors import InvalidParameterError, UnsupportedUpdateError


class TestConstruction:
    def test_requires_positive_capacity(self):
        with pytest.raises(InvalidParameterError):
            DeterministicSpaceSaving(0)

    def test_unknown_store_rejected(self):
        # The columnar store is the only one; there is no store argument.
        with pytest.raises(TypeError, match="store"):
            DeterministicSpaceSaving(4, store="stream_summary")

    def test_capacity_property(self):
        assert DeterministicSpaceSaving(7).capacity == 7


class TestExactRegime:
    """With fewer distinct items than bins the sketch is exact."""

    def test_counts_exact_when_under_capacity(self):
        sketch = DeterministicSpaceSaving(capacity=10)
        rows = ["a"] * 5 + ["b"] * 3 + ["c"] * 2
        sketch.extend(rows)
        assert sketch.estimate("a") == 5
        assert sketch.estimate("b") == 3
        assert sketch.estimate("c") == 2
        assert sketch.estimate("missing") == 0
        assert sketch.error_bound() == 0.0

    def test_rows_processed_and_total_weight(self):
        sketch = DeterministicSpaceSaving(capacity=4)
        sketch.extend(["x", "y", "x"])
        assert sketch.rows_processed == 3
        assert sketch.total_weight == 3.0


class TestOverflowBehaviour:
    def test_new_item_takes_over_minimum_bin(self):
        sketch = DeterministicSpaceSaving(capacity=2)
        sketch.extend(["a", "a", "b"])
        sketch.update("c")
        # "c" must replace "b" (the minimum) and inherit its count plus one.
        assert "c" in sketch.estimates()
        assert "b" not in sketch.estimates()
        assert sketch.estimate("c") == 2

    def test_estimates_always_upper_bounds(self):
        sketch = DeterministicSpaceSaving(capacity=5, seed=0)
        rows = (["a"] * 30 + ["b"] * 20 + list(range(40)))
        sketch.extend(rows)
        truth = Counter(rows)
        for item, estimate in sketch.estimates().items():
            assert estimate >= truth[item]

    def test_error_bound_caps_overestimate(self):
        rows = ["hot"] * 50 + list(range(100))
        sketch = DeterministicSpaceSaving(capacity=10, seed=1)
        sketch.extend(rows)
        bound = sketch.error_bound()
        assert bound <= len(rows) / 10
        assert sketch.estimate("hot") - 50 <= bound

    def test_total_estimate_preserved(self):
        rows = ["a"] * 10 + ["b"] * 5 + list(range(20))
        sketch = DeterministicSpaceSaving(capacity=6, seed=2)
        sketch.extend(rows)
        assert sum(sketch.estimates().values()) == len(rows)

    def test_sketch_size_never_exceeds_capacity(self):
        sketch = DeterministicSpaceSaving(capacity=8, seed=3)
        sketch.extend(range(200))
        assert len(sketch) == 8


class TestGuarantees:
    def test_frequent_item_always_retained(self):
        # "hot" has frequency 1/2 > 1/m, so it must be in the sketch.
        rows = []
        for index in range(100):
            rows.append("hot")
            rows.append(f"cold{index}")
        sketch = DeterministicSpaceSaving(capacity=4, seed=4)
        sketch.extend(rows)
        assert "hot" in sketch.estimates()

    def test_guaranteed_heavy_hitters_are_truly_frequent(self):
        rows = ["hot"] * 120 + [f"c{i}" for i in range(80)]
        sketch = DeterministicSpaceSaving(capacity=10, seed=5)
        sketch.extend(rows)
        guaranteed = sketch.guaranteed_heavy_hitters(0.3)
        assert "hot" in guaranteed
        truth = Counter(rows)
        for item in guaranteed:
            assert truth[item] >= 0.3 * len(rows)

    def test_lower_bound_never_exceeds_truth(self):
        rows = ["a"] * 25 + ["b"] * 10 + list(range(60))
        sketch = DeterministicSpaceSaving(capacity=6, seed=6)
        sketch.extend(rows)
        truth = Counter(rows)
        for item in sketch.estimates():
            assert sketch.lower_bound(item) <= truth[item]

    def test_invalid_phi_rejected(self):
        sketch = DeterministicSpaceSaving(capacity=3)
        sketch.update("a")
        with pytest.raises(InvalidParameterError):
            sketch.guaranteed_heavy_hitters(0.0)
        with pytest.raises(InvalidParameterError):
            sketch.heavy_hitters(1.5)


class TestMisraGriesIsomorphism:
    def test_soft_threshold_relationship(self):
        rows = ["a"] * 12 + ["b"] * 7 + list(range(30))
        sketch = DeterministicSpaceSaving(capacity=5, seed=7)
        sketch.extend(rows)
        min_count = min(sketch.estimates().values())
        for item, mg_estimate in sketch.to_misra_gries_estimates().items():
            assert mg_estimate == pytest.approx(
                max(0.0, sketch.estimate(item) - min_count)
            )

    def test_misra_gries_estimates_empty_for_empty_sketch(self):
        assert DeterministicSpaceSaving(capacity=3).to_misra_gries_estimates() == {}


class TestWeightsAndErrors:
    def test_zero_or_negative_weight_rejected(self):
        sketch = DeterministicSpaceSaving(capacity=3)
        with pytest.raises(UnsupportedUpdateError):
            sketch.update("a", 0)
        with pytest.raises(UnsupportedUpdateError):
            sketch.update("a", -2)

    def test_integer_weights_on_stream_summary_store(self):
        sketch = DeterministicSpaceSaving(capacity=3)
        sketch.update("a", 5)
        assert sketch.estimate("a") == 5

    def test_float_weights_require_heap_store(self):
        sketch = DeterministicSpaceSaving(capacity=3)
        sketch.update("a", 2.5)
        assert sketch.estimate("a") == pytest.approx(2.5)

    def test_bins_expose_acquisition_error(self):
        sketch = DeterministicSpaceSaving(capacity=2, seed=8)
        sketch.extend(["a", "a", "b", "c"])
        bins = {label: (count, error) for label, count, error in sketch.bins()}
        assert bins["c"][1] >= 1.0
