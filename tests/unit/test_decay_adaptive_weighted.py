"""Unit tests for the §5.3 extensions: adaptive sizing and signed updates.

Time decay is tested with its sketch, in ``test_windows.py::TestDecayedWindow``.
"""

from __future__ import annotations

import pytest

from repro.core.adaptive import AdaptiveUnbiasedSpaceSaving
from repro.core.weighted import SignedUnbiasedSpaceSaving, weighted_stream_to_unit_rows
from repro.errors import InvalidParameterError


class TestAdaptiveUnbiasedSpaceSaving:
    def test_capacity_respected(self):
        sketch = AdaptiveUnbiasedSpaceSaving(capacity=6, seed=0)
        sketch.extend(range(200))
        assert len(sketch) <= 6

    def test_total_preserved(self):
        sketch = AdaptiveUnbiasedSpaceSaving(capacity=6, seed=1)
        sketch.extend(range(150))
        assert sum(sketch.estimates().values()) == pytest.approx(150.0)

    def test_manual_shrink_is_unbiased_in_expectation(self):
        import numpy as np

        totals = []
        for seed in range(200):
            sketch = AdaptiveUnbiasedSpaceSaving(capacity=20, seed=seed)
            sketch.extend(range(40))
            sketch.resize(5)
            totals.append(sum(sketch.estimates().values()))
        assert np.mean(totals) == pytest.approx(40.0, rel=0.1)

    def test_grow_keeps_existing_bins(self):
        sketch = AdaptiveUnbiasedSpaceSaving(capacity=3, seed=2)
        sketch.extend(["a", "b", "c"])
        sketch.resize(10)
        assert sketch.capacity == 10
        assert sketch.estimates() == {"a": 1.0, "b": 1.0, "c": 1.0}

    def test_auto_growth_triggered(self):
        sketch = AdaptiveUnbiasedSpaceSaving(
            capacity=2, max_capacity=16, growth_trigger=0.05, seed=3
        )
        sketch.extend(range(300))
        assert sketch.capacity > 2
        assert sketch.capacity <= 16
        assert sketch.resize_events > 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            AdaptiveUnbiasedSpaceSaving(capacity=4, max_capacity=2)
        with pytest.raises(InvalidParameterError):
            AdaptiveUnbiasedSpaceSaving(capacity=4, growth_trigger=1.5)
        sketch = AdaptiveUnbiasedSpaceSaving(capacity=4)
        with pytest.raises(InvalidParameterError):
            sketch.update("a", 0)
        with pytest.raises(InvalidParameterError):
            sketch.resize(0)

    def test_subset_sum_with_error(self):
        sketch = AdaptiveUnbiasedSpaceSaving(capacity=5, seed=4)
        sketch.extend(range(100))
        result = sketch.subset_sum_with_error(lambda item: item < 50)
        assert result.variance > 0


class TestSignedUnbiasedSpaceSaving:
    def test_net_estimates(self):
        sketch = SignedUnbiasedSpaceSaving(capacity=8, seed=0)
        sketch.update("a", 5)
        sketch.update("a", -2)
        sketch.update("b", 3)
        assert sketch.estimate("a") == pytest.approx(3.0)
        assert sketch.estimate("b") == pytest.approx(3.0)
        assert sketch.net_weight == pytest.approx(6.0)

    def test_zero_weight_rejected(self):
        with pytest.raises(InvalidParameterError):
            SignedUnbiasedSpaceSaving(capacity=4).update("a", 0)

    def test_extend_and_subset_sum(self):
        sketch = SignedUnbiasedSpaceSaving(capacity=8, seed=1)
        sketch.extend([("a", 2), ("b", 4), ("a", -1), ("c", -2)])
        assert sketch.subset_sum(lambda item: item in {"a", "b"}) == pytest.approx(5.0)
        result = sketch.subset_sum_with_error(lambda item: True)
        assert result.estimate == pytest.approx(3.0)
        assert result.variance >= 0.0

    def test_estimates_include_negative_only_items(self):
        sketch = SignedUnbiasedSpaceSaving(capacity=4, seed=2)
        sketch.update("gone", -3)
        assert sketch.estimates()["gone"] == pytest.approx(-3.0)

    def test_capacity_and_rows_processed(self):
        sketch = SignedUnbiasedSpaceSaving(capacity=4, seed=3)
        sketch.update("a", 1)
        sketch.update("b", -1)
        assert sketch.capacity == 4
        assert sketch.rows_processed == 2
        assert sketch.positive_sketch.rows_processed == 1
        assert sketch.negative_sketch.rows_processed == 1


class TestWeightedStreamExpansion:
    def test_expansion(self):
        rows = list(weighted_stream_to_unit_rows([("a", 3), ("b", 0), ("c", 2)]))
        assert rows == ["a", "a", "a", "c", "c"]

    def test_negative_or_fractional_weight_rejected(self):
        with pytest.raises(InvalidParameterError):
            list(weighted_stream_to_unit_rows([("a", -1)]))
        with pytest.raises(InvalidParameterError):
            list(weighted_stream_to_unit_rows([("a", 1.5)]))
