"""Unit tests for CountMin, Count Sketch and hierarchical heavy hitters."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import InvalidParameterError, UnsupportedUpdateError
from repro.frequent.count_sketch import CountSketch
from repro.frequent.countmin import CountMinSketch
from repro.frequent.hierarchical import HierarchicalHeavyHitters


class TestCountMin:
    def test_geometry_from_epsilon_delta(self):
        sketch = CountMinSketch(epsilon=0.01, delta=0.05)
        assert sketch.width >= 272
        assert sketch.depth >= 3
        assert sketch.memory_cells() == sketch.width * sketch.depth

    def test_explicit_geometry(self):
        sketch = CountMinSketch(width=64, depth=4)
        assert sketch.width == 64 and sketch.depth == 4

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            CountMinSketch(epsilon=0.0)
        with pytest.raises(InvalidParameterError):
            CountMinSketch(width=0, depth=1)

    def test_estimates_never_undercount(self):
        rows = ["hot"] * 50 + [f"c{i}" for i in range(200)]
        sketch = CountMinSketch(width=128, depth=4, seed=0)
        sketch.extend(rows)
        truth = Counter(rows)
        for item in truth:
            assert sketch.estimate(item) >= truth[item]

    def test_overestimate_within_error_bound_typically(self):
        rows = ["hot"] * 100 + [f"c{i}" for i in range(300)]
        sketch = CountMinSketch(width=256, depth=5, seed=1)
        sketch.extend(rows)
        assert sketch.estimate("hot") - 100 <= sketch.error_bound()

    def test_deletions_rejected(self):
        with pytest.raises(UnsupportedUpdateError):
            CountMinSketch(width=8, depth=2).update("a", -1)

    def test_conservative_update_never_larger_than_plain(self):
        rows = [f"i{k % 30}" for k in range(500)]
        plain = CountMinSketch(width=32, depth=3, seed=2)
        conservative = CountMinSketch(width=32, depth=3, conservative=True, seed=2)
        plain.extend(rows)
        conservative.extend(rows)
        for item in set(rows):
            assert conservative.estimate(item) <= plain.estimate(item)
            assert conservative.estimate(item) >= Counter(rows)[item]

    def test_heavy_hitter_tracking(self):
        rows = ["hot"] * 200 + [f"c{i}" for i in range(100)]
        sketch = CountMinSketch(width=128, depth=4, track_heavy_hitters=10, seed=3)
        sketch.extend(rows)
        assert "hot" in sketch.heavy_hitters(0.3)

    def test_heavy_hitters_requires_tracking(self):
        sketch = CountMinSketch(width=16, depth=2)
        sketch.update("a")
        with pytest.raises(InvalidParameterError):
            sketch.heavy_hitters(0.1)

    def test_inner_product_requires_matching_geometry(self):
        first = CountMinSketch(width=32, depth=3, seed=0)
        second = CountMinSketch(width=64, depth=3, seed=0)
        with pytest.raises(InvalidParameterError):
            first.inner_product(second)

    def test_inner_product_upper_bounds_join_size(self):
        left_rows = ["a"] * 10 + ["b"] * 5
        right_rows = ["a"] * 2 + ["c"] * 7
        left = CountMinSketch(width=64, depth=3, seed=5)
        right = CountMinSketch(width=64, depth=3, seed=5)
        left.extend(left_rows)
        right.extend(right_rows)
        true_join = 10 * 2
        assert left.inner_product(right) >= true_join


class TestCountSketch:
    def test_invalid_geometry_rejected(self):
        with pytest.raises(InvalidParameterError):
            CountSketch(width=0)

    def test_estimate_close_for_dominant_item(self):
        rows = ["hot"] * 200 + [f"c{i}" for i in range(50)]
        sketch = CountSketch(width=128, depth=5, seed=0)
        sketch.extend(rows)
        assert sketch.estimate("hot") == pytest.approx(200, abs=30)

    def test_signed_updates_supported(self):
        sketch = CountSketch(width=64, depth=5, seed=1)
        sketch.update("a", 10)
        sketch.update("a", -4)
        assert sketch.estimate("a") == pytest.approx(6, abs=5)

    def test_second_moment_estimate(self):
        rows = ["a"] * 30 + ["b"] * 20 + ["c"] * 10
        sketch = CountSketch(width=256, depth=7, seed=2)
        sketch.extend(rows)
        true_f2 = 30**2 + 20**2 + 10**2
        assert sketch.second_moment() == pytest.approx(true_f2, rel=0.35)

    def test_inner_product_requires_matching_config(self):
        with pytest.raises(InvalidParameterError):
            CountSketch(width=32, seed=0).inner_product(CountSketch(width=64, seed=0))

    def test_estimates_with_explicit_candidates(self):
        sketch = CountSketch(width=64, depth=5, seed=3)
        sketch.extend(["x"] * 5 + ["y"] * 2)
        estimates = sketch.estimates(candidates=["x", "y", "z"])
        assert set(estimates) == {"x", "y", "z"}

    def test_row_estimates_length(self):
        sketch = CountSketch(width=16, depth=4, seed=4)
        sketch.update("a")
        assert len(sketch.row_estimates("a")) == 4


class TestHierarchicalHeavyHitters:
    def test_depth_validation(self):
        with pytest.raises(InvalidParameterError):
            HierarchicalHeavyHitters(depth=0, capacity=4)
        with pytest.raises(InvalidParameterError):
            HierarchicalHeavyHitters(depth=3, capacity=[4, 4])

    def test_path_length_enforced(self):
        hhh = HierarchicalHeavyHitters(depth=2, capacity=4)
        with pytest.raises(InvalidParameterError):
            hhh.update(("only-one",))

    def test_prefix_estimates_aggregate_children(self):
        hhh = HierarchicalHeavyHitters(depth=2, capacity=16, seed=0)
        hhh.update(("10", "1"))
        hhh.update(("10", "2"))
        hhh.update(("20", "1"))
        assert hhh.estimate(("10",)) == pytest.approx(2.0)
        assert hhh.estimate(("10", "1")) == pytest.approx(1.0)

    def test_prefix_length_validated(self):
        hhh = HierarchicalHeavyHitters(depth=2, capacity=4)
        hhh.update(("a", "b"))
        with pytest.raises(InvalidParameterError):
            hhh.estimate(())
        with pytest.raises(InvalidParameterError):
            hhh.estimate(("a", "b", "c"))

    def test_heavy_prefixes_found(self):
        hhh = HierarchicalHeavyHitters(depth=2, capacity=16, seed=1)
        for _ in range(30):
            hhh.update(("popular", "x"))
        for index in range(20):
            hhh.update((f"rare{index}", "y"))
        heavy = hhh.heavy_prefixes(level=0, phi=0.3)
        assert ("popular",) in heavy

    def test_hierarchical_heavy_hitters_discounting(self):
        hhh = HierarchicalHeavyHitters(depth=2, capacity=32, seed=2)
        # One child dominates its parent entirely.
        for _ in range(40):
            hhh.update(("net", "host1"))
        for index in range(10):
            hhh.update(("net", f"h{index}"))
        reported = hhh.hierarchical_heavy_hitters(phi=0.25)
        assert ("net", "host1") in reported
        # The parent's discounted count (50 - 40 = 10) is below 25% of 50.
        assert ("net",) not in reported or reported[("net",)] < 0.5 * 50

    def test_hierarchical_threshold_is_phi_of_the_ingested_weight(self):
        """Weighted rows: the threshold is phi times the weight, not the
        row count, so the deepest level agrees with ``heavy_prefixes``."""
        hhh = HierarchicalHeavyHitters(depth=2, capacity=16, seed=0)
        hhh.update(("a", "x"), 10.0)
        for _ in range(9):
            hhh.update(("b", "y"), 1.0)
        # 19 units of weight over 10 rows.
        for phi in (0.6, 0.5, 0.4):
            reported = hhh.hierarchical_heavy_hitters(phi)
            deepest = {path: count for path, count in reported.items() if len(path) == 2}
            assert deepest == hhh.heavy_prefixes(1, phi)
        assert hhh.hierarchical_heavy_hitters(0.6) == {}
        assert hhh.hierarchical_heavy_hitters(0.5) == {("a", "x"): 10.0}

    def test_rollup(self):
        hhh = HierarchicalHeavyHitters(depth=2, capacity=16, seed=3)
        hhh.update(("a", "x"))
        hhh.update(("a", "y"))
        hhh.update(("b", "x"))
        rolled = hhh.rollup(level=1)
        assert rolled[("a",)] == pytest.approx(2.0)
        assert rolled[("b",)] == pytest.approx(1.0)

    def test_extend_with_weights(self):
        hhh = HierarchicalHeavyHitters(depth=2, capacity=8, seed=4)
        hhh.extend([(("a", "x"), 2.0), ("b", "y")])
        assert hhh.rows_processed == 2
        assert hhh.estimate(("a",)) == pytest.approx(2.0)
