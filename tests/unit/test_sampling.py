"""Unit tests for the sampling substrates (HT, PPS, priority, bottom-k, reservoir, VarOpt)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.errors import EmptySketchError, InvalidParameterError
from repro.sampling.bottom_k import BottomKSketch, stable_rank
from repro.sampling.horvitz_thompson import SampledItem, WeightedSample
from repro.sampling.pps import (
    expected_sample_size,
    inclusion_probabilities,
    poisson_pps_sample,
    pps_threshold,
    splitting_pps_sample,
    systematic_pps_sample,
)
from repro.sampling.priority import PrioritySample, StreamingPrioritySampler
from repro.sampling.reservoir import ReservoirSampler, SingleItemReservoir
from repro.sampling.varopt import varopt_reduce, varopt_sample


class TestHorvitzThompson:
    def test_sampled_item_validation(self):
        with pytest.raises(InvalidParameterError):
            SampledItem("a", 1.0, 0.0)
        with pytest.raises(InvalidParameterError):
            SampledItem("a", -1.0, 0.5)

    def test_adjusted_value(self):
        assert SampledItem("a", 2.0, 0.5).adjusted_value == 4.0

    def test_subset_sum_and_total(self):
        sample = WeightedSample(
            [SampledItem("a", 10.0, 1.0), SampledItem("b", 2.0, 0.5)]
        )
        assert sample.total_estimate() == 14.0
        assert sample.subset_sum(lambda item: item == "b") == 4.0
        assert sample.estimate("a") == 10.0
        assert sample.estimate("missing") == 0.0

    def test_from_mappings_requires_all_probabilities(self):
        with pytest.raises(InvalidParameterError):
            WeightedSample.from_mappings({"a": 1.0}, {})

    def test_subset_sum_with_error_variance(self):
        sample = WeightedSample([SampledItem("a", 2.0, 0.5)])
        result = sample.subset_sum_with_error(lambda item: True)
        assert result.estimate == 4.0
        assert result.variance == pytest.approx(2.0**2 * 0.5 / 0.25)

    def test_effective_sample_size(self):
        equal = WeightedSample(
            [SampledItem("a", 5.0, 1.0), SampledItem("b", 5.0, 1.0)]
        )
        assert equal.effective_sample_size() == pytest.approx(2.0)
        skewed = WeightedSample(
            [SampledItem("a", 100.0, 1.0), SampledItem("b", 1.0, 1.0)]
        )
        assert skewed.effective_sample_size() < 2.0


class TestPPS:
    def test_threshold_expected_size(self):
        weights = {f"i{k}": float(k + 1) for k in range(50)}
        probabilities = inclusion_probabilities(weights, 10)
        assert expected_sample_size(probabilities) == pytest.approx(10.0)

    def test_all_items_certain_when_budget_large(self):
        weights = {"a": 1.0, "b": 2.0}
        assert pps_threshold(weights, 5) == 0.0
        assert inclusion_probabilities(weights, 5) == {"a": 1.0, "b": 1.0}

    def test_paper_example_one_one_ten(self):
        """The §5.1 example: values 1, 1, 10 with k=2 caps the big item at 1."""
        weights = {"x": 1.0, "y": 1.0, "z": 10.0}
        probabilities = inclusion_probabilities(weights, 2)
        assert probabilities["z"] == 1.0
        assert probabilities["x"] == pytest.approx(0.5)
        assert expected_sample_size(probabilities) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            pps_threshold({}, 3)
        with pytest.raises(InvalidParameterError):
            pps_threshold({"a": -1.0}, 3)
        with pytest.raises(InvalidParameterError):
            pps_threshold({"a": 1.0}, 0)

    def test_poisson_sample_size_concentrates(self):
        weights = {f"i{k}": float((k % 10) + 1) for k in range(200)}
        sizes = [
            len(poisson_pps_sample(weights, 20, rng=np.random.default_rng(seed)))
            for seed in range(100)
        ]
        assert np.mean(sizes) == pytest.approx(20.0, abs=1.5)

    def test_splitting_sample_has_fixed_size(self):
        weights = {f"i{k}": float((k % 10) + 1) for k in range(100)}
        for seed in range(10):
            sample = splitting_pps_sample(weights, 15, rng=np.random.default_rng(seed))
            assert len(sample) == 15

    def test_splitting_sample_marginals(self):
        weights = {"a": 8.0, "b": 4.0, "c": 2.0, "d": 1.0, "e": 1.0}
        probabilities = inclusion_probabilities(weights, 2)
        hits = Counter()
        trials = 4000
        for seed in range(trials):
            sample = splitting_pps_sample(weights, 2, rng=np.random.default_rng(seed))
            for sampled in sample:
                hits[sampled.item] += 1
        for item, probability in probabilities.items():
            assert hits[item] / trials == pytest.approx(probability, abs=0.04)

    def test_systematic_sample_size_matches_budget(self):
        weights = {f"i{k}": float(k + 1) for k in range(60)}
        sample = systematic_pps_sample(weights, 12, rng=np.random.default_rng(0))
        assert len(sample) == 12

    def test_poisson_sample_total_unbiased(self):
        weights = {f"i{k}": float((k % 20) + 1) for k in range(100)}
        truth = sum(weights.values())
        totals = [
            poisson_pps_sample(weights, 25, rng=np.random.default_rng(seed)).total_estimate()
            for seed in range(300)
        ]
        assert np.mean(totals) == pytest.approx(truth, rel=0.05)


class TestPrioritySampling:
    def test_sample_size_and_membership(self):
        values = {f"i{k}": float(k + 1) for k in range(100)}
        sample = PrioritySample(values, 25, rng=np.random.default_rng(0))
        assert len(sample) == 25
        assert all(item in values for item in sample.estimates())

    def test_under_capacity_keeps_everything_exact(self):
        values = {"a": 3.0, "b": 7.0}
        sample = PrioritySample(values, 10, rng=np.random.default_rng(1))
        assert sample.threshold == 0.0
        assert sample.estimates() == values

    def test_validation(self):
        with pytest.raises(EmptySketchError):
            PrioritySample({}, 5)
        with pytest.raises(InvalidParameterError):
            PrioritySample({"a": 1.0}, 0)
        with pytest.raises(InvalidParameterError):
            PrioritySample({"a": -1.0}, 1)

    def test_adjusted_values_at_least_threshold(self):
        values = {f"i{k}": float((k % 10) + 1) for k in range(80)}
        sample = PrioritySample(values, 20, rng=np.random.default_rng(2))
        for item in sample.estimates():
            assert sample.adjusted_value(item) >= sample.threshold - 1e-9

    def test_subset_sum_unbiased(self):
        values = {f"i{k}": float((k % 15) + 1) for k in range(90)}
        subset = {f"i{k}" for k in range(0, 90, 3)}
        truth = sum(values[item] for item in subset)
        estimates = [
            PrioritySample(values, 30, rng=np.random.default_rng(seed)).subset_sum(
                lambda item: item in subset
            )
            for seed in range(400)
        ]
        standard_error = np.std(estimates) / np.sqrt(len(estimates))
        assert abs(np.mean(estimates) - truth) <= 4 * standard_error + 1.0

    def test_pseudo_inclusion_probabilities(self):
        values = {"big": 100.0, "small": 1.0}
        sample = PrioritySample(values, 1, rng=np.random.default_rng(3))
        assert sample.pseudo_inclusion_probability("big") >= sample.pseudo_inclusion_probability("small")
        assert sample.pseudo_inclusion_probability("missing") == 0.0

    def test_streaming_matches_batch_semantics(self):
        values = {f"i{k}": float((k % 10) + 1) for k in range(200)}
        sampler = StreamingPrioritySampler(30, rng=np.random.default_rng(4))
        sampler.extend(values.items())
        sample = sampler.result()
        assert len(sample.items()) == 30
        totals = []
        for seed in range(200):
            sampler = StreamingPrioritySampler(30, rng=np.random.default_rng(seed))
            sampler.extend(values.items())
            totals.append(sampler.result().total_estimate())
        assert np.mean(totals) == pytest.approx(sum(values.values()), rel=0.05)

    def test_streaming_validation(self):
        with pytest.raises(InvalidParameterError):
            StreamingPrioritySampler(0)
        sampler = StreamingPrioritySampler(2)
        with pytest.raises(InvalidParameterError):
            sampler.offer("a", -1.0)
        assert len(StreamingPrioritySampler(3).result().items()) == 0


class TestBottomK:
    def test_stable_rank_deterministic_and_in_range(self):
        first = stable_rank("item", 7)
        second = stable_rank("item", 7)
        other_seed = stable_rank("item", 8)
        assert first == second
        assert 0.0 < first < 1.0
        assert first != other_seed

    def test_counts_exact_for_retained_items(self):
        rows = [f"i{k % 20}" for k in range(400)]
        sketch = BottomKSketch(capacity=8, seed=0)
        for row in rows:
            sketch.update(row)
        truth = Counter(rows)
        probability = sketch.inclusion_probability
        for item, estimate in sketch.estimates().items():
            assert estimate == pytest.approx(truth[item] / probability)

    def test_capacity_respected(self):
        sketch = BottomKSketch(capacity=10, seed=1)
        for row in range(500):
            sketch.update(row)
        assert len(sketch) == 10

    def test_inclusion_probability_one_while_under_capacity(self):
        sketch = BottomKSketch(capacity=10, seed=2)
        sketch.update("a")
        assert sketch.inclusion_probability == 1.0
        assert sketch.estimate("a") == 1.0

    def test_distinct_count_estimate_reasonable(self):
        sketch = BottomKSketch(capacity=64, seed=3)
        for row in range(2000):
            sketch.update(row)
        assert sketch.estimated_distinct_items() == pytest.approx(2000, rel=0.5)

    def test_subset_sum_unbiased_over_seeds(self):
        rows = []
        for index in range(60):
            rows.extend([f"i{index}"] * ((index % 5) + 1))
        truth = sum((index % 5) + 1 for index in range(0, 60, 2))
        estimates = []
        for seed in range(300):
            sketch = BottomKSketch(capacity=20, seed=seed)
            for row in rows:
                sketch.update(row)
            estimates.append(
                sketch.subset_sum(lambda item: int(item[1:]) % 2 == 0)
            )
        standard_error = np.std(estimates) / np.sqrt(len(estimates))
        assert abs(np.mean(estimates) - truth) <= 4 * standard_error + 2.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            BottomKSketch(capacity=0)
        sketch = BottomKSketch(capacity=2, seed=0)
        with pytest.raises(InvalidParameterError):
            sketch.update("a", -1.0)


class TestReservoir:
    def test_single_item_reservoir_uniformity(self):
        hits = Counter()
        for seed in range(3000):
            reservoir = SingleItemReservoir(rng=np.random.default_rng(seed))
            for row in "abc":
                reservoir.offer(row)
            hits[reservoir.value] += 1
        for row in "abc":
            assert hits[row] / 3000 == pytest.approx(1 / 3, abs=0.05)

    def test_single_item_reservoir_tracks_offers(self):
        reservoir = SingleItemReservoir()
        assert reservoir.value is None
        reservoir.offer("x")
        assert reservoir.value == "x"
        assert reservoir.offers == 1

    def test_reservoir_sampler_size(self):
        sampler = ReservoirSampler(capacity=10, seed=0)
        sampler.extend(range(1000))
        assert len(sampler) == 10
        assert sampler.rows_processed == 1000

    def test_reservoir_inclusion_uniform(self):
        hits = Counter()
        trials = 2000
        for seed in range(trials):
            sampler = ReservoirSampler(capacity=2, seed=seed)
            sampler.extend(range(8))
            for row in sampler.sample():
                hits[row] += 1
        for row in range(8):
            assert hits[row] / trials == pytest.approx(2 / 8, abs=0.05)

    def test_item_estimates_and_subset_sum(self):
        sampler = ReservoirSampler(capacity=50, seed=1)
        rows = ["a"] * 60 + ["b"] * 40
        sampler.extend(rows)
        estimates = sampler.item_estimates()
        assert sum(estimates.values()) == pytest.approx(100.0)
        assert sampler.subset_sum(lambda item: item == "a") > 0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ReservoirSampler(capacity=0)


class TestVarOpt:
    def test_under_capacity_exact(self):
        weights = {"a": 1.0, "b": 2.0}
        sample = varopt_sample(weights, 5, rng=np.random.default_rng(0))
        assert sample.estimates() == weights

    def test_fixed_size(self):
        weights = {f"i{k}": float((k % 7) + 1) for k in range(50)}
        for seed in range(10):
            reduced = varopt_reduce(weights, 12, rng=np.random.default_rng(seed))
            assert len(reduced) <= 12

    def test_total_preserved_in_expectation(self):
        weights = {f"i{k}": float((k % 9) + 1) for k in range(40)}
        truth = sum(weights.values())
        totals = [
            sum(varopt_reduce(weights, 10, rng=np.random.default_rng(seed)).values())
            for seed in range(300)
        ]
        assert np.mean(totals) == pytest.approx(truth, rel=0.05)

    def test_large_items_kept_exactly(self):
        weights = {"huge": 1000.0}
        weights.update({f"s{k}": 1.0 for k in range(30)})
        reduced = varopt_reduce(weights, 5, rng=np.random.default_rng(1))
        assert reduced["huge"] == 1000.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            varopt_sample({"a": 1.0}, 0)


class TestBulkDrawsMatchTheLoopReference:
    """The vectorized samplers against the per-item loops they replaced.

    A ``PCG64`` bulk draw ``rng.random(n)`` yields the values of ``n``
    scalar draws, so each sampler must pick exactly what its loop picks
    from an identically seeded generator.
    """

    @staticmethod
    def _weights(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 200))
        values = rng.pareto(rng.uniform(0.3, 3.0), n) * (rng.random(n) < 0.9)
        return {f"i{index}": float(value) for index, value in enumerate(values)}

    @pytest.mark.parametrize("seed", range(40))
    def test_priority_sample(self, seed):
        values = self._weights(seed)
        k = max(1, len(values) // 4)
        rng = np.random.default_rng(seed + 1000)
        drawn = sorted(
            ((rng.random() / value, item) for item, value in values.items() if value > 0),
            key=lambda entry: entry[0],
        )
        sample = PrioritySample(values, k, rng=np.random.default_rng(seed + 1000))
        assert list(sample.estimates()) == [item for _, item in drawn[:k]]
        expected = 1.0 / drawn[k][0] if len(drawn) > k else 0.0
        assert sample.threshold == expected

    @pytest.mark.parametrize("seed", range(40))
    def test_poisson_pps_sample(self, seed):
        values = self._weights(seed)
        k = max(1, len(values) // 4)
        rng = np.random.default_rng(seed + 2000)
        probabilities = inclusion_probabilities(values, k)
        kept = [
            item
            for item, pi in probabilities.items()
            if pi > 0 and rng.random() < pi
        ]
        sample = poisson_pps_sample(values, k, rng=np.random.default_rng(seed + 2000))
        assert [sampled.item for sampled in sample] == kept

    @pytest.mark.parametrize("seed", range(40))
    def test_systematic_samples(self, seed):
        values = self._weights(seed)
        k = max(1, len(values) // 4)
        probabilities = inclusion_probabilities(values, k)

        def systematic_loop(order, rng):
            kept, cumulative, tick = [], 0.0, rng.random()
            for item in order:
                if probabilities[item] > 0:
                    cumulative += probabilities[item]
                    while tick < cumulative - 1e-12:
                        kept.append(item)
                        tick += 1.0
            return kept

        rng = np.random.default_rng(seed + 3000)
        order = list(values)
        rng.shuffle(order)
        sample = systematic_pps_sample(values, k, rng=np.random.default_rng(seed + 3000))
        assert [sampled.item for sampled in sample] == systematic_loop(order, rng)

        rng = np.random.default_rng(seed + 4000)
        positive = {item: value for item, value in values.items() if value > 0}
        small = [item for item in positive if probabilities[item] < 1.0]
        certain = [item for item in positive if probabilities[item] >= 1.0]
        rng.shuffle(small)
        reference = certain + systematic_loop(small, rng)
        sample = varopt_sample(values, k, rng=np.random.default_rng(seed + 4000))
        assert [sampled.item for sampled in sample] == reference
