"""Property-based tests for the PPS / priority / VarOpt sampling machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling.pps import (
    expected_sample_size,
    inclusion_probabilities,
    pps_threshold,
    splitting_pps_sample,
)
from repro.sampling.priority import PrioritySample
from repro.sampling.varopt import varopt_reduce

weight_maps = st.dictionaries(
    st.integers(min_value=0, max_value=200),
    st.floats(min_value=0.01, max_value=1_000.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)
budgets = st.integers(min_value=1, max_value=20)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


@settings(max_examples=80, deadline=None)
@given(weights=weight_maps, budget=budgets)
def test_inclusion_probabilities_are_valid_and_sum_to_budget(weights, budget):
    """π_i ∈ (0, 1] and Σπ_i equals min(budget, number of positive items)."""
    probabilities = inclusion_probabilities(weights, budget)
    positive_items = sum(1 for weight in weights.values() if weight > 0)
    for item, probability in probabilities.items():
        assert 0.0 <= probability <= 1.0
        if weights[item] > 0:
            assert probability > 0.0
    expected = min(budget, positive_items)
    assert expected_sample_size(probabilities) == pytest.approx(expected, rel=1e-6)


@settings(max_examples=80, deadline=None)
@given(weights=weight_maps, budget=budgets)
def test_threshold_monotone_in_budget(weights, budget):
    """A larger budget never increases the PPS threshold."""
    smaller = pps_threshold(weights, budget)
    larger = pps_threshold(weights, budget + 5)
    assert larger <= smaller + 1e-9


@settings(max_examples=80, deadline=None)
@given(weights=weight_maps, budget=budgets)
def test_larger_weights_have_larger_probabilities(weights, budget):
    """Inclusion probabilities are monotone in the weights."""
    probabilities = inclusion_probabilities(weights, budget)
    ordered = sorted(weights.items(), key=lambda kv: kv[1])
    for (_, small_weight), (_, large_weight) in zip(ordered, ordered[1:]):
        del small_weight, large_weight
    for first, second in zip(ordered, ordered[1:]):
        assert probabilities[first[0]] <= probabilities[second[0]] + 1e-9


@settings(max_examples=50, deadline=None)
@given(weights=weight_maps, budget=budgets, seed=seeds)
def test_splitting_sample_size_is_fixed(weights, budget, seed):
    """The splitting (pivotal) procedure returns exactly min(budget, positive items)."""
    sample = splitting_pps_sample(weights, budget, rng=np.random.default_rng(seed))
    positive_items = sum(1 for weight in weights.values() if weight > 0)
    assert len(sample) == min(budget, positive_items)


@settings(max_examples=50, deadline=None)
@given(weights=weight_maps, budget=budgets, seed=seeds)
def test_priority_sample_adjusted_values_dominate_threshold(weights, budget, seed):
    """Every sampled adjusted value is at least the threshold, and size ≤ k."""
    sample = PrioritySample(weights, budget, rng=np.random.default_rng(seed))
    assert len(sample) <= budget
    for item in sample.estimates():
        assert sample.adjusted_value(item) >= sample.threshold - 1e-9
        assert sample.pseudo_inclusion_probability(item) <= 1.0


@settings(max_examples=50, deadline=None)
@given(weights=weight_maps, budget=budgets, seed=seeds)
def test_varopt_reduce_size_and_adjusted_weights(weights, budget, seed):
    """VarOpt reduction respects the budget and never shrinks a kept certainty item."""
    reduced = varopt_reduce(weights, budget, rng=np.random.default_rng(seed))
    positive_items = sum(1 for weight in weights.values() if weight > 0)
    assert len(reduced) <= max(budget, positive_items)
    if positive_items > budget:
        assert len(reduced) <= budget + 1  # systematic rounding may keep one extra
    for item, adjusted in reduced.items():
        assert adjusted >= weights[item] - 1e-9
