"""Property-based tests of the martingale/unbiasedness mechanics.

Rather than Monte-Carlo averaging (covered by the unit and integration
tests), these properties verify the *exact* expectation identities the
proofs rely on, by enumerating the randomness of a single update or
reduction step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reduction import UnbiasedPairReduction
from repro.core.merge import reduce_bins_unbiased
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.sampling.pps import inclusion_probabilities


@settings(max_examples=100, deadline=None)
@given(
    min_count=st.integers(min_value=1, max_value=50),
    weight=st.integers(min_value=1, max_value=10),
)
def test_pairwise_reduction_expectation_identity(min_count, weight):
    """E[post-reduction counts] equals pre-reduction counts, exactly.

    The pairwise reduction keeps the combined count ``c = min_count + weight``
    and assigns it to the newcomer with probability ``weight / c``.  The
    expectation identity of Theorem 1 is then
    ``E[newcomer] = c · weight/c = weight`` and
    ``E[incumbent] = c · min_count/c = min_count``.
    """
    combined = min_count + weight
    probability_newcomer = weight / combined
    expected_newcomer = combined * probability_newcomer
    expected_incumbent = combined * (1.0 - probability_newcomer)
    assert expected_newcomer == pytest.approx(weight)
    assert expected_incumbent == pytest.approx(min_count)


@settings(max_examples=60, deadline=None)
@given(
    incumbent=st.integers(min_value=1, max_value=30),
    newcomer_weight=st.integers(min_value=1, max_value=10),
    seeds=st.lists(st.integers(min_value=0, max_value=10_000), min_size=300, max_size=300, unique=True),
)
def test_pairwise_reduction_empirical_expectation(incumbent, newcomer_weight, seeds):
    """Averaging the realized reduction over many seeds recovers both counts."""
    policy = UnbiasedPairReduction()
    bins = {"old": float(incumbent), "new": float(newcomer_weight)}
    total_new = 0.0
    total_old = 0.0
    for seed in seeds:
        reduced = policy.reduce(dict(bins), 1, np.random.default_rng(seed), "new")
        total_new += reduced.get("new", 0.0)
        total_old += reduced.get("old", 0.0)
    n = len(seeds)
    combined = incumbent + newcomer_weight
    tolerance = 4 * combined / (n**0.5) + 0.5
    assert total_new / n == pytest.approx(newcomer_weight, abs=tolerance)
    assert total_old / n == pytest.approx(incumbent, abs=tolerance)


@settings(max_examples=40, deadline=None)
@given(
    counts=st.dictionaries(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=30),
        min_size=3,
        max_size=25,
    ),
    capacity=st.integers(min_value=1, max_value=8),
    seeds=st.lists(
        st.integers(min_value=0, max_value=100_000), min_size=200, max_size=200, unique=True
    ),
)
def test_unbiased_bin_reduction_preserves_item_expectations(counts, capacity, seeds):
    """reduce_bins_unbiased keeps E[count] for every item (Theorem 2's condition)."""
    bins = {item: float(count) for item, count in counts.items()}
    total = sum(bins.values())
    sums = {item: 0.0 for item in bins}
    for seed in seeds:
        reduced = reduce_bins_unbiased(bins, capacity, method="pps", rng=np.random.default_rng(seed))
        for item in sums:
            sums[item] += reduced.get(item, 0.0)
    n = len(seeds)
    for item, count in bins.items():
        # The Horvitz-Thompson estimate of one item has standard deviation at
        # most sqrt(c_i * total) (adjusted values are bounded by the larger of
        # c_i and the PPS threshold, which never exceeds the total).
        standard_error = (count * total) ** 0.5 / (n**0.5)
        assert sums[item] / n == pytest.approx(count, abs=6 * standard_error + 1.0)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=60),
    capacity=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_total_count_martingale_invariant(rows, capacity, seed):
    """The total is preserved exactly after every single update (not just at the end)."""
    sketch = UnbiasedSpaceSaving(capacity, seed=seed)
    for index, row in enumerate(rows, start=1):
        sketch.update(row)
        assert sketch.total_estimate() == pytest.approx(float(index))


@settings(max_examples=60, deadline=None)
@given(
    counts=st.dictionaries(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=1, max_value=100),
        min_size=2,
        max_size=30,
    ),
    budget=st.integers(min_value=1, max_value=10),
)
def test_horvitz_thompson_adjustment_is_exactly_unbiased(counts, budget):
    """Σ_i π_i · (x_i / π_i) equals the true total for thresholded PPS probabilities."""
    weights = {item: float(count) for item, count in counts.items()}
    probabilities = inclusion_probabilities(weights, budget)
    reconstructed = sum(
        probabilities[item] * (weights[item] / probabilities[item])
        for item in weights
        if probabilities[item] > 0
    )
    assert reconstructed == pytest.approx(sum(weights.values()))
