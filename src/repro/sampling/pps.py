"""Probability proportional to size (PPS) sampling machinery.

PPS sampling is the optimal design for subset sum estimation (§5.1): when
inclusion probabilities are proportional to item values, every
Horvitz-Thompson term is constant and the total estimate has zero variance.
With skewed data exact proportionality is impossible for sample sizes above
one, so the standard design uses *thresholded* probabilities

    π_i = min(1, x_i / τ)

with the threshold ``τ`` chosen so the expected sample size equals the
budget ``k``.  This module provides:

* :func:`pps_threshold` / :func:`inclusion_probabilities` — solve for ``τ``
  and the resulting probabilities.
* :func:`poisson_pps_sample` — independent Bernoulli(π_i) sampling.
* :func:`splitting_pps_sample` — a fixed-size sample with exactly the target
  inclusion probabilities via the pivotal method, an instance of the
  Deville-Tillé splitting procedure referenced in §5.1/§5.5.
* :func:`systematic_pps_sample` — fixed-size systematic PPS sampling.

These are used three ways in the reproduction: as the theoretical yardstick
for the sketch's empirical inclusion probabilities (figure 2), as the
reducer inside the unbiased merge operation (§5.5), and as the "gold
standard" variance reference (figure 9).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro._typing import Item
from repro.errors import InvalidParameterError
from repro.sampling.horvitz_thompson import SampledItem, WeightedSample

__all__ = [
    "pps_threshold",
    "inclusion_probabilities",
    "expected_sample_size",
    "poisson_pps_sample",
    "splitting_pps_sample",
    "systematic_pps_sample",
]


def _validate_weights(weights: Dict[Item, float]) -> None:
    if not weights:
        raise InvalidParameterError("weights must be a non-empty mapping")
    for item, weight in weights.items():
        if weight < 0:
            raise InvalidParameterError(f"negative weight for {item!r}")


def pps_threshold(weights: Dict[Item, float], sample_size: int) -> float:
    """Solve for the threshold ``τ`` with ``Σ_i min(1, x_i/τ) = k``.

    When ``k`` is at least the number of positive-weight items every item is
    included with probability 1 and the threshold is 0 by convention.

    The solver sorts the weights once and then finds, in a single linear
    scan, the number of "large" items that are included with probability 1;
    the remaining probability mass determines ``τ`` in closed form.
    """
    _validate_weights(weights)
    if sample_size < 1:
        raise InvalidParameterError("sample_size must be at least 1")
    positive = sorted((w for w in weights.values() if w > 0), reverse=True)
    if len(positive) <= sample_size:
        return 0.0
    total = sum(positive)
    # With the j largest items taken with probability 1, the threshold that
    # spends the remaining budget on the tail is tau = tail_sum / (k - j).
    # The correct j is the smallest one for which the j-th largest weight
    # exceeds that threshold's cutoff.
    tail_sum = total
    for num_certain, weight in enumerate(positive):
        remaining_budget = sample_size - num_certain
        if remaining_budget <= 0:
            # Budget exhausted by certainty items; threshold sits at the
            # smallest certainty weight so that no tail item can enter.
            return positive[sample_size - 1]
        tau = tail_sum / remaining_budget
        if weight <= tau:
            return tau
        tail_sum -= weight
    # Unreachable: len(positive) > sample_size guarantees an interior return.
    raise AssertionError("pps_threshold failed to converge")


def inclusion_probabilities(
    weights: Dict[Item, float], sample_size: int
) -> Dict[Item, float]:
    """Thresholded PPS inclusion probabilities ``π_i = min(1, x_i/τ)``."""
    tau = pps_threshold(weights, sample_size)
    if tau == 0.0:
        return {item: (1.0 if weight > 0 else 0.0) for item, weight in weights.items()}
    return {
        item: min(1.0, weight / tau) if weight > 0 else 0.0
        for item, weight in weights.items()
    }


def expected_sample_size(probabilities: Dict[Item, float]) -> float:
    """Sum of inclusion probabilities (the expected number of sampled items)."""
    return float(sum(probabilities.values()))


def poisson_pps_sample(
    weights: Dict[Item, float],
    sample_size: int,
    *,
    rng: Optional[np.random.Generator] = None,
) -> WeightedSample:
    """Draw a Poisson PPS sample with expected size ``sample_size``.

    Each item is included independently with probability ``π_i``; the
    realized sample size is random with mean ``sample_size``.  The
    items with ``π_i > 0`` take one uniform each, in mapping order, from
    one ``rng.random(n)`` call.
    """
    rng = np.random.default_rng(rng)
    probabilities = inclusion_probabilities(weights, sample_size)
    candidates = [item for item in weights if probabilities[item] > 0]
    sample = WeightedSample()
    for item, uniform in zip(candidates, rng.random(len(candidates)).tolist()):
        if uniform < probabilities[item]:
            sample.add(SampledItem(item, weights[item], probabilities[item]))
    return sample


def splitting_pps_sample(
    weights: Dict[Item, float],
    sample_size: int,
    *,
    rng: Optional[np.random.Generator] = None,
) -> WeightedSample:
    """Fixed-size PPS sample via the pivotal (splitting) method.

    The pivotal method is a member of the Deville-Tillé splitting family: it
    repeatedly takes two units whose inclusion probabilities are strictly
    between 0 and 1 and "splits" the target distribution so that one of them
    is resolved to 0 or 1, preserving the marginal probabilities exactly.
    The result is a sample whose size is fixed (when ``Σ π_i`` is integral,
    which thresholded PPS probabilities guarantee by construction) and whose
    inclusion probabilities match the target exactly.
    """
    rng = np.random.default_rng(rng)
    probabilities = inclusion_probabilities(weights, sample_size)
    # Work with a mutable copy; resolve probabilities pairwise.
    pending = [
        [item, pi] for item, pi in probabilities.items() if 0.0 < pi < 1.0
    ]
    resolved: Dict[Item, float] = {
        item: pi for item, pi in probabilities.items() if pi >= 1.0
    }
    while len(pending) > 1:
        first, second = pending[0], pending[1]
        pi_a, pi_b = first[1], second[1]
        total = pi_a + pi_b
        if total < 1.0:
            # One of the two is driven to zero; the other absorbs the mass.
            if rng.random() < pi_a / total:
                first[1], second[1] = total, 0.0
            else:
                first[1], second[1] = 0.0, total
        else:
            # One of the two is driven to one; the other keeps the remainder.
            excess = total - 1.0
            if rng.random() < (1.0 - pi_b) / (2.0 - total):
                first[1], second[1] = 1.0, excess
            else:
                first[1], second[1] = excess, 1.0
        for unit in (first, second):
            if unit[1] >= 1.0:
                resolved[unit[0]] = 1.0
        # Compact the pending list: keep only still-unresolved units.
        pending = [unit for unit in pending if 0.0 < unit[1] < 1.0]
    # At most one unit can remain unresolved when the target size is not
    # integral; resolve it by a Bernoulli draw to stay unbiased.
    for item, pi in pending:
        if rng.random() < pi:
            resolved[item] = 1.0
    sample = WeightedSample()
    for item in resolved:
        sample.add(SampledItem(item, weights[item], probabilities[item]))
    return sample


def systematic_pps_sample(
    weights: Dict[Item, float],
    sample_size: int,
    *,
    rng: Optional[np.random.Generator] = None,
    order: Optional[Sequence[Item]] = None,
) -> WeightedSample:
    """Fixed-size systematic PPS sample.

    Items are laid out on a line with segment lengths equal to their
    inclusion probabilities; a random start in ``[0, 1)`` followed by unit
    strides selects the sample.  Marginal inclusion probabilities are exact;
    joint probabilities depend on the ordering, which callers can randomize
    by passing a shuffled ``order``.
    """
    rng = np.random.default_rng(rng)
    probabilities = inclusion_probabilities(weights, sample_size)
    if order is None:
        order = list(weights)
        rng.shuffle(order)
    laid_out = [item for item in order if probabilities[item] > 0]
    segments = np.fromiter((probabilities[item] for item in laid_out), np.float64)
    sample = WeightedSample()
    for i in systematic_picks(segments, rng.random()).tolist():
        item = laid_out[i]
        sample.add(SampledItem(item, weights[item], probabilities[item]))
    return sample


def systematic_picks(segments: np.ndarray, start: float) -> np.ndarray:
    """Indices of the segments, laid end to end, that the ticks
    ``start + j`` (``j = 0, 1, ...``) fall in, once per tick: a segment
    shorter than 1 is picked at most once."""
    ticks = np.maximum(np.ceil(np.cumsum(segments) - 1e-12 - start), 0.0)
    return np.repeat(np.arange(ticks.size), np.diff(ticks, prepend=0.0).astype(np.int64))
