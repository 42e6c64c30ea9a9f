"""VarOpt-style fixed-size unbiased weighted sampling.

VarOpt (Cohen, Duffield, Kaplan, Lund, Thorup) draws a *fixed-size* sample
of weighted items that is unbiased for every subset sum and has optimal
average variance.  The batch form implemented here is the reduction engine
offered as an alternative to Poisson/priority reduction in the unbiased
merge operation (§5.5 of the paper): given more than ``k`` weighted bins it
returns exactly ``k`` bins whose adjusted weights preserve all expectations.

The construction mirrors thresholded PPS sampling: a threshold ``τ`` is
chosen so that items above it are kept exactly (inclusion probability 1) and
items below it are kept with probability ``w_i / τ``; the number of kept
small items is made *exactly* equal to the remaining budget by using
systematic sampling over the small items' probabilities, and every kept
small item is assigned the adjusted weight ``τ``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro._typing import Item
from repro.core.batching import collapse_batch
from repro.errors import InvalidParameterError
from repro.sampling.horvitz_thompson import SampledItem, WeightedSample
from repro.sampling.pps import inclusion_probabilities, systematic_picks

__all__ = ["varopt_sample", "varopt_sample_batch", "varopt_reduce"]


def varopt_sample(
    weights: Dict[Item, float],
    sample_size: int,
    *,
    rng: Optional[np.random.Generator] = None,
) -> WeightedSample:
    """Draw a fixed-size unbiased sample of ``sample_size`` weighted items.

    Items with weight above the PPS threshold are kept with their exact
    weight; the remaining slots are filled from the small items by
    systematic sampling on their inclusion probabilities, each kept small
    item receiving the adjusted weight ``τ``.
    """
    if sample_size < 1:
        raise InvalidParameterError("sample_size must be at least 1")
    rng = np.random.default_rng(rng)
    positive = {item: w for item, w in weights.items() if w > 0}
    sample = WeightedSample()
    if len(positive) <= sample_size:
        for item, weight in positive.items():
            sample.add(SampledItem(item, weight, 1.0))
        return sample
    probabilities = inclusion_probabilities(positive, sample_size)
    small = []
    for item, weight in positive.items():
        if probabilities[item] >= 1.0:
            sample.add(SampledItem(item, weight, 1.0))
        else:
            small.append(item)
    # Systematic sampling over the small items, in random order, gives
    # exactly the residual budget in expectation and (up to the integrality
    # of the probabilities) in realization, while preserving each marginal
    # probability.  Kept small items carry the adjusted weight τ.
    small = [small[i] for i in rng.permutation(len(small)).tolist()]
    segments = np.fromiter((probabilities[item] for item in small), np.float64)
    for i in systematic_picks(segments, rng.random()).tolist():
        sample.add(SampledItem(small[i], positive[small[i]], probabilities[small[i]]))
    return sample


def varopt_sample_batch(
    items: Iterable[Item],
    weights: Optional[Iterable[float]] = None,
    *,
    sample_size: int,
    rng: Optional[np.random.Generator] = None,
) -> WeightedSample:
    """Draw a VarOpt sample directly from disaggregated rows.

    The rows are pre-aggregated with
    :func:`repro.core.batching.collapse_batch` (each distinct item's weights
    summed) and then passed to :func:`varopt_sample` — the batch-ingestion
    entry point for the VarOpt layer.
    """
    unique, collapsed, _, __ = collapse_batch(items, weights)
    return varopt_sample(dict(zip(unique, collapsed)), sample_size, rng=rng)


def varopt_reduce(
    weights: Dict[Item, float],
    sample_size: int,
    *,
    rng: Optional[np.random.Generator] = None,
) -> Dict[Item, float]:
    """Reduce a weight map to at most ``sample_size`` entries, unbiasedly.

    Returns the adjusted weights (``w_i`` for certainty items, ``τ`` for
    retained small items) — the form the unbiased merge operation needs.
    """
    sample = varopt_sample(weights, sample_size, rng=rng)
    return {sampled.item: sampled.adjusted_value for sampled in sample}
