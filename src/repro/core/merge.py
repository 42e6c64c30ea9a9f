"""Merge operations for Space Saving sketches (§5.5 of the paper).

Merging lets sketches built on different shards of the data (different days,
different mappers, different countries) be combined into one sketch that
answers queries over the union.  Two families of merges are provided:

* :func:`merge_misra_gries` — the classic biased merge of Agarwal et al.:
  sum the estimates and soft-threshold by the ``(m+1)``-th largest combined
  counter.  It preserves the deterministic error guarantee but biases every
  count downward, so further aggregation (subset sums) accumulates bias.
* :func:`merge_unbiased` — the paper's proposal: sum the estimates and then
  reduce back to ``m`` bins with an *unbiased* sampling reduction (fixed-size
  PPS / VarOpt, Poisson PPS, or priority sampling).  By Theorem 2 the merged
  sketch remains unbiased for every subset sum; the price is that mass is
  moved from the tail toward moderately frequent items, so slightly fewer of
  the top items may be detected (figure 1).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro._typing import Item, Seed
from repro.core.deterministic_space_saving import DeterministicSpaceSaving
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.errors import IncompatibleSketchError, InvalidParameterError
from repro.sampling.horvitz_thompson import WeightedSample
from repro.sampling.pps import poisson_pps_sample
from repro.sampling.priority import PrioritySample
from repro.sampling.varopt import varopt_reduce

__all__ = [
    "combine_estimates",
    "reduce_bins_unbiased",
    "merge_unbiased",
    "merge_misra_gries",
    "merge_many_unbiased",
]


def combine_estimates(sketches: Iterable) -> Dict[Item, float]:
    """Sum the retained estimates of several sketches into one bin map."""
    combined: Dict[Item, float] = {}
    for sketch in sketches:
        for item, count in sketch.estimates().items():
            combined[item] = combined.get(item, 0.0) + count
    return combined


def reduce_bins_unbiased(
    bins: Dict[Item, float],
    capacity: int,
    *,
    method: str = "pps",
    rng: Optional[np.random.Generator] = None,
) -> Dict[Item, float]:
    """Shrink a bin map to ``capacity`` entries preserving expected counts.

    Parameters
    ----------
    bins:
        Combined ``item -> count`` map, possibly larger than ``capacity``.
    capacity:
        Target number of bins ``m``.
    method:
        ``"pps"`` (fixed-size VarOpt/PPS reduction, the default),
        ``"poisson"`` (independent thresholded PPS — random output size), or
        ``"priority"`` (priority-sampling reduction).
    rng:
        The ``np.random.Generator`` behind the reduction's draws; pass a
        seeded one for reproducibility.
    """
    if capacity < 1:
        raise InvalidParameterError("capacity must be at least 1")
    if method not in ("pps", "poisson", "priority"):
        raise InvalidParameterError(
            f"unknown method {method!r}; expected 'pps', 'poisson' or 'priority'"
        )
    rng = np.random.default_rng(rng)
    positive = {item: count for item, count in bins.items() if count > 0}
    if len(positive) <= capacity:
        return dict(positive)
    if method == "pps":
        return varopt_reduce(positive, capacity, rng=rng)
    if method == "poisson":
        sample = poisson_pps_sample(positive, capacity, rng=rng)
        return _sample_to_bins(sample)
    sample = PrioritySample(positive, capacity, rng=rng).as_weighted_sample()
    return _sample_to_bins(sample)


def _sample_to_bins(sample: WeightedSample) -> Dict[Item, float]:
    """Convert a Horvitz-Thompson sample into adjusted-count bins."""
    return {sampled.item: sampled.adjusted_value for sampled in sample}


def merge_unbiased(
    first: UnbiasedSpaceSaving,
    second: UnbiasedSpaceSaving,
    *,
    capacity: Optional[int] = None,
    method: str = "pps",
    seed: Seed = None,
) -> UnbiasedSpaceSaving:
    """Merge two Unbiased Space Saving sketches into a new unbiased sketch.

    The two-sketch case of :func:`merge_many_unbiased`: the merged
    sketch's expected estimate for every item equals the sum of the two
    input sketches' expected estimates, so it remains unbiased for all
    disaggregated subset sums over the combined data (Theorem 2).  The
    inputs need not have equal capacities; ``capacity`` defaults to
    ``first.capacity``.
    """
    return merge_many_unbiased(
        [first, second], capacity=capacity, method=method, seed=seed
    )


def merge_many_unbiased(
    sketches: Iterable[UnbiasedSpaceSaving],
    *,
    capacity: Optional[int] = None,
    method: str = "pps",
    seed: Seed = None,
) -> UnbiasedSpaceSaving:
    """Merge any number of Unbiased Space Saving sketches in one reduction.

    The §5.5 path: combine the bins, reduce them to ``capacity`` with an
    unbiased reduction, and rebuild a live sketch with
    :meth:`UnbiasedSpaceSaving.from_bins`.  Reducing the union once
    (rather than pairwise) adds the least possible sampling noise and is
    what a map-reduce reducer would do with the sketches produced by its
    mappers.

    Parameters
    ----------
    sketches:
        The sketches to merge; they need not have equal capacities.  A
        single sketch is shrunk to ``capacity`` (tier demotion).
    capacity:
        Capacity of the merged sketch (defaults to the first sketch's).
    method:
        Reduction used to shrink the combined bins; see
        :func:`reduce_bins_unbiased`.
    seed:
        Seed of the one generator behind the reduction's draws and then
        the merged sketch's priorities and contests, in that order.
    """
    sketch_list = list(sketches)
    if not sketch_list:
        raise InvalidParameterError("merge_many_unbiased requires at least one sketch")
    if capacity is None:
        capacity = sketch_list[0].capacity
    rng = np.random.default_rng(seed)
    combined = combine_estimates(sketch_list)
    reduced = reduce_bins_unbiased(combined, capacity, method=method, rng=rng)
    return UnbiasedSpaceSaving.from_bins(
        capacity,
        reduced,
        rows_processed=sum(s.rows_processed for s in sketch_list),
        total_weight=sum(s.total_weight for s in sketch_list),
        seed=rng,
    )


def merge_misra_gries(
    first: DeterministicSpaceSaving,
    second: DeterministicSpaceSaving,
    *,
    capacity: Optional[int] = None,
) -> Dict[Item, float]:
    """The biased Misra-Gries-style merge of Agarwal et al. (§5.5).

    The combined estimates are soft-thresholded by the ``(m+1)``-th largest
    combined counter, guaranteeing at most ``m`` non-zero counters while
    preserving the deterministic error bound.  The returned value is the map
    of merged (biased) estimates; figure 1's comparison of merge behaviours
    is generated from this and :func:`reduce_bins_unbiased`.
    """
    if capacity is None:
        capacity = first.capacity
    if capacity < 1:
        raise IncompatibleSketchError("merged capacity must be at least 1")
    combined = combine_estimates([first, second])
    if len(combined) <= capacity:
        return combined
    sorted_counts = sorted(combined.values(), reverse=True)
    threshold = sorted_counts[capacity]
    merged = {
        item: count - threshold
        for item, count in combined.items()
        if count - threshold > 0
    }
    return merged
