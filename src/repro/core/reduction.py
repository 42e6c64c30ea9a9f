"""Pluggable reduction operations and the generalized frequent-item sketch.

Section 5.3 of the paper observes that the Space Saving, Misra-Gries and
Lossy Counting sketches all follow the same template (Algorithm 2):

    1. increment the arriving item's counter exactly, then
    2. apply a *reduction* operation that brings the number of counters back
       within budget.

The reduction is the only place the sketches differ, and Theorem 2 shows
that any reduction whose post-reduction estimates equal the pre-reduction
estimates *in expectation* yields an unbiased sketch for the disaggregated
subset sum problem.  This module makes the reduction a first-class,
swappable strategy so the generalizations discussed in the paper (multi-bin
PPS reduction, priority-sampling reduction, decayed reduction) can be
expressed and tested against the same machinery.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

import numpy as np

from repro._typing import Item
from repro.core.base import SubsetSumSketch
from repro.core.variance import EstimateWithError, subset_variance_estimate
from repro.errors import InvalidParameterError, UnsupportedUpdateError
from repro.sampling.varopt import varopt_reduce

__all__ = [
    "ReductionPolicy",
    "DeterministicPairReduction",
    "UnbiasedPairReduction",
    "PPSReduction",
    "GeneralizedSpaceSaving",
]


class ReductionPolicy(abc.ABC):
    """Strategy that shrinks a bin map back down to the capacity."""

    #: Whether the policy preserves expected counts (Theorem 2's condition).
    unbiased: bool = False

    @abc.abstractmethod
    def reduce(
        self,
        bins: Dict[Item, float],
        capacity: int,
        rng: np.random.Generator,
        newcomer: Item,
    ) -> Dict[Item, float]:
        """Return a new bin map with at most ``capacity`` entries.

        Parameters
        ----------
        bins:
            The post-increment bins (may exceed the capacity by one or more).
        capacity:
            The bin budget ``m``.
        rng:
            The ``np.random.Generator`` owned by the sketch.
        newcomer:
            The item whose arrival triggered the reduction; the two pairwise
            policies use it to identify the freshly inserted bin.
        """


def _two_smallest(bins: Dict[Item, float], newcomer: Item) -> tuple:
    """Return (newcomer, other) where ``other`` is the smallest incumbent bin."""
    other = min(
        (item for item in bins if item != newcomer),
        key=lambda item: bins[item],
    )
    return newcomer, other


class DeterministicPairReduction(ReductionPolicy):
    """The Deterministic Space Saving reduction.

    Collapses the newcomer's bin into the smallest incumbent bin and hands
    the combined count to the *newcomer* — equivalent to always taking over
    the minimum bin.  Biased (counts only ever grow), but with the classic
    deterministic ``n_tot / m`` error guarantee.
    """

    unbiased = False

    def reduce(
        self,
        bins: Dict[Item, float],
        capacity: int,
        rng: np.random.Generator,
        newcomer: Item,
    ) -> Dict[Item, float]:
        new, other = _two_smallest(bins, newcomer)
        combined = bins[new] + bins[other]
        reduced = dict(bins)
        del reduced[other]
        reduced[new] = combined
        return reduced


class UnbiasedPairReduction(ReductionPolicy):
    """The Unbiased Space Saving reduction: a PPS sample of the two smallest bins.

    The combined count of the newcomer and the smallest incumbent is assigned
    to one of the two labels with probability proportional to its own count,
    which keeps both expected counts unchanged (Theorem 1).
    """

    unbiased = True

    def reduce(
        self,
        bins: Dict[Item, float],
        capacity: int,
        rng: np.random.Generator,
        newcomer: Item,
    ) -> Dict[Item, float]:
        new, other = _two_smallest(bins, newcomer)
        combined = bins[new] + bins[other]
        if combined <= 0:
            raise UnsupportedUpdateError("cannot reduce bins with zero combined count")
        keep_new = rng.random() * combined < bins[new]
        winner = new if keep_new else other
        loser = other if keep_new else new
        reduced = dict(bins)
        del reduced[loser]
        reduced[winner] = combined
        return reduced


class PPSReduction(ReductionPolicy):
    """Full-bin PPS reduction (§5.3's generalization).

    Reduces *all* bins back to the capacity with a fixed-size PPS (VarOpt)
    sample whose Horvitz-Thompson adjusted counts preserve every expectation.
    Compared with the pairwise reduction it supports adding items with
    arbitrary weights and shrinking by several bins in one step, at the cost
    of real-valued counters.
    """

    unbiased = True

    def reduce(
        self,
        bins: Dict[Item, float],
        capacity: int,
        rng: np.random.Generator,
        newcomer: Item,
    ) -> Dict[Item, float]:
        return varopt_reduce(bins, capacity, rng=rng)


class GeneralizedSpaceSaving(SubsetSumSketch):
    """Algorithm 2: exact increment followed by a pluggable reduction.

    This dictionary-based sketch trades the ``O(1)`` update of the
    specialized implementations for complete generality: any reduction
    policy, arbitrary positive weights, and multi-bin shrinks.  It is the
    reference implementation the property-based tests compare the optimized
    sketches against, and the vehicle for the paper's §5.3 extensions.

    Example
    -------
    >>> sketch = GeneralizedSpaceSaving(capacity=2, policy=UnbiasedPairReduction(), seed=3)
    >>> _ = sketch.extend(["x", "y", "z", "x"])
    >>> len(sketch) <= 2
    True
    """

    def __init__(
        self,
        capacity: int,
        *,
        policy: Optional[ReductionPolicy] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(capacity)
        self._rng = np.random.default_rng(seed)
        self._policy = policy or UnbiasedPairReduction()
        self._bins: Dict[Item, float] = {}

    @property
    def policy(self) -> ReductionPolicy:
        """The reduction strategy in use."""
        return self._policy

    def update(self, item: Item, weight: float = 1.0) -> None:
        """Exact increment followed by a reduction when over budget."""
        if weight <= 0:
            raise InvalidParameterError("weights must be positive")
        self._record_update(weight)
        self._bins[item] = self._bins.get(item, 0.0) + float(weight)
        if len(self._bins) > self._capacity:
            self._bins = self._policy.reduce(self._bins, self._capacity, self._rng, item)

    def add_aggregate(self, item: Item, count: float) -> None:
        """Add a pre-aggregated count for ``item`` (the §5.3 'arbitrary counts' case).

        Only meaningful with an unbiased multi-bin policy such as
        :class:`PPSReduction`; the pairwise policies would assign the whole
        count to a single survivor of the pair, which remains unbiased but
        has needlessly high variance.
        """
        if count <= 0:
            raise InvalidParameterError("aggregate counts must be positive")
        self.update(item, count)

    def estimate(self, item: Item) -> float:
        return self._bins.get(item, 0.0)

    def estimates(self) -> Dict[Item, float]:
        return dict(self._bins)

    @property
    def min_count(self) -> float:
        """Minimum bin count (0 while under capacity)."""
        if len(self._bins) < self._capacity or not self._bins:
            return 0.0
        return min(self._bins.values())

    def subset_sum_with_error(self, predicate) -> EstimateWithError:
        """Subset sum with the equation-5 variance estimate."""
        estimate = 0.0
        in_subset = 0
        for item, count in self._bins.items():
            if predicate(item):
                estimate += count
                in_subset += 1
        return EstimateWithError(
            estimate=estimate,
            variance=subset_variance_estimate(self.min_count, in_subset),
        )
