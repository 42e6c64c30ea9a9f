"""Adaptive Sample-and-Hold (Cohen, Duffield, Kaplan, Lund & Thorup 2007).

Adaptive Sample-and-Hold bounds the number of counters by lowering the
sampling rate whenever the sketch grows past its budget.  The rate decrease
is paired with the randomized counter adjustment described in §5.4 of the
paper, which keeps the estimates unbiased:

* with probability ``p'/p`` a counter is left unchanged;
* otherwise it is decremented by a ``Geometric(p')`` random variable, and
  dropped if it becomes negative.

Adding the Geometric mean ``(1 − p')/p'`` back to every surviving counter at
query time yields unbiased count estimates, so the sketch answers the
disaggregated subset sum problem.  The paper's analysis (and figure 2 of
Cohen et al., cited in §7) shows it is strictly noisier than Unbiased Space
Saving because each rate decrease injects Geometric noise with variance
``(1 − p')/p'²`` into *every* bin; this implementation exists to make that
comparison reproducible.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro._typing import Item
from repro.core.base import SubsetSumSketch
from repro.core.variance import EstimateWithError
from repro.errors import InvalidParameterError, UnsupportedUpdateError

__all__ = ["AdaptiveSampleAndHold"]


class AdaptiveSampleAndHold(SubsetSumSketch):
    """Bounded-size Sample-and-Hold with unbiased rate-decrease adjustments.

    Parameters
    ----------
    capacity:
        Maximum number of retained counters.
    rate_decrease:
        Multiplicative factor applied to the sampling rate at each overflow
        (strictly between 0 and 1; smaller values evict more aggressively).
    seed:
        Seed for all coin flips.

    Example
    -------
    >>> sketch = AdaptiveSampleAndHold(capacity=16, seed=2)
    >>> _ = sketch.extend(["a"] * 30 + ["b"] * 5)
    >>> sketch.estimate("a") > 0
    True
    """

    def __init__(
        self,
        capacity: int,
        *,
        rate_decrease: float = 0.9,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(capacity)
        self._rng = np.random.default_rng(seed)
        if not 0 < rate_decrease < 1:
            raise InvalidParameterError("rate_decrease must lie strictly between 0 and 1")
        self._rate_decrease = rate_decrease
        self._sampling_rate = 1.0
        self._counters: Dict[Item, int] = {}
        self._rate_changes = 0

    @property
    def sampling_rate(self) -> float:
        """Current admission probability ``p``."""
        return self._sampling_rate

    @property
    def rate_changes(self) -> int:
        """How many times the sampling rate has been decreased."""
        return self._rate_changes

    def __len__(self) -> int:
        return len(self._counters)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, item: Item, weight: float = 1.0) -> None:
        """Process one unit row."""
        if weight != 1:
            raise UnsupportedUpdateError("Adaptive Sample-and-Hold processes unit rows only")
        self._record_update(1.0)
        if item in self._counters:
            self._counters[item] += 1
            return
        if self._rng.random() < self._sampling_rate:
            self._counters[item] = 1
            while len(self._counters) > self._capacity:
                self._decrease_rate()

    def _geometric(self, probability: float) -> int:
        """Number of failures before the first success of a Bernoulli(probability)."""
        if probability >= 1.0:
            return 0
        uniform = self._rng.random()
        # Inverse-CDF sampling of the Geometric distribution on {0, 1, 2, ...}.
        return int(math.floor(math.log(1.0 - uniform) / math.log(1.0 - probability)))

    def _decrease_rate(self) -> None:
        """Lower the sampling rate and resample every counter accordingly."""
        old_rate = self._sampling_rate
        new_rate = old_rate * self._rate_decrease
        self._rate_changes += 1
        survivors: Dict[Item, int] = {}
        for item, count in self._counters.items():
            if self._rng.random() < new_rate / old_rate:
                survivors[item] = count
                continue
            adjusted = count - 1 - self._geometric(new_rate)
            if adjusted >= 0:
                # The paper's description decrements and keeps non-negative
                # counters; a zero counter is retained (it may still grow).
                survivors[item] = adjusted
            # Negative counters are dropped entirely.
        self._counters = survivors
        self._sampling_rate = new_rate

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _adjustment(self) -> float:
        """Mean Geometric correction added back to surviving counters."""
        return (1.0 - self._sampling_rate) / self._sampling_rate

    def estimate(self, item: Item) -> float:
        """Approximately unbiased estimate of the item's total count."""
        count = self._counters.get(item)
        if count is None:
            return 0.0
        return count + self._adjustment()

    def estimates(self) -> Dict[Item, float]:
        adjustment = self._adjustment()
        return {item: count + adjustment for item, count in self._counters.items()}

    def raw_counts(self) -> Dict[Item, int]:
        """The held counters before the Geometric mean adjustment."""
        return dict(self._counters)

    def subset_sum_with_error(self, predicate) -> EstimateWithError:
        """Subset sum with the per-counter Geometric variance summed."""
        rate = self._sampling_rate
        per_item_variance = (1.0 - rate) / (rate * rate)
        estimate = 0.0
        matched = 0
        for item, count in self._counters.items():
            if predicate(item):
                estimate += count + self._adjustment()
                matched += 1
        return EstimateWithError(estimate=estimate, variance=per_item_variance * matched)
