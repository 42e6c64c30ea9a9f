"""Fixed-rate Sample-and-Hold / counting samples.

The basic Sample-and-Hold sketch (Gibbons & Matias 1998; Estan & Varghese
2003) processes a disaggregated stream with a fixed sampling rate ``p``:

* a row whose item is already in the sketch increments that item's counter
  exactly;
* a row whose item is not in the sketch *enters* the sketch with probability
  ``p`` (and the entering row is counted).

Conditional on an item entering, the number of its occurrences missed before
entry is Geometric, so adding the mean ``(1 − p)/p`` back to every retained
counter gives an unbiased estimate of the item's total count (the reduction
view of §5.4).  The sketch size is *random* — it grows with the number of
distinct items times ``p`` — which is the practical weakness the adaptive
variant fixes at the cost of extra estimation noise.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro._typing import Item
from repro.core.base import SubsetSumSketch
from repro.core.variance import EstimateWithError
from repro.errors import InvalidParameterError, UnsupportedUpdateError

__all__ = ["CountingSampleSketch"]


class CountingSampleSketch(SubsetSumSketch):
    """Sample-and-Hold with a fixed admission probability.

    Parameters
    ----------
    sampling_rate:
        The admission probability ``p`` for rows of unseen items.
    capacity:
        Advisory value reported through the common sketch interface (the
        expected final size); the structure itself is unbounded, which is
        precisely the property the paper's comparison highlights.
    seed:
        Seed for admission coin flips.

    Example
    -------
    >>> sketch = CountingSampleSketch(sampling_rate=1.0, seed=0)
    >>> _ = sketch.extend(["a", "a", "b"])
    >>> sketch.estimate("a")
    2.0
    """

    def __init__(
        self,
        sampling_rate: float,
        *,
        capacity: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        if not 0 < sampling_rate <= 1:
            raise InvalidParameterError("sampling_rate must lie in (0, 1]")
        super().__init__(capacity or 1)
        self._rng = np.random.default_rng(seed)
        self._sampling_rate = sampling_rate
        self._counters: Dict[Item, int] = {}

    @property
    def sampling_rate(self) -> float:
        """The fixed admission probability ``p``."""
        return self._sampling_rate

    def __len__(self) -> int:
        return len(self._counters)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, item: Item, weight: float = 1.0) -> None:
        """Process one unit row."""
        if weight != 1:
            raise UnsupportedUpdateError("Sample-and-Hold processes unit rows only")
        self._record_update(1.0)
        if item in self._counters:
            self._counters[item] += 1
            return
        if self._rng.random() < self._sampling_rate:
            self._counters[item] = 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _adjustment(self) -> float:
        """Mean of the Geometric number of missed pre-entry occurrences."""
        return (1.0 - self._sampling_rate) / self._sampling_rate

    def estimate(self, item: Item) -> float:
        """Unbiased estimate of the item's count (0 when never admitted)."""
        count = self._counters.get(item)
        if count is None:
            return 0.0
        return count + self._adjustment()

    def estimates(self) -> Dict[Item, float]:
        adjustment = self._adjustment()
        return {item: count + adjustment for item, count in self._counters.items()}

    def raw_counts(self) -> Dict[Item, int]:
        """The unadjusted held counts (exact counts after each item's entry)."""
        return dict(self._counters)

    def subset_sum_with_error(self, predicate) -> EstimateWithError:
        """Subset sum with the per-item Geometric variance summed.

        Each retained counter's estimate carries the variance of its missed
        pre-entry occurrences, ``(1 − p)/p²``; counters are independent given
        their entry, so variances add over the subset.
        """
        rate = self._sampling_rate
        per_item_variance = (1.0 - rate) / (rate * rate)
        estimate = 0.0
        matched = 0
        for item, count in self._counters.items():
            if predicate(item):
                estimate += count + self._adjustment()
                matched += 1
        return EstimateWithError(estimate=estimate, variance=per_item_variance * matched)
