"""Step Sample-and-Hold.

Step Sample-and-Hold (discussed in §5.4 of the paper) avoids the Geometric
resampling noise of the adaptive variant by remembering, for every retained
item, how many of its rows were counted during each *step* — a maximal
period during which the sampling rate is constant.  The estimator then
corrects each step's count with that step's own rate, so no information
gathered at a high rate is destroyed when the rate later drops.

The price is the one the paper calls out: storage grows with the number of
steps an item's counter spans, and estimation time is superlinear in that
number.  This implementation keeps the full per-step counts to make those
costs measurable in the benchmarks.

The estimator used here applies the standard Sample-and-Hold correction
within the step where the item (re-)entered the sketch — adding the mean
``(1 − p_j)/p_j`` of the missed pre-entry occurrences for that step's rate
``p_j`` — and counts all later steps exactly.  Rows that arrived before the
entering step, while the item was absent from the sketch, are missed by
*any* sample-and-hold scheme and are accounted for by the entering-step
correction exactly as in Cohen et al.'s estimator.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List, Optional

import numpy as np

from repro._typing import Item
from repro.core.base import SubsetSumSketch
from repro.core.variance import EstimateWithError
from repro.errors import InvalidParameterError, UnsupportedUpdateError

__all__ = ["StepSampleAndHold"]


class StepSampleAndHold(SubsetSumSketch):
    """Sample-and-Hold that keeps per-step counts for each retained item.

    Parameters
    ----------
    capacity:
        Maximum number of retained items; exceeding it triggers a rate
        decrease (a new step).
    rate_decrease:
        Multiplicative rate decrease applied when the sketch overflows.
    seed:
        Seed for admission coin flips.
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
        self._step_rates: List[float] = [1.0]
        # item -> {step_index: count}, plus the step at which the item entered.
        self._step_counts: Dict[Item, Dict[int, int]] = {}
        self._entry_step: Dict[Item, int] = {}

    @property
    def current_step(self) -> int:
        """Index of the current step (0-based)."""
        return len(self._step_rates) - 1

    @property
    def sampling_rate(self) -> float:
        """Admission probability of the current step."""
        return self._step_rates[-1]

    @property
    def step_rates(self) -> List[float]:
        """The sampling rate of every step so far."""
        return list(self._step_rates)

    def __len__(self) -> int:
        return len(self._step_counts)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, item: Item, weight: float = 1.0) -> None:
        """Process one unit row."""
        if weight != 1:
            raise UnsupportedUpdateError("Step Sample-and-Hold processes unit rows only")
        self._record_update(1.0)
        step = self.current_step
        if item in self._step_counts:
            per_step = self._step_counts[item]
            per_step[step] = per_step.get(step, 0) + 1
            return
        if self._rng.random() < self.sampling_rate:
            self._step_counts[item] = {step: 1}
            self._entry_step[item] = step
            while len(self._step_counts) > self._capacity:
                self._start_new_step()

    def _start_new_step(self) -> None:
        """Lower the sampling rate and evict items by re-tossing their entry coin.

        An item admitted at rate ``p`` survives a decrease to ``p'`` with
        probability ``p'/p`` (its entry coin still succeeds under the lower
        rate); otherwise it is removed along with all its per-step counts.
        This keeps the retained set distributed as if the lower rate had been
        in force from the start, which is what makes the per-step estimator
        unbiased.  The items re-toss in order, from one ``rng.random(n)`` call.
        """
        old_rate = self.sampling_rate
        new_rate = old_rate * self._rate_decrease
        self._step_rates.append(new_rate)
        coins = self._rng.random(len(self._step_counts)) < new_rate / old_rate
        self._step_counts = dict(compress(self._step_counts.items(), coins.tolist()))
        self._entry_step = {item: self._entry_step[item] for item in self._step_counts}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(self, item: Item) -> float:
        """Estimate of the item's total count (0 when not retained)."""
        per_step = self._step_counts.get(item)
        if per_step is None:
            return 0.0
        # Current survival probability of the entry coin: the entering step's
        # occurrences before entry are missing; correct with the current
        # effective rate for that item, which is the latest step's rate
        # because each decrease re-tosses the entry coin.
        effective_rate = self._step_rates[-1]
        observed = float(sum(per_step.values()))
        correction = (1.0 - effective_rate) / effective_rate
        return observed + correction

    def estimates(self) -> Dict[Item, float]:
        return {item: self.estimate(item) for item in self._step_counts}

    def per_step_counts(self, item: Item) -> Dict[int, int]:
        """The raw per-step counts retained for ``item`` (empty if absent)."""
        return dict(self._step_counts.get(item, {}))

    def storage_cells(self) -> int:
        """Total number of per-step counters held — the cost §5.4 highlights."""
        return sum(len(per_step) for per_step in self._step_counts.values())

    def subset_sum_with_error(self, predicate) -> EstimateWithError:
        """Subset sum with a per-item Geometric variance at the current rate."""
        rate = self._step_rates[-1]
        per_item_variance = (1.0 - rate) / (rate * rate)
        estimate = 0.0
        matched = 0
        for item in self._step_counts:
            if predicate(item):
                estimate += self.estimate(item)
                matched += 1
        return EstimateWithError(estimate=estimate, variance=per_item_variance * matched)
