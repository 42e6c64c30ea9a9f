"""Adaptive-size Unbiased Space Saving (§5.3 extension).

The paper notes that replacing the pairwise reduction with a multi-bin PPS
reduction lets the sketch change its size on the fly: grow when memory is
available or error targets are missed, and shrink by removing only bins with
small estimated frequency — unbiasedly, so subset sums remain valid across
resizes.  This module implements that extension on top of the
:class:`~repro.core.reduction.GeneralizedSpaceSaving` machinery.
"""

from __future__ import annotations

from typing import Optional

from repro._typing import Item
from repro.core.reduction import GeneralizedSpaceSaving
from repro.errors import InvalidParameterError
from repro.sampling.varopt import varopt_reduce

__all__ = ["AdaptiveUnbiasedSpaceSaving"]


class AdaptiveUnbiasedSpaceSaving(GeneralizedSpaceSaving):
    """Unbiased Space Saving with a dynamically adjustable bin budget.

    A :class:`~repro.core.reduction.GeneralizedSpaceSaving` under the
    pairwise unbiased reduction (applied in place), whose budget can grow
    and shrink.

    Parameters
    ----------
    capacity:
        Initial bin budget.
    max_capacity:
        Optional hard ceiling used by the automatic growth policy.
    growth_trigger:
        When set to a value ``f`` in ``(0, 1)``, the sketch grows (doubling,
        up to ``max_capacity``) whenever the minimum bin count exceeds
        ``f × total_weight`` — i.e. whenever the resolution of the tail has
        degraded past the requested fraction of the stream.
    seed:
        Seed for all randomness (label replacement and reductions).

    Notes
    -----
    Shrinking uses a fixed-size PPS (VarOpt) reduction whose adjusted counts
    preserve all expectations, so estimates remain unbiased across any
    sequence of grows and shrinks (Theorem 2).
    """

    def __init__(
        self,
        capacity: int,
        *,
        max_capacity: Optional[int] = None,
        growth_trigger: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(capacity, seed=seed)
        if max_capacity is not None and max_capacity < capacity:
            raise InvalidParameterError("max_capacity must be >= capacity")
        if growth_trigger is not None and not 0 < growth_trigger < 1:
            raise InvalidParameterError("growth_trigger must lie in (0, 1)")
        self._max_capacity = max_capacity
        self._growth_trigger = growth_trigger
        self._resize_events = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, item: Item, weight: float = 1.0) -> None:
        """Process one raw row, applying the pairwise unbiased reduction."""
        if weight <= 0:
            raise InvalidParameterError("weights must be positive")
        self._record_update(weight)
        bins = self._bins
        if item in bins:
            bins[item] += weight
            return
        if len(bins) < self._capacity:
            bins[item] = weight
            self._maybe_grow()
            return
        # Pairwise unbiased reduction, identical to UnbiasedSpaceSaving.
        min_label = min(bins, key=bins.get)
        combined = bins[min_label] + weight
        if self._rng.random() * combined < weight:
            del bins[min_label]
            bins[item] = combined
        else:
            bins[min_label] = combined
        self._maybe_grow()

    def _maybe_grow(self) -> None:
        """Apply the automatic growth policy after an update."""
        if self._growth_trigger is None or not self._bins:
            return
        if len(self._bins) < self._capacity:
            return
        min_count = min(self._bins.values())
        if min_count > self._growth_trigger * self._total_weight:
            target = self._capacity * 2
            if self._max_capacity is not None:
                target = min(target, self._max_capacity)
            if target > self._capacity:
                self.resize(target)

    # ------------------------------------------------------------------
    # Resizing
    # ------------------------------------------------------------------
    def resize(self, new_capacity: int) -> None:
        """Change the bin budget, shrinking unbiasedly when necessary."""
        if new_capacity < 1:
            raise InvalidParameterError("capacity must be a positive integer")
        if new_capacity < len(self._bins):
            self._bins = dict(varopt_reduce(self._bins, new_capacity, rng=self._rng))
        self._capacity = new_capacity
        self._resize_events += 1

    @property
    def resize_events(self) -> int:
        """Number of times the sketch has been resized (manually or automatically)."""
        return self._resize_events
