"""Misra-Gries (Frequent) sketch.

The Misra-Gries sketch (Misra & Gries 1982; rediscovered by Demaine et al.
and Karp et al.) keeps at most ``m`` counters.  An arriving item increments
its counter if present, takes a free counter if one exists, and otherwise
*every* counter is decremented by one (the arriving item is discarded).

Section 5.2 of the paper shows the sketch is isomorphic to Deterministic
Space Saving: the number of decrement rounds equals Space Saving's minimum
counter, and

    N̂_i^MG = (N̂_i^SS − N̂_min^SS)_+          (soft thresholding)
    N̂_i^SS = N̂_i^MG + decrements   (for non-zero counters)

Both directions are implemented so the property tests can verify the
isomorphism directly against the optimized Space Saving implementation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro._typing import Item
from repro.core.base import FrequentItemSketch, check_phi
from repro.core.batching import collapse_batch
from repro.errors import InvalidParameterError, UnsupportedUpdateError
from repro.io.codec import decode_item, encode_item
from repro.io.serializable import SerializableSketch

__all__ = ["MisraGriesSketch"]


class MisraGriesSketch(FrequentItemSketch, SerializableSketch):
    """Classic Misra-Gries summary with ``m`` counters.

    Guarantees: for every item, ``true − n_tot/(m+1) ≤ estimate ≤ true``; any
    item with frequency above ``n_tot/(m+1)`` has a non-zero counter.

    The implementation keeps the decrement operation ``O(1)`` amortized by
    tracking a global ``decrement_offset``: counters are stored as offsets
    above the global value, so "decrement everything" is a single addition
    plus lazily discarding counters that reach zero.

    Example
    -------
    >>> sketch = MisraGriesSketch(capacity=2)
    >>> _ = sketch.extend(["a", "b", "a", "c", "a"])
    >>> sketch.estimate("a") >= 1
    True
    """

    def __init__(self, capacity: int, *, seed: Optional[int] = None) -> None:
        super().__init__(capacity)
        self._counters: Dict[Item, int] = {}
        self._decrements = 0

    @property
    def decrements(self) -> int:
        """Total number of decrement rounds applied so far.

        Equal in distribution (and, for the same stream, exactly equal) to
        Deterministic Space Saving's minimum counter — the bridge of the
        §5.2 isomorphism.
        """
        return self._decrements

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, item: Item, weight: float = 1.0) -> None:
        """Process one raw row; only unit (or positive integer) weights are allowed."""
        if weight <= 0 or weight != int(weight):
            raise UnsupportedUpdateError(
                "Misra-Gries processes positive integer weights only"
            )
        remaining = int(weight)
        self._record_update(remaining)
        counters = self._counters
        while remaining > 0:
            if item in counters:
                counters[item] += remaining
                return
            if len(counters) < self._capacity:
                counters[item] = remaining
                return
            # Decrement round: reduce every counter by the smallest counter
            # value or by the remaining new weight, whichever is smaller.
            # This batches what the textbook algorithm does one unit at a time.
            min_count = min(counters.values())
            step = min(min_count, remaining)
            self._decrements += step
            remaining -= step
            for label in list(counters):
                counters[label] -= step
                if counters[label] == 0:
                    del counters[label]

    def update_batch(
        self,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
    ) -> "MisraGriesSketch":
        """Batched ingestion: collapse duplicates, then apply weighted updates.

        Equivalent to a scalar :meth:`update` loop over the batch's collapsed
        ``(item, summed weight)`` pairs in first-occurrence order; the
        integrality requirement applies to the aggregated per-item weights.
        ``rows_processed`` counts raw rows.
        """
        unique, collapsed, row_count, total = collapse_batch(items, weights)
        if not unique:
            return self
        if any(weight <= 0 or weight != int(weight) for weight in collapsed):
            raise UnsupportedUpdateError(
                "Misra-Gries processes positive integer weights only"
            )
        counters = self._counters
        capacity = self._capacity
        for item, weight in zip(unique, collapsed):
            remaining = int(weight)
            while remaining > 0:
                if item in counters:
                    counters[item] += remaining
                    break
                if len(counters) < capacity:
                    counters[item] = remaining
                    break
                min_count = min(counters.values())
                step = min(min_count, remaining)
                self._decrements += step
                remaining -= step
                for label in list(counters):
                    counters[label] -= step
                    if counters[label] == 0:
                        del counters[label]
        self._rows_processed += row_count
        self._total_weight += total
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(self, item: Item) -> float:
        """Lower-bound estimate of the item's count (0 when not retained)."""
        return float(self._counters.get(item, 0))

    def estimates(self) -> Dict[Item, float]:
        return {item: float(count) for item, count in self._counters.items() if count > 0}

    def error_bound(self) -> float:
        """Every estimate undercounts by at most this many occurrences."""
        return float(self._decrements)

    def guaranteed_heavy_hitters(self, phi: float) -> Dict[Item, float]:
        """Items that are provably above relative frequency ``phi``."""
        threshold = check_phi(phi) * self._total_weight
        return {
            item: count for item, count in self.estimates().items() if count >= threshold
        }

    # ------------------------------------------------------------------
    # Isomorphism with Deterministic Space Saving (§5.2)
    # ------------------------------------------------------------------
    def to_space_saving_estimates(self) -> Dict[Item, float]:
        """Recover the Deterministic Space Saving estimates for retained items.

        Adds the total number of decrements back onto every non-zero
        counter, inverting the soft-thresholding relationship.
        """
        return {
            item: float(count + self._decrements)
            for item, count in self._counters.items()
            if count > 0
        }

    def merge(self, other: "MisraGriesSketch") -> "MisraGriesSketch":
        """Mergeable-summaries merge (Agarwal et al. 2013).

        Counters are summed and the result is soft-thresholded by its
        ``(m+1)``-th largest counter so at most ``m`` non-zero counters
        remain.  The merged sketch preserves the deterministic error
        guarantee of the inputs combined.
        """
        if other.capacity != self.capacity:
            raise InvalidParameterError("merged sketches must share a capacity")
        combined: Dict[Item, int] = dict(self._counters)
        for item, count in other._counters.items():
            combined[item] = combined.get(item, 0) + count
        merged = MisraGriesSketch(self._capacity)
        merged._rows_processed = self._rows_processed + other._rows_processed
        merged._total_weight = self._total_weight + other._total_weight
        merged._decrements = self._decrements + other._decrements
        if len(combined) > self._capacity:
            threshold = sorted(combined.values(), reverse=True)[self._capacity]
            merged._decrements += threshold
            combined = {
                item: count - threshold
                for item, count in combined.items()
                if count - threshold > 0
            }
        merged._counters = combined
        return merged

    # ------------------------------------------------------------------
    # Serialization (repro.io contract)
    # ------------------------------------------------------------------
    def _serial_state(self):
        labels = [encode_item(label) for label in self._counters]
        meta = {
            "capacity": self._capacity,
            "rows_processed": self._rows_processed,
            "total_weight": self._total_weight,
            "decrements": self._decrements,
            "labels": labels,
        }
        counts = np.asarray(list(self._counters.values()), dtype=np.int64)
        return meta, {"counts": counts}

    @classmethod
    def _from_serial_state(cls, meta, arrays):
        sketch = cls(int(meta["capacity"]))
        sketch._counters = {
            decode_item(label): int(count)
            for label, count in zip(meta["labels"], arrays["counts"])
        }
        sketch._rows_processed = int(meta["rows_processed"])
        sketch._total_weight = float(meta["total_weight"])
        sketch._decrements = int(meta["decrements"])
        return sketch
