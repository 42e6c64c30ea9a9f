"""Lossy Counting (Manku & Motwani 2002).

Lossy Counting divides the stream into buckets of width ``w = ceil(1/ε)``.
Each retained entry stores its observed count plus the maximum possible
undercount ``Δ`` (the bucket index when it was inserted); at every bucket
boundary entries whose ``count + Δ`` no longer exceeds the bucket index are
dropped.  Guarantees: every item with true frequency at least ``ε·N`` is
retained, and estimates undercount by at most ``ε·N``.

Unlike Misra-Gries / Space Saving, the number of retained counters is not
hard-bounded by a constant ``m`` — the worst case is ``O((1/ε)·log(εN))`` —
which the paper points out when comparing reduction operations (§5.2).  The
sketch is included as one of the deterministic frequent-item baselines and,
like the others, it is *biased*, making it unsuitable for disaggregated
subset sum estimation.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro._typing import Item
from repro.core.base import FrequentItemSketch
from repro.core.batching import unit_rows
from repro.errors import InvalidParameterError, UnsupportedUpdateError
from repro.io.codec import decode_item, encode_item
from repro.io.serializable import SerializableSketch

__all__ = ["LossyCountingSketch"]


class LossyCountingSketch(FrequentItemSketch, SerializableSketch):
    """Lossy Counting with error parameter ``epsilon``.

    Parameters
    ----------
    epsilon:
        Maximum relative undercount; bucket width is ``ceil(1/epsilon)``.
    capacity:
        Optional *soft* capacity used only to report a comparable "size"
        through the :class:`FrequentItemSketch` interface; by default it is
        ``ceil(1/epsilon)``.  The sketch itself never enforces it — that is
        the structural difference from Space Saving the paper highlights.

    Example
    -------
    >>> sketch = LossyCountingSketch(epsilon=0.25)
    >>> _ = sketch.extend(["a"] * 10 + ["b"] * 2)
    >>> sketch.estimate("a") > 0
    True
    """

    def __init__(
        self,
        epsilon: float,
        *,
        capacity: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        if not 0 < epsilon < 1:
            raise InvalidParameterError("epsilon must lie in (0, 1)")
        bucket_width = int(math.ceil(1.0 / epsilon))
        super().__init__(capacity or bucket_width)
        self._epsilon = epsilon
        self._bucket_width = bucket_width
        self._current_bucket = 1
        # item -> (count, delta)
        self._entries: Dict[Item, Tuple[int, int]] = {}

    @property
    def epsilon(self) -> float:
        """The configured relative error bound."""
        return self._epsilon

    @property
    def bucket_width(self) -> int:
        """Number of rows per bucket, ``ceil(1/epsilon)``."""
        return self._bucket_width

    @property
    def current_bucket(self) -> int:
        """Index of the bucket currently being filled (1-based)."""
        return self._current_bucket

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, item: Item, weight: float = 1.0) -> None:
        """Process one unit row (Lossy Counting is defined for unit updates)."""
        if weight != 1:
            raise UnsupportedUpdateError("Lossy Counting supports unit-weight rows only")
        self._record_update(1.0)
        count, delta = self._entries.get(item, (0, self._current_bucket - 1))
        self._entries[item] = (count + 1, delta)
        if self._rows_processed % self._bucket_width == 0:
            self._prune()
            self._current_bucket += 1

    def update_batch(
        self,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
    ) -> "LossyCountingSketch":
        """Batched unit-row ingestion, segmented at bucket boundaries.

        The generic ``update_batch`` collapses duplicates into weighted
        updates, which Lossy Counting rejects (it is defined for unit rows).
        This override is exactly equivalent to the scalar :meth:`update`
        loop instead: the batch is split at the bucket boundaries the scalar
        loop would have crossed, and within one bucket segment the rows of
        each item are pre-aggregated — valid because an entry's ``Δ`` is
        fixed by the bucket in which it first appears and increments within
        a segment are order-independent.  Pruning happens at the same row
        positions, so the final entry set is identical to row-at-a-time
        ingestion.
        """
        rows = unit_rows(items, weights, sketch_name="Lossy Counting")
        width = self._bucket_width
        position = 0
        total_rows = len(rows)
        while position < total_rows:
            # Re-fetch each segment: _prune() rebinds self._entries.
            entries = self._entries
            room = width - (self._rows_processed % width)
            segment = rows[position : position + room]
            position += len(segment)
            delta = self._current_bucket - 1
            aggregated: Dict[Item, int] = {}
            for item in segment:
                aggregated[item] = aggregated.get(item, 0) + 1
            for item, added in aggregated.items():
                count, entry_delta = entries.get(item, (0, delta))
                entries[item] = (count + added, entry_delta)
            self._rows_processed += len(segment)
            self._total_weight += float(len(segment))
            if self._rows_processed % width == 0:
                self._prune()
                self._current_bucket += 1
        return self

    def _prune(self) -> None:
        """Drop entries whose maximum possible count is at most the bucket index."""
        bucket = self._current_bucket
        self._entries = {
            item: (count, delta)
            for item, (count, delta) in self._entries.items()
            if count + delta > bucket
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(self, item: Item) -> float:
        """Observed (undercounted) frequency of ``item``; 0 when dropped."""
        entry = self._entries.get(item)
        return 0.0 if entry is None else float(entry[0])

    def upper_bound(self, item: Item) -> float:
        """Upper bound ``count + Δ`` on the item's true frequency."""
        entry = self._entries.get(item)
        return 0.0 if entry is None else float(entry[0] + entry[1])

    def estimates(self) -> Dict[Item, float]:
        return {item: float(count) for item, (count, _) in self._entries.items()}

    def error_bound(self) -> float:
        """Maximum undercount of any estimate: ``ε · N``."""
        return self._epsilon * self._rows_processed

    def frequent_items(self, support: float) -> Dict[Item, float]:
        """Items whose true frequency may exceed ``support · N``.

        Returns every retained item with observed count at least
        ``(support − ε) · N`` — the standard Lossy Counting output rule,
        which has no false negatives.
        """
        if not 0 < support <= 1:
            raise InvalidParameterError("support must lie in (0, 1]")
        threshold = (support - self._epsilon) * self._rows_processed
        return {
            item: float(count)
            for item, (count, _) in self._entries.items()
            if count >= threshold
        }

    # ------------------------------------------------------------------
    # Serialization (repro.io contract)
    # ------------------------------------------------------------------
    def _serial_state(self):
        labels = []
        counts = []
        deltas = []
        for item, (count, delta) in self._entries.items():
            labels.append(encode_item(item))
            counts.append(count)
            deltas.append(delta)
        meta = {
            "epsilon": self._epsilon,
            "capacity": self._capacity,
            "current_bucket": self._current_bucket,
            "rows_processed": self._rows_processed,
            "total_weight": self._total_weight,
            "labels": labels,
        }
        arrays = {
            "counts": np.asarray(counts, dtype=np.int64),
            "deltas": np.asarray(deltas, dtype=np.int64),
        }
        return meta, arrays

    @classmethod
    def _from_serial_state(cls, meta, arrays):
        sketch = cls(float(meta["epsilon"]), capacity=int(meta["capacity"]))
        sketch._entries = {
            decode_item(label): (int(count), int(delta))
            for label, count, delta in zip(meta["labels"], arrays["counts"], arrays["deltas"])
        }
        sketch._current_bucket = int(meta["current_bucket"])
        sketch._rows_processed = int(meta["rows_processed"])
        sketch._total_weight = float(meta["total_weight"])
        return sketch
