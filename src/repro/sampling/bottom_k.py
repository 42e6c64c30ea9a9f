"""Bottom-k sketch: uniform sampling of items from a disaggregated stream.

The bottom-k sketch (Cohen & Kaplan 2007) assigns every distinct item a
stable pseudo-random rank in ``(0, 1)`` and keeps the ``k`` items with the
smallest ranks.  Because the rank depends only on the item, an item that
belongs to the final sample is in the sketch from its first occurrence
onwards, so the sketch can maintain its *exact* aggregate count even though
the stream is disaggregated.

Subset sums are estimated with the standard conditioning trick: conditional
on the ``(k+1)``-th smallest rank ``r``, each retained item was included
independently with probability ``r``, so the Horvitz-Thompson adjusted count
is ``count / r``.  Uniform item sampling ignores item sizes entirely, which
is why the paper (figure 4) shows it performing orders of magnitude worse
than Unbiased Space Saving on skewed data — it is reproduced here as that
baseline.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, Optional, Tuple

import numpy as np

from repro._typing import Item, ItemPredicate
from repro.core.base import check_k, check_phi, ranked_pairs
from repro.core.batching import collapse_batch, iter_weighted_rows
from repro.core.variance import EstimateWithError
from repro.errors import InvalidParameterError
from repro.io.codec import decode_item, encode_item
from repro.io.serializable import SerializableSketch
from repro.sampling.horvitz_thompson import SampledItem, WeightedSample

__all__ = ["BottomKSketch", "stable_rank"]

_TWO_64 = float(2**64)


def stable_rank(item: Item, seed: int) -> float:
    """Deterministic pseudo-random rank in ``(0, 1)`` for an item.

    The rank is derived from a salted BLAKE2b hash of the item's ``repr`` so
    that it is stable across processes and independent of Python's randomized
    ``hash()``.  Distinct seeds give independent rank assignments, which the
    evaluation harness uses to draw replicate samples.
    """
    digest = hashlib.blake2b(
        repr(item).encode("utf-8"), digest_size=8, key=seed.to_bytes(8, "little", signed=False)
    ).digest()
    value = struct.unpack("<Q", digest)[0]
    # Map to (0, 1): never exactly 0 so the rank can be used as a divisor.
    return (value + 1) / (_TWO_64 + 2)


class BottomKSketch(SerializableSketch):
    """Uniform item sample with exact per-item counts.

    Parameters
    ----------
    capacity:
        The sample size ``k``.
    seed:
        Seed for the stable rank function (and nothing else — the sketch is
        otherwise deterministic given the stream).

    Example
    -------
    >>> sketch = BottomKSketch(capacity=2, seed=1)
    >>> for row in ["a", "b", "a", "c", "a"]:
    ...     sketch.update(row)
    >>> sketch.rows_processed
    5
    """

    def __init__(self, capacity: int, *, seed: Optional[int] = None) -> None:
        if capacity < 1:
            raise InvalidParameterError("capacity must be a positive integer")
        self._capacity = capacity
        self._seed = seed if seed is not None else int(np.random.default_rng().integers(2**32))
        # item -> (rank, accumulated weight)
        self._bins: Dict[Item, Tuple[float, float]] = {}
        # Smallest rank ever evicted; the conditioning threshold r.
        self._threshold_rank = float("inf")
        self._rows_processed = 0
        self._total_weight = 0.0
        self._distinct_seen = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum number of retained items ``k``."""
        return self._capacity

    @property
    def rows_processed(self) -> int:
        """Number of raw rows consumed."""
        return self._rows_processed

    @property
    def total_weight(self) -> float:
        """Total ingested weight."""
        return self._total_weight

    @property
    def distinct_items_seen(self) -> int:
        """Number of distinct items encountered so far (exactly tracked)."""
        return self._distinct_seen

    def update(self, item: Item, weight: float = 1.0) -> None:
        """Process one raw row."""
        if weight < 0:
            raise InvalidParameterError("weights must be non-negative")
        self._rows_processed += 1
        self._total_weight += weight
        existing = self._bins.get(item)
        if existing is not None:
            rank, count = existing
            self._bins[item] = (rank, count + weight)
            return
        rank = stable_rank(item, self._seed)
        if rank >= self._threshold_rank:
            # Item was previously evicted (or would be); its rows are lost,
            # exactly as in the real sketch.  It still counts as seen for the
            # distinct-item diagnostic the first time only if it was never
            # retained, which we cannot distinguish cheaply, so the counter
            # tracks "distinct items that were ever retained or offered while
            # below the threshold" — sufficient for its diagnostic purpose.
            return
        self._distinct_seen += 1
        if len(self._bins) < self._capacity:
            self._bins[item] = (rank, weight)
            return
        # Evict the largest-ranked retained item if the newcomer ranks lower.
        worst_item = max(self._bins, key=lambda key: self._bins[key][0])
        worst_rank = self._bins[worst_item][0]
        if rank < worst_rank:
            del self._bins[worst_item]
            self._bins[item] = (rank, weight)
            self._threshold_rank = min(self._threshold_rank, worst_rank)
        else:
            self._threshold_rank = min(self._threshold_rank, rank)

    def update_batch(self, items, weights=None) -> "BottomKSketch":
        """Batched ingestion: one rank computation per distinct item.

        Because an item's rank depends only on its label, the retained set is
        always the ``k`` smallest-ranked distinct items regardless of arrival
        order, and retained items accumulate their full weight either way —
        so collapsing the batch gives estimates exactly equal to the raw row
        loop while hashing each distinct item once.  ``rows_processed``
        counts raw rows.
        """
        unique, collapsed, row_count, total = collapse_batch(items, weights)
        if not unique:
            return self
        if min(collapsed) < 0:
            raise InvalidParameterError("weights must be non-negative")
        self._rows_processed += row_count
        self._total_weight += total
        bins = self._bins
        for item, weight in zip(unique, collapsed):
            existing = bins.get(item)
            if existing is not None:
                rank, count = existing
                bins[item] = (rank, count + weight)
                continue
            rank = stable_rank(item, self._seed)
            if rank >= self._threshold_rank:
                continue
            self._distinct_seen += 1
            if len(bins) < self._capacity:
                bins[item] = (rank, weight)
                continue
            worst_item = max(bins, key=lambda key: bins[key][0])
            worst_rank = bins[worst_item][0]
            if rank < worst_rank:
                del bins[worst_item]
                bins[item] = (rank, weight)
                self._threshold_rank = min(self._threshold_rank, worst_rank)
            else:
                self._threshold_rank = min(self._threshold_rank, rank)
        return self

    def extend(self, rows) -> "BottomKSketch":
        """Consume an iterable of items (or ``(item, weight)`` pairs)."""
        for item, weight in iter_weighted_rows(rows):
            self.update(item, weight)
        return self

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    @property
    def inclusion_probability(self) -> float:
        """The conditional per-item inclusion probability ``r``.

        Equal to the smallest rank ever rejected; 1.0 while no item has been
        rejected (every distinct item is still retained).
        """
        if self._threshold_rank == float("inf"):
            return 1.0
        return self._threshold_rank

    def estimate(self, item: Item) -> float:
        """Horvitz-Thompson estimate of the item's total weight (0 if absent)."""
        entry = self._bins.get(item)
        if entry is None:
            return 0.0
        _, count = entry
        return count / self.inclusion_probability

    def estimates(self) -> Dict[Item, float]:
        """Adjusted counts for every retained item."""
        probability = self.inclusion_probability
        return {item: count / probability for item, (_, count) in self._bins.items()}

    def subset_sum(self, predicate: ItemPredicate) -> float:
        """Unbiased subset sum estimate over retained items matching ``predicate``."""
        return float(
            sum(value for item, value in self.estimates().items() if predicate(item))
        )

    def subset_sum_with_error(self, predicate: ItemPredicate) -> EstimateWithError:
        """Subset sum with the Bernoulli-sampling variance estimate."""
        return self.as_weighted_sample().subset_sum_with_error(predicate)

    def heavy_hitters(self, phi: float) -> Dict[Item, float]:
        """Retained items with estimated relative frequency at least ``phi``.

        Same contract as :meth:`repro.core.base.FrequentItemSketch.heavy_hitters`
        evaluated over the Horvitz-Thompson adjusted estimates; on skewed
        data a uniform item sample misses heavy items far more often than
        the Space Saving family (the paper's figure-4 point).
        """
        return dict(
            ranked_pairs(self.estimates(), threshold=check_phi(phi) * self._total_weight)
        )

    def top_k(self, k: int) -> "list[Tuple[Item, float]]":
        """The ``k`` retained items with the largest adjusted estimates."""
        return ranked_pairs(self.estimates(), k=check_k(k))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(capacity={self._capacity}, "
            f"retained={len(self._bins)}, rows_processed={self._rows_processed}, "
            f"total_weight={self._total_weight:g})"
        )

    def estimated_distinct_items(self) -> float:
        """KMV-style estimate of the number of distinct items in the stream."""
        if self._threshold_rank == float("inf"):
            return float(len(self._bins))
        return (self._capacity) / self._threshold_rank

    def as_weighted_sample(self) -> WeightedSample:
        """Expose the sketch as a generic Horvitz-Thompson sample."""
        probability = self.inclusion_probability
        sample = WeightedSample()
        for item, (_, count) in self._bins.items():
            if count > 0:
                sample.add(SampledItem(item, count, probability))
        return sample

    def __len__(self) -> int:
        return len(self._bins)

    def __contains__(self, item: Item) -> bool:
        return item in self._bins

    # ------------------------------------------------------------------
    # Serialization (repro.io contract)
    # ------------------------------------------------------------------
    def _serial_state(self):
        labels = []
        ranks = []
        counts = []
        for item, (rank, count) in self._bins.items():
            labels.append(encode_item(item))
            ranks.append(rank)
            counts.append(count)
        meta = {
            "capacity": self._capacity,
            "seed": self._seed,
            # inf (nothing evicted yet) is not JSON-safe; None marks it.
            "threshold_rank": (
                None if self._threshold_rank == float("inf") else self._threshold_rank
            ),
            "rows_processed": self._rows_processed,
            "total_weight": self._total_weight,
            "distinct_seen": self._distinct_seen,
            "labels": labels,
        }
        arrays = {
            "ranks": np.asarray(ranks, dtype=np.float64),
            "counts": np.asarray(counts, dtype=np.float64),
        }
        return meta, arrays

    @classmethod
    def _from_serial_state(cls, meta, arrays):
        sketch = cls(int(meta["capacity"]), seed=int(meta["seed"]))
        sketch._bins = {
            decode_item(label): (float(rank), float(count))
            for label, rank, count in zip(meta["labels"], arrays["ranks"], arrays["counts"])
        }
        threshold = meta["threshold_rank"]
        sketch._threshold_rank = float("inf") if threshold is None else float(threshold)
        sketch._rows_processed = int(meta["rows_processed"])
        sketch._total_weight = float(meta["total_weight"])
        sketch._distinct_seen = int(meta["distinct_seen"])
        return sketch
