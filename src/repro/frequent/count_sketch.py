"""Count Sketch / AMS-style frequency estimation.

The AMS sketch (Alon, Matias & Szegedy 1999) and its per-item refinement,
the Count Sketch (Charikar, Chen & Farach-Colton), estimate item frequencies
and second moments from random ±1 projections.  The paper cites AMS next to
CountMin as the appropriate tool when the filter conditions are known before
the sketch is built (§3); it is included here both as that baseline and
because its *unbiased* point estimates make an instructive contrast with
CountMin's one-sided error in the test-suite's bias studies.

Supported operations: signed updates (turnstile streams), unbiased point
estimates via the median of row estimates, second-moment (self-join size)
estimation, and inner products between two identically configured sketches.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import struct
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro._typing import Item
from repro.core.base import check_k, check_phi, ranked_pairs
from repro.core.batching import collapse_batch, iter_weighted_rows
from repro.errors import CapabilityError, InvalidParameterError
from repro.io.codec import decode_item, encode_item
from repro.io.serializable import SerializableSketch

__all__ = ["CountSketch"]


def _hash64(item: Item, seed: int) -> int:
    digest = hashlib.blake2b(
        repr(item).encode("utf-8"),
        digest_size=8,
        key=seed.to_bytes(8, "little", signed=False),
    ).digest()
    return struct.unpack("<Q", digest)[0]


class CountSketch(SerializableSketch):
    """Count Sketch with ``depth`` rows of ``width`` signed counters.

    Parameters
    ----------
    width:
        Counters per row; point-estimate standard error is about
        ``sqrt(F2 / width)`` where ``F2`` is the stream's second moment.
    depth:
        Number of independent rows; the median over rows boosts confidence.
    seed:
        Seed for the bucket and sign hash functions.
    track_keys:
        When a positive integer ``k``, maintain the current top-``k``
        estimated items in an auxiliary heap so :meth:`estimates` and
        :meth:`heavy_hitters` can enumerate without an external candidate
        set (Count Sketch alone cannot enumerate the item universe).

    Example
    -------
    >>> sketch = CountSketch(width=64, depth=5, seed=3)
    >>> for _ in range(50):
    ...     sketch.update("hot")
    >>> abs(sketch.estimate("hot") - 50) <= 50
    True
    """

    def __init__(
        self,
        width: int = 256,
        depth: int = 5,
        *,
        seed: Optional[int] = None,
        track_keys: int = 0,
    ) -> None:
        if width < 1 or depth < 1:
            raise InvalidParameterError("width and depth must be positive")
        if track_keys < 0:
            raise InvalidParameterError("track_keys must be non-negative")
        self._width = width
        self._depth = depth
        self._seed = seed if seed is not None else 0
        self._table = np.zeros((depth, width), dtype=np.float64)
        self._total_weight = 0.0
        self._rows_processed = 0
        self._track_k = int(track_keys)
        # Heap of (estimate, tie-break, item); estimates refresh lazily.
        self._tracked_heap: List[Tuple[float, str, Item]] = []
        self._tracked: Dict[Item, float] = {}

    @property
    def width(self) -> int:
        """Counters per row."""
        return self._width

    @property
    def depth(self) -> int:
        """Number of hash rows."""
        return self._depth

    @property
    def rows_processed(self) -> int:
        """Number of update calls."""
        return self._rows_processed

    @property
    def total_weight(self) -> float:
        """Net ingested weight (signed)."""
        return self._total_weight

    @property
    def track_keys(self) -> int:
        """Size of the tracked-key view (0 when tracking is disabled)."""
        return self._track_k

    def _bucket(self, item: Item, row: int) -> int:
        return _hash64(item, self._seed * 2000003 + row) % self._width

    def _sign(self, item: Item, row: int) -> int:
        return 1 if _hash64(item, self._seed * 3000017 + row) & 1 else -1

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, item: Item, weight: float = 1.0) -> None:
        """Add a signed ``weight`` for ``item`` (deletions allowed)."""
        self._rows_processed += 1
        self._total_weight += weight
        if not self._track_k:
            for row in range(self._depth):
                self._table[row, self._bucket(item, row)] += self._sign(item, row) * weight
            return
        self._track(item, self._apply_tracked(item, weight))

    def _apply_tracked(self, item: Item, weight: float) -> float:
        """Write one signed update and return the fresh estimate.

        Reuses the bucket/sign hashes of the write for the read, so
        tracking does not double the per-update hash work.
        """
        row_values = []
        table = self._table
        for row in range(self._depth):
            bucket = self._bucket(item, row)
            sign = self._sign(item, row)
            table[row, bucket] += sign * weight
            row_values.append(sign * table[row, bucket])
        return float(np.median(row_values))

    def update_batch(self, items, weights=None) -> "CountSketch":
        """Batched ingestion: one signed table update per distinct item.

        The signed table update is purely additive, so collapsing the
        batch's duplicate items (summing their signed weights) yields a
        state exactly equal to the raw row loop while hashing each distinct
        item only once.  ``rows_processed`` counts raw rows.
        """
        unique, collapsed, row_count, total = collapse_batch(items, weights)
        self._rows_processed += row_count
        self._total_weight += total
        table = self._table
        if self._track_k:
            for item, weight in zip(unique, collapsed):
                self._track(item, self._apply_tracked(item, weight))
        else:
            for item, weight in zip(unique, collapsed):
                for row in range(self._depth):
                    table[row, self._bucket(item, row)] += self._sign(item, row) * weight
        return self

    def extend(self, rows: Iterable) -> "CountSketch":
        """Consume an iterable of items (or ``(item, weight)`` pairs)."""
        for item, weight in iter_weighted_rows(rows):
            self.update(item, weight)
        return self

    def _track(self, item: Item, estimate: float) -> None:
        """Maintain the tracked top-k heap after an update touching ``item``."""
        if item in self._tracked:
            self._tracked[item] = estimate
            return
        if len(self._tracked) < self._track_k:
            self._tracked[item] = estimate
            heapq.heappush(self._tracked_heap, (estimate, str(item), item))
            return
        # Refresh the root before comparing: its stored estimate may be stale.
        while self._tracked_heap:
            root_estimate, _, root_item = self._tracked_heap[0]
            if root_item not in self._tracked:
                heapq.heappop(self._tracked_heap)
                continue
            fresh = self._tracked[root_item]
            if fresh > root_estimate:
                heapq.heapreplace(self._tracked_heap, (fresh, str(root_item), root_item))
                continue
            break
        if self._tracked_heap and estimate > self._tracked_heap[0][0]:
            _, __, evicted = heapq.heapreplace(
                self._tracked_heap, (estimate, str(item), item)
            )
            self._tracked.pop(evicted, None)
            self._tracked[item] = estimate

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(self, item: Item) -> float:
        """Unbiased point estimate: median over rows of signed bucket values."""
        row_estimates = [
            self._sign(item, row) * self._table[row, self._bucket(item, row)]
            for row in range(self._depth)
        ]
        return float(np.median(row_estimates))

    def row_estimates(self, item: Item) -> List[float]:
        """The per-row estimates whose median forms :meth:`estimate`."""
        return [
            float(self._sign(item, row) * self._table[row, self._bucket(item, row)])
            for row in range(self._depth)
        ]

    def second_moment(self) -> float:
        """AMS estimate of the second frequency moment ``F2 = Σ n_i²``.

        The squared L2 norm of each row is an unbiased estimate of ``F2``;
        the median over rows is reported.
        """
        row_moments = (self._table**2).sum(axis=1)
        return float(np.median(row_moments))

    def inner_product(self, other: "CountSketch") -> float:
        """Estimate of ``Σ_i n_i · m_i`` between two streams (join size)."""
        if (
            other.width != self._width
            or other.depth != self._depth
            or other._seed != self._seed
        ):
            raise InvalidParameterError("inner_product requires identically configured sketches")
        products = (self._table * other._table).sum(axis=1)
        return float(np.median(products))

    def estimate_error_bound(self) -> float:
        """Typical point-estimate standard error ``sqrt(F2 / width)``."""
        return math.sqrt(max(0.0, self.second_moment()) / self._width)

    def estimates(self, candidates: Optional[Iterable[Item]] = None) -> Dict[Item, float]:
        """Point estimates, either for the tracked-key view or for candidates.

        Count Sketch cannot enumerate the item universe, so an
        enumeration-style ``estimates()`` needs one of two sources:

        * an explicit ``candidates`` collection (e.g. the retained set of a
          Space Saving sketch run alongside) — always available;
        * the tracked-key view maintained when the sketch was built with
          ``track_keys > 0`` — the default when ``candidates`` is omitted.

        Raises
        ------
        CapabilityError
            If ``candidates`` is omitted and key tracking is disabled.
        """
        if candidates is not None:
            return {item: self.estimate(item) for item in candidates}
        if not self._track_k:
            raise CapabilityError(
                "CountSketch cannot enumerate items without a tracked-key "
                "view; construct with track_keys > 0 or pass candidates=..."
            )
        return {item: self.estimate(item) for item in self._tracked}

    def heavy_hitters(self, phi: float) -> Dict[Item, float]:
        """Tracked items with estimated relative frequency at least ``phi``.

        Follows the :class:`~repro.core.base.FrequentItemSketch` contract
        (``phi`` in ``(0, 1]``, threshold ``phi * total_weight``, only
        positive estimates reported) over the tracked-key view; requires
        ``track_keys > 0`` at construction.
        """
        if not self._track_k:
            raise CapabilityError(
                "heavy_hitters requires track_keys > 0 at construction"
            )
        return dict(
            ranked_pairs(self.estimates(), threshold=check_phi(phi) * self._total_weight)
        )

    def top_k(self, k: int) -> List[Tuple[Item, float]]:
        """The ``k`` largest estimates in the tracked-key view."""
        return ranked_pairs(self.estimates(), k=check_k(k))

    def __capabilities__(self) -> set:
        """Refine the structural capabilities by configuration.

        Without a tracked-key view the sketch cannot enumerate items, so
        the ``point`` and ``heavy_hitters`` capabilities are withheld even
        though the methods exist (they raise
        :class:`~repro.errors.CapabilityError`).
        """
        caps = {"serialize"}
        if self._track_k:
            caps |= {"point", "heavy_hitters"}
        return caps

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(width={self._width}, depth={self._depth}, "
            f"track_keys={self._track_k}, rows_processed={self._rows_processed}, "
            f"total_weight={self._total_weight:g})"
        )

    # ------------------------------------------------------------------
    # Serialization (repro.io contract)
    # ------------------------------------------------------------------
    def _serial_state(self):
        meta = {
            "width": self._width,
            "depth": self._depth,
            "seed": self._seed,
            "rows_processed": self._rows_processed,
            "total_weight": self._total_weight,
            "track_keys": self._track_k,
            "tracked_labels": [encode_item(item) for item in self._tracked],
        }
        return meta, {"table": self._table}

    @classmethod
    def _from_serial_state(cls, meta, arrays):
        sketch = cls(
            width=int(meta["width"]),
            depth=int(meta["depth"]),
            seed=int(meta["seed"]),
            # Older frames predate the tracked-key view; .get keeps them loadable.
            track_keys=int(meta.get("track_keys", 0)),
        )
        sketch._table = np.asarray(arrays["table"], dtype=np.float64)
        sketch._rows_processed = int(meta["rows_processed"])
        sketch._total_weight = float(meta["total_weight"])
        # Tracked estimates are recomputed from the restored table (the
        # source of truth); the lazy heap is rebuilt from the members map.
        sketch._tracked = {
            decode_item(label): 0.0 for label in meta.get("tracked_labels", [])
        }
        for item in sketch._tracked:
            sketch._tracked[item] = sketch.estimate(item)
        sketch._tracked_heap = [
            (estimate, str(item), item) for item, estimate in sketch._tracked.items()
        ]
        heapq.heapify(sketch._tracked_heap)
        return sketch
