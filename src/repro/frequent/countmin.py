"""CountMin sketch (Cormode & Muthukrishnan 2005).

The CountMin sketch is the counting sketch the paper positions for the case
where the filter conditions are *known in advance* (§3): it answers point
frequency queries with additive error ``ε·N`` using ``d`` rows of ``w``
counters and pairwise-independent hash functions.  Because its estimates are
upward biased and it cannot enumerate the items it has seen, it does not
solve the disaggregated subset sum problem with arbitrary filters — the gap
Unbiased Space Saving fills — but it is an important baseline for the
ad-prediction use case (Shrivastava et al. use it for historical counts) and
is exercised by the ad-click example.

A conservative-update variant and heavy-hitter tracking via an auxiliary
heap are included, as both are standard practice in production deployments.
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
from repro.errors import CapabilityError, InvalidParameterError, UnsupportedUpdateError
from repro.io.codec import decode_item, encode_item
from repro.io.serializable import SerializableSketch

__all__ = ["CountMinSketch"]


def _hash64(item: Item, seed: int) -> int:
    """Stable 64-bit hash of an item under a given seed."""
    digest = hashlib.blake2b(
        repr(item).encode("utf-8"),
        digest_size=8,
        key=seed.to_bytes(8, "little", signed=False),
    ).digest()
    return struct.unpack("<Q", digest)[0]


class CountMinSketch(SerializableSketch):
    """CountMin sketch with optional conservative update and heavy-hitter heap.

    Parameters
    ----------
    epsilon:
        Additive error factor: point estimates exceed the truth by at most
        ``ε · total`` with probability ``1 − δ``.  Width is ``ceil(e/ε)``.
    delta:
        Failure probability.  Depth is ``ceil(ln(1/δ))``.
    conservative:
        Use conservative update (only raise the minimum counters), which
        reduces overestimation for skewed streams at the same memory.
    track_heavy_hitters:
        When a positive integer ``k``, maintain a heap of the current top-k
        estimated items so heavy hitters can be reported (CountMin alone
        cannot enumerate items).
    seed:
        Seed for the hash functions.

    Example
    -------
    >>> sketch = CountMinSketch(epsilon=0.01, delta=0.01, seed=1)
    >>> for _ in range(100):
    ...     sketch.update("popular")
    >>> sketch.estimate("popular") >= 100
    True
    """

    def __init__(
        self,
        epsilon: float = 0.001,
        delta: float = 0.01,
        *,
        width: Optional[int] = None,
        depth: Optional[int] = None,
        conservative: bool = False,
        track_heavy_hitters: int = 0,
        seed: Optional[int] = None,
    ) -> None:
        if width is None:
            if not 0 < epsilon < 1:
                raise InvalidParameterError("epsilon must lie in (0, 1)")
            width = int(math.ceil(math.e / epsilon))
        if depth is None:
            if not 0 < delta < 1:
                raise InvalidParameterError("delta must lie in (0, 1)")
            depth = int(math.ceil(math.log(1.0 / delta)))
        if width < 1 or depth < 1:
            raise InvalidParameterError("width and depth must be positive")
        self._width = width
        self._depth = depth
        self._conservative = conservative
        self._seed = seed if seed is not None else 0
        self._table = np.zeros((depth, width), dtype=np.float64)
        self._total_weight = 0.0
        self._rows_processed = 0
        self._heavy_k = int(track_heavy_hitters)
        # Heap of (estimate, item); estimates are refreshed lazily.
        self._heavy_heap: List[Tuple[float, Item]] = []
        self._heavy_members: Dict[Item, float] = {}

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Number of counters per hash row."""
        return self._width

    @property
    def depth(self) -> int:
        """Number of hash rows."""
        return self._depth

    @property
    def total_weight(self) -> float:
        """Total ingested weight."""
        return self._total_weight

    @property
    def rows_processed(self) -> int:
        """Number of update calls."""
        return self._rows_processed

    def _positions(self, item: Item) -> List[int]:
        return [
            _hash64(item, self._seed * 1000003 + row) % self._width
            for row in range(self._depth)
        ]

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, item: Item, weight: float = 1.0) -> None:
        """Add ``weight`` occurrences of ``item``."""
        if weight < 0:
            raise UnsupportedUpdateError(
                "CountMin does not support deletions; use CountSketch instead"
            )
        self._rows_processed += 1
        self._total_weight += weight
        positions = self._positions(item)
        if self._conservative:
            current = min(
                self._table[row, position] for row, position in enumerate(positions)
            )
            target = current + weight
            for row, position in enumerate(positions):
                if self._table[row, position] < target:
                    self._table[row, position] = target
        else:
            for row, position in enumerate(positions):
                self._table[row, position] += weight
        if self._heavy_k:
            self._track(item)

    def update_batch(self, items, weights=None) -> "CountMinSketch":
        """Batched ingestion with a vectorized table update.

        The batch is collapsed to one ``(item, summed weight)`` pair per
        distinct item (hashing cost drops from one blake2b per raw row to one
        per distinct item) and then:

        * plain CountMin applies every collapsed increment in a single
          :func:`numpy.ufunc.at` scatter-add — exactly equivalent to the raw
          row loop because the table update is additive;
        * conservative update and heavy-hitter tracking (both
          order-dependent) apply the collapsed pairs sequentially in
          first-occurrence order, equivalent to a scalar loop over the
          collapsed pairs.

        ``rows_processed`` counts raw rows.
        """
        unique, collapsed, row_count, total = collapse_batch(items, weights)
        if not unique:
            return self
        if min(collapsed) < 0:
            raise UnsupportedUpdateError(
                "CountMin does not support deletions; use CountSketch instead"
            )
        self._rows_processed += row_count
        self._total_weight += total
        depth = self._depth
        if self._conservative or self._heavy_k:
            # Both features are order-dependent (conservative update reads
            # the table it writes; heavy tracking must observe the table as
            # it stood when each item's update landed), so apply the
            # collapsed pairs sequentially to keep the scalar-loop contract.
            for item, weight in zip(unique, collapsed):
                positions = self._positions(item)
                if self._conservative:
                    current = min(
                        self._table[row, position]
                        for row, position in enumerate(positions)
                    )
                    target = current + weight
                    for row, position in enumerate(positions):
                        if self._table[row, position] < target:
                            self._table[row, position] = target
                else:
                    for row, position in enumerate(positions):
                        self._table[row, position] += weight
                if self._heavy_k:
                    self._track(item)
        else:
            columns = np.empty((len(unique), depth), dtype=np.intp)
            for index, item in enumerate(unique):
                columns[index] = self._positions(item)
            row_indices = np.tile(np.arange(depth), len(unique))
            np.add.at(
                self._table,
                (row_indices, columns.ravel()),
                np.repeat(np.asarray(collapsed, dtype=np.float64), depth),
            )
        return self

    def extend(self, rows) -> "CountMinSketch":
        """Consume an iterable of items (or ``(item, weight)`` pairs)."""
        for item, weight in iter_weighted_rows(rows):
            self.update(item, weight)
        return self

    def _track(self, item: Item) -> None:
        """Maintain the top-k heap after an update touching ``item``."""
        estimate = self.estimate(item)
        if item in self._heavy_members:
            self._heavy_members[item] = estimate
            return
        if len(self._heavy_members) < self._heavy_k:
            self._heavy_members[item] = estimate
            heapq.heappush(self._heavy_heap, (estimate, str(item), item))
            return
        # Refresh the root before comparing: its stored estimate may be stale.
        while self._heavy_heap:
            root_estimate, _, root_item = self._heavy_heap[0]
            if root_item not in self._heavy_members:
                heapq.heappop(self._heavy_heap)
                continue
            fresh = self._heavy_members[root_item]
            if fresh > root_estimate:
                heapq.heapreplace(self._heavy_heap, (fresh, str(root_item), root_item))
                continue
            break
        if self._heavy_heap and estimate > self._heavy_heap[0][0]:
            _, __, evicted = heapq.heapreplace(
                self._heavy_heap, (estimate, str(item), item)
            )
            self._heavy_members.pop(evicted, None)
            self._heavy_members[item] = estimate

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(self, item: Item) -> float:
        """Point estimate: the minimum counter over the ``d`` hash rows."""
        positions = self._positions(item)
        return float(
            min(self._table[row, position] for row, position in enumerate(positions))
        )

    def estimates(self, candidates: Optional[Iterable[Item]] = None) -> Dict[Item, float]:
        """Point estimates for the tracked view or an explicit candidate set.

        CountMin cannot enumerate the item universe, so enumeration needs
        either the ``track_heavy_hitters`` top-k view (the default) or an
        explicit ``candidates`` collection.

        Raises
        ------
        CapabilityError
            If ``candidates`` is omitted and tracking is disabled.
        """
        if candidates is not None:
            return {item: self.estimate(item) for item in candidates}
        if not self._heavy_k:
            raise CapabilityError(
                "CountMinSketch cannot enumerate items without tracking; "
                "construct with track_heavy_hitters > 0 or pass candidates=..."
            )
        return {item: self.estimate(item) for item in self._heavy_members}

    def heavy_hitters(self, phi: float) -> Dict[Item, float]:
        """Tracked items whose estimate is at least ``phi · total_weight``.

        Follows the :class:`~repro.core.base.FrequentItemSketch` contract
        (``phi`` in ``(0, 1]``, threshold ``phi * total_weight``, only
        positive estimates reported) over the tracked top-k view.  Requires
        ``track_heavy_hitters`` to have been enabled; CountMin by itself
        cannot enumerate the item universe.
        """
        if not self._heavy_k:
            raise CapabilityError(
                "heavy_hitters requires track_heavy_hitters > 0 at construction"
            )
        return dict(
            ranked_pairs(self.estimates(), threshold=check_phi(phi) * self._total_weight)
        )

    def top_k(self, k: int) -> List[Tuple[Item, float]]:
        """The ``k`` largest estimates in the tracked view."""
        return ranked_pairs(self.estimates(), k=check_k(k))

    def __capabilities__(self) -> set:
        """Withhold enumeration capabilities when tracking is disabled."""
        caps = {"serialize"}
        if self._heavy_k:
            caps |= {"point", "heavy_hitters"}
        return caps

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(width={self._width}, depth={self._depth}, "
            f"conservative={self._conservative}, track_heavy_hitters={self._heavy_k}, "
            f"rows_processed={self._rows_processed}, "
            f"total_weight={self._total_weight:g})"
        )

    def inner_product(self, other: "CountMinSketch") -> float:
        """Upper-bound estimate of the inner product of two frequency vectors.

        Used for join size estimation; both sketches must share geometry and
        seed so that their hash functions align.
        """
        if (
            other.width != self._width
            or other.depth != self._depth
            or other._seed != self._seed
        ):
            raise InvalidParameterError("inner_product requires identically configured sketches")
        products = (self._table * other._table).sum(axis=1)
        return float(products.min())

    def error_bound(self) -> float:
        """Additive overestimation bound ``(e / width) · total_weight``."""
        return math.e / self._width * self._total_weight

    def memory_cells(self) -> int:
        """Number of counters allocated (width × depth)."""
        return self._width * self._depth

    # ------------------------------------------------------------------
    # Serialization (repro.io contract)
    # ------------------------------------------------------------------
    def _serial_state(self):
        meta = {
            "width": self._width,
            "depth": self._depth,
            "conservative": self._conservative,
            "seed": self._seed,
            "track_heavy_hitters": self._heavy_k,
            "rows_processed": self._rows_processed,
            "total_weight": self._total_weight,
            "heavy_labels": [encode_item(item) for item in self._heavy_members],
        }
        arrays = {
            "table": self._table,
            "heavy_estimates": np.asarray(
                list(self._heavy_members.values()), dtype=np.float64
            ),
        }
        return meta, arrays

    @classmethod
    def _from_serial_state(cls, meta, arrays):
        sketch = cls(
            width=int(meta["width"]),
            depth=int(meta["depth"]),
            conservative=bool(meta["conservative"]),
            track_heavy_hitters=int(meta["track_heavy_hitters"]),
            seed=int(meta["seed"]),
        )
        sketch._table = np.asarray(arrays["table"], dtype=np.float64)
        sketch._rows_processed = int(meta["rows_processed"])
        sketch._total_weight = float(meta["total_weight"])
        sketch._heavy_members = {
            decode_item(label): float(estimate)
            for label, estimate in zip(meta["heavy_labels"], arrays["heavy_estimates"])
        }
        # The lazy heap is rebuilt from the members map (the source of
        # truth); stale entries the original carried are irrelevant.
        sketch._heavy_heap = [
            (estimate, str(item), item) for item, estimate in sketch._heavy_members.items()
        ]
        heapq.heapify(sketch._heavy_heap)
        return sketch
