"""Sharded sketch executor: scale-out ingestion via hash partitioning.

The paper's mergeability result (§5.5, Theorem 2) means a fleet of Unbiased
Space Saving sketches can each ingest a disjoint slice of the traffic and
still be combined into a single unbiased sketch.  :class:`ShardedSketch`
turns that result into a usable scale-out API:

* **Ingestion** routes every row (or batch) to one of ``num_shards``
  internal sketches by a stable hash of the item label, so all rows of a
  given item land on the same shard.  Batches are collapsed once globally
  (:func:`repro.core.batching.collapse_batch`), checked whole, and split
  by :func:`repro.distributed.partition.scatter_batch` without a second
  collapse.
* **Reads** run the plans of :func:`repro.distributed.partition.read_plan`
  with direct calls to the shards, as the cluster router runs them over
  the wire.  A point read, or a subset sum under a ``set``'s or
  ``frozenset``'s ``__contains__``, asks only the shards that own its
  labels, and any other shard that holds a bin equal to one of them
  (``1.0`` for ``1``: equal keys placed apart); any other predicate
  cannot be routed, so every shard answers.
* **Merging** down to a single capacity-``m`` sketch goes through the
  existing :mod:`repro.core.merge` machinery
  (:func:`~repro.core.merge.merge_many_unbiased`), preserving unbiasedness.

In-process the shards are plain Python objects; multi-process scale-out
runs the same shape through :mod:`repro.serve` and :mod:`repro.cluster`,
which move only sketch-sized summaries between processes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro._typing import Item, ItemPredicate
from repro.core.base import check_k, check_phi
from repro.core.batching import collapse_batch, iter_weighted_rows, positive_weights
from repro.core.merge import merge_many_unbiased
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.core.variance import EstimateWithError
from repro.distributed.partition import merge_shard_states, read_plan, scatter_batch
from repro.distributed.partition import stable_shard, sum_estimates
from repro.errors import InvalidParameterError
from repro.io.serializable import SerializableSketch

__all__ = ["ShardedSketch", "merge_shard_states", "sum_estimates"]

#: A read plan's per-shard ops as direct calls.
_SHARD_CALLS: Dict[str, Callable[..., Any]] = {
    "estimate": lambda shard, item: shard.estimate(item),
    "subset_sum": lambda shard, candidates: shard.subset_sum_with_error(candidates),
    "total": lambda shard: shard.total_estimate(),
    "top_k": lambda shard, k: shard.top_k(k),
    "estimates": lambda shard: (shard.estimates(), shard.total_estimate()),
}


class ShardedSketch(SerializableSketch):
    """Hash-partitioned ensemble of Unbiased Space Saving shards.

    Parameters
    ----------
    capacity:
        Capacity of each shard's sketch, and the default capacity of the
        merged sketch returned by :meth:`merged`.
    num_shards:
        Number of shards ``N``.  The ensemble retains up to
        ``N * capacity`` bins before merging.
    seed:
        Base seed.  When given, shard ``i`` receives ``seed + i`` (fully
        reproducible) and the routing hash uses ``seed``; when ``None`` the
        shards stay entropy-seeded and routing hashes with seed 0.
    merge_method:
        Reduction used by :meth:`merged`; see
        :func:`repro.core.merge.reduce_bins_unbiased`.

    Example
    -------
    >>> sharded = ShardedSketch(capacity=8, num_shards=4, seed=0)
    >>> _ = sharded.update_batch(["a", "b", "a", "c"] * 25)
    >>> sharded.rows_processed
    100
    >>> sharded.estimate("a")
    50.0
    """

    def __init__(
        self,
        capacity: int,
        num_shards: int,
        *,
        seed: Optional[int] = None,
        merge_method: str = "pps",
    ) -> None:
        if num_shards < 1:
            raise InvalidParameterError("num_shards must be positive")
        self._capacity = int(capacity)
        self._num_shards = int(num_shards)
        self._seed = seed
        self._hash_seed = seed if seed is not None else 0
        self._merge_method = merge_method
        # With no seed the shards stay entropy-seeded (like the scalar
        # sketch); with one, shard i gets seed + i for full reproducibility.
        self._shards: Tuple[UnbiasedSpaceSaving, ...] = tuple(
            UnbiasedSpaceSaving(capacity, seed=None if seed is None else seed + index)
            for index in range(num_shards)
        )
        self._rows_processed = 0
        self._total_weight = 0.0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Per-shard (and default merged) bin capacity."""
        return self._capacity

    @property
    def num_shards(self) -> int:
        """Number of shards in the ensemble."""
        return self._num_shards

    @property
    def shards(self) -> Tuple[UnbiasedSpaceSaving, ...]:
        """The per-shard sketches (do not mutate them directly)."""
        return self._shards

    @property
    def rows_processed(self) -> int:
        """Raw rows ingested across all shards.

        Per-shard ``rows_processed`` counts the collapsed updates each shard
        received; this ensemble-level counter tracks raw rows.
        """
        return self._rows_processed

    @property
    def total_weight(self) -> float:
        """Total ingested weight across all shards."""
        return self._total_weight

    def shard_index(self, item: Item) -> int:
        """The shard an item routes to (stable across processes)."""
        return stable_shard(item, self._num_shards, seed=self._hash_seed)

    def shard_for(self, item: Item) -> UnbiasedSpaceSaving:
        """The shard sketch that owns ``item``."""
        return self._shards[self.shard_index(item)]

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, item: Item, weight: float = 1.0) -> None:
        """Route one raw row to its owning shard."""
        self.shard_for(item).update(item, weight)
        self._rows_processed += 1
        self._total_weight += weight

    def update_batch(
        self,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
    ) -> "ShardedSketch":
        """Collapse a batch once, then scatter it across the shards.

        The batch is pre-aggregated globally so the routing hash runs once
        per *distinct* item; each shard then ingests its already-unique
        slice without collapsing it again.  A batch with a weight the
        shards refuse is refused whole.  Query answers are identical to
        feeding the same collapsed pairs through :meth:`update` row by row.
        """
        unique, collapsed, row_count, total = collapse_batch(items, weights)
        if not unique:
            return self
        positive_weights(collapsed, self._shards[0]._weight_error)
        slices = scatter_batch(
            unique, collapsed, None, self._num_shards, seed=self._hash_seed
        )
        for sketch, (shard_items, shard_weights, _) in zip(self._shards, slices):
            if shard_items:
                sketch._ingest_collapsed(
                    shard_items,
                    shard_weights,
                    len(shard_items),
                    float(sum(shard_weights)),
                )
        self._rows_processed += row_count
        self._total_weight += total
        return self

    def extend(self, rows) -> "ShardedSketch":
        """Consume an iterable of rows (bare items or ``(item, weight)`` pairs)."""
        for item, weight in iter_weighted_rows(rows):
            self.update(item, weight)
        return self

    # ------------------------------------------------------------------
    # Queries over the disjoint union of the shards
    # ------------------------------------------------------------------
    def _read(self, read: str, **fields: Any) -> Any:
        """Run the read's plan with direct calls to the asked shards."""
        shards = self._shards
        holds = lambda index, labels: any(map(shards[index].estimate, labels))  # noqa: E731
        plan = read_plan(read, self._num_shards, seed=self._hash_seed, holds=holds, **fields)
        call = _SHARD_CALLS[plan.op]
        return plan.combine([call(shards[index], **ask) for index, ask in plan.asks])

    def estimate(self, item: Item) -> float:
        """Point estimate from the owning shard, and from any shard holding
        an equal label placed apart (unbiased; 0 when absent)."""
        return self._read("estimate", item=item).estimate

    def estimates(self) -> Dict[Item, float]:
        """All retained items across shards (disjoint union)."""
        return self._read("estimates")[0]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, item: Item) -> bool:
        return self.estimate(item) > 0

    def subset_sum(self, predicate: ItemPredicate) -> float:
        """Unbiased subset sum over the union of the shards' data."""
        return self.subset_sum_with_error(predicate).estimate

    def subset_sum_with_error(self, predicate: ItemPredicate) -> EstimateWithError:
        """Subset sum with variance: shard estimates are independent, so
        their equation-5 variance estimates add over the asked shards."""
        return self._read("subset_sum", candidates=predicate)

    def top_k(self, k: int) -> List[Tuple[Item, float]]:
        """The ``k`` largest estimated counts: the shards are disjoint, so
        the union of each shard's own top ``k`` holds them."""
        return self._read("top_k", k=check_k(k))

    def heavy_hitters(self, phi: float) -> Dict[Item, float]:
        """Items at or above relative frequency ``phi`` of the summed shard
        totals, the *global* weight."""
        return dict(self._read("heavy_hitters", phi=check_phi(phi)))

    def total_estimate(self) -> float:
        """Exact total ingested weight (each shard preserves its total)."""
        return self._read("total").estimate

    def merged(self, capacity=None, *, seed=None) -> UnbiasedSpaceSaving:
        """Merge all shards into one unbiased sketch via ``merge_many_unbiased``.

        Each call runs a fresh merge, so the caller owns the result; pass
        ``seed`` to override the reduction seed.
        """
        return merge_many_unbiased(
            self._shards,
            capacity=self._capacity if capacity is None else capacity,
            method=self._merge_method,
            seed=self._seed if seed is None else seed,
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(capacity={self._capacity}, "
            f"num_shards={self._num_shards}, rows_processed={self._rows_processed}, "
            f"total_weight={self._total_weight:g})"
        )

    # ------------------------------------------------------------------
    # Serialization (repro.io contract)
    # ------------------------------------------------------------------
    def _serial_state(self):
        meta = {
            "capacity": self._capacity,
            "num_shards": self._num_shards,
            "seed": self._seed,
            "hash_seed": self._hash_seed,
            "merge_method": self._merge_method,
            "rows_processed": self._rows_processed,
            "total_weight": self._total_weight,
        }
        # Each shard serializes itself; its frame rides along as raw bytes
        # (a uint8 array), so the ensemble reuses the envelope unchanged.
        arrays = {
            f"shard_{index}": np.frombuffer(shard.to_bytes(), dtype=np.uint8)
            for index, shard in enumerate(self._shards)
        }
        return meta, arrays

    @classmethod
    def _from_serial_state(cls, meta, arrays):
        # Frames of the removed multiprocess executor carry the same state
        # plus two pool settings in ``meta``, which are ignored here.
        sketch = cls.__new__(cls)
        sketch._capacity = int(meta["capacity"])
        sketch._num_shards = int(meta["num_shards"])
        sketch._seed = meta["seed"]
        sketch._hash_seed = int(meta["hash_seed"])
        sketch._merge_method = meta["merge_method"]
        sketch._shards = tuple(
            UnbiasedSpaceSaving.from_bytes(arrays[f"shard_{index}"].tobytes())
            for index in range(sketch._num_shards)
        )
        sketch._rows_processed = int(meta["rows_processed"])
        sketch._total_weight = float(meta["total_weight"])
        return sketch
