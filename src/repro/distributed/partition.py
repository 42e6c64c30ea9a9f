"""Stream partitioning strategies for distributed ingestion.

A distributed deployment splits the raw event stream across workers, each of
which builds its own sketch; the partitioning strategy determines what kind
of stream each worker sees.  Hash partitioning by item key gives each worker
an i.i.d.-like stream over a subset of items; round-robin gives each worker
a thinned copy of the global stream; partitioning by a sort key produces the
partially-sorted, pathological-for-Deterministic-Space-Saving streams that
§6.3 warns about (data "partitioned by some key where the partitions are
processed in order").  All three are implemented so the distributed tests
and benchmarks can exercise the friendly and unfriendly cases alike.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._typing import Item
from repro.core.base import ranked_pairs
from repro.core.variance import EstimateWithError
from repro.errors import InvalidParameterError
from repro.serve.protocol import decode_item, decode_items

__all__ = [
    "hash_partition",
    "round_robin_partition",
    "key_range_partition",
    "scatter_batch",
    "stable_shard",
    "stable_hash_64",
    "ShardRead",
    "read_plan",
    "merge_shard_states",
    "sum_estimates",
]


@functools.lru_cache(maxsize=None)
def _keyed_hasher(seed: int):
    """The empty blake2b state keyed by ``seed``, built once per seed.

    Keying costs a compression block, so each label hash copies this
    state instead of re-keying.
    """
    return hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little", signed=False))


def stable_hash_64(item: Item, *, seed: int = 0) -> int:
    """The package's stable 64-bit label hash (keyed blake2b of ``repr``;
    a numpy scalar as the Python scalar a sketch stores, as numpy 2's
    ``repr`` differs).

    This is the hash underneath :func:`stable_shard` and
    :func:`scatter_batch`, exposed directly for consumers that
    need raw ring positions rather than modular shard indices — the
    cluster tier's consistent-hash ring
    (:class:`repro.cluster.membership.HashRing`) places both members and
    keys with it.  Deterministic across processes, machines and Python
    versions (no ``PYTHONHASHSEED`` dependence).
    """
    hasher = _keyed_hasher(seed).copy()
    hasher.update(repr(item.item() if isinstance(item, np.generic) else item).encode("utf-8"))
    return struct.unpack("<Q", hasher.digest())[0]


def hash_partition(
    rows: Iterable[Item], num_partitions: int, *, seed: int = 0
) -> List[List[Item]]:
    """Partition rows by a stable hash of their item key.

    All rows of a given item land in the same partition, which is the usual
    arrangement when the pre-aggregation key is also the shuffle key.
    """
    if num_partitions < 1:
        raise InvalidParameterError("num_partitions must be positive")
    partitions: List[List[Item]] = [[] for _ in range(num_partitions)]
    for row in rows:
        partitions[stable_hash_64(row, seed=seed) % num_partitions].append(row)
    return partitions


def stable_shard(item: Item, num_partitions: int, *, seed: int = 0) -> int:
    """Stable shard index of an item: the routing function of the sharded executor.

    All rows of a given item map to the same shard for any fixed seed, so a
    hash-sharded ensemble of sketches holds disjoint item sets.
    """
    if num_partitions < 1:
        raise InvalidParameterError("num_partitions must be positive")
    return stable_hash_64(item, seed=seed) % num_partitions


#: At most this many label placements are memoized, over every layout.
_PLACEMENT_LIMIT = 2**16
#: The process-wide placement memo behind every scatter and every
#: owning-shard lookup: ``(num_shards, seed)`` -> memo key -> shard.
_placements: Dict[Tuple[int, int], Dict[Any, int]] = {}


def _place(
    labels: Sequence[Any],
    num_shards: int,
    seed: int,
    *,
    keys: Optional[Sequence[Any]] = None,
) -> List[int]:
    """The shard of each decoded label, hashing only the memo's misses.

    The memo keys a label by ``repr(label)``, which fixes the string
    :func:`stable_shard` digests, so labels equal as dict keys but with
    distinct reprs (``1``, ``1.0``, ``True``; ``0.0`` and ``-0.0``) keep
    their distinct placements.  ``keys`` may instead be the labels
    themselves when every one is a plain ``int``, which never equals a
    ``repr`` string.  A miss goes through :func:`stable_shard`; once
    :data:`_PLACEMENT_LIMIT` placements are held the memo starts over, so
    its size grows with neither the layouts nor the labels.
    """
    table = _placements.setdefault((num_shards, seed), {})
    if keys is None:
        keys = list(map(repr, labels))
    shards = list(map(table.get, keys))
    if None in shards:
        held = sum(map(len, _placements.values()))
        for index, shard in enumerate(shards):
            if shard is None:
                key = keys[index]
                shard = table.get(key)  # a repeat within this batch
                if shard is None:
                    if held >= _PLACEMENT_LIMIT:
                        _placements.clear()
                        table = _placements[(num_shards, seed)] = {}
                        held = 0
                    shard = table[key] = stable_shard(
                        labels[index], num_shards, seed=seed
                    )
                    held += 1
                shards[index] = shard
    return shards


def scatter_batch(
    items: Sequence[Any],
    weights: Optional[Sequence[float]],
    timestamps: Optional[Sequence[float]],
    num_shards: int,
    *,
    seed: int = 0,
) -> List[Tuple[Sequence[Any], Optional[Sequence[float]], Optional[Sequence[float]]]]:
    """Partition an aligned batch by label hash: the package's one scatter.

    Returns one ``(items, weights, timestamps)`` triple per shard, in
    arrival order within each; empty shards get empty columns.  The
    sharded executor splits its collapsed batch with it, and the cluster
    router the wire rows of a key-sharded session.

    ``items`` are labels or their wire values: a list, where a tuple
    label may arrive as its JSON array, or a numeric numpy array.  Each
    row is placed by :func:`stable_shard` of its decoded label (an
    array's ``tolist()`` value), looked up in the process-wide placement
    memo, so each label is hashed once per process.  A list batch is
    split row by row with every value forwarded as it is.  A
    bool/int/uint array batch is placed once per distinct label and split
    with one stable sort; its slices are arrays, and list weights or
    timestamps become float64 arrays.  Any other array is split as its
    ``tolist()`` list.
    """
    if num_shards < 1:
        raise InvalidParameterError(f"num_shards must be >= 1, got {num_shards}")
    for label, column in (("weights", weights), ("timestamps", timestamps)):
        if column is not None and len(column) != len(items):
            raise InvalidParameterError(
                f"items and {label} must align: got {len(items)} items "
                f"and {len(column)} {label}"
            )
    if isinstance(items, np.ndarray):
        if items.ndim == 1 and items.dtype.kind in "biu":
            return _scatter_array(items, weights, timestamps, num_shards, seed)
        items = items.tolist()
    row_shards = _place(decode_items(items), num_shards, seed)

    def split(column: Optional[Sequence[Any]]) -> List[Optional[List[Any]]]:
        if column is None:
            return [None] * num_shards
        parts: List[List[Any]] = [[] for _ in range(num_shards)]
        for shard, value in zip(row_shards, column):
            parts[shard].append(value)
        return parts

    return list(zip(split(items), split(weights), split(timestamps)))


def _scatter_array(
    items: np.ndarray,
    weights: Optional[Sequence[float]],
    timestamps: Optional[Sequence[float]],
    num_shards: int,
    seed: int,
) -> List[Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]]:
    """:func:`scatter_batch` of a 1-D bool/int/uint label array."""
    distinct, inverse = np.unique(items, return_inverse=True)
    labels = distinct.tolist()
    placed = _place(
        labels, num_shards, seed, keys=labels if items.dtype.kind in "iu" else None
    )
    # Small unsigned shard ids: the stable sort is then a radix sort.
    placement = np.array(placed, dtype=np.uint16 if num_shards <= 2**16 else np.intp)
    row_shards = placement[inverse.reshape(-1)]
    order = np.argsort(row_shards, kind="stable")
    cuts = np.cumsum(np.bincount(row_shards, minlength=num_shards))[:-1]

    def split(column: Optional[Sequence[float]]) -> List[Optional[np.ndarray]]:
        if column is None:
            return [None] * num_shards
        return np.split(np.asarray(column, dtype=np.float64)[order], cuts)

    return list(
        zip(np.split(items[order], cuts), split(weights), split(timestamps))
    )


def merge_shard_states(
    shard_states: Sequence[Tuple[Mapping[Item, float], float]],
) -> Tuple[Dict[Item, float], float]:
    """The disjoint union of per-shard ``(bins, total_weight)`` states.

    Bins add up label by label and only positive counts are kept, as
    floats; totals add.  Over disjoint shards this is exactly the
    unbiased merge at union capacity, whose reduction is the identity,
    so no sampling noise enters the read path.
    """
    if not shard_states:
        raise InvalidParameterError("merge_shard_states needs at least one shard")
    union: Dict[Item, float] = {}
    total = 0.0
    for bins, shard_total in shard_states:
        for item, count in bins.items():
            if count > 0:
                union[item] = union.get(item, 0.0) + float(count)
        total += float(shard_total)
    return union, total


def sum_estimates(shard_results: Iterable[EstimateWithError]) -> EstimateWithError:
    """The shard-order sum of per-shard subset sums (or totals).

    Over disjoint shards the estimates add, and — the shards being
    independent sketches — so do their Eq. 5 variances.  Plain float
    ``+`` in shard order, so every caller gets the same bits.
    """
    estimate = 0.0
    variance = 0.0
    for result in shard_results:
        estimate += result.estimate
        variance += result.variance
    return EstimateWithError(estimate=estimate, variance=variance)


@dataclass(frozen=True)
class ShardRead:
    """One read over disjoint shards: ask each ``(shard, fields)`` of
    ``asks`` the per-shard ``op``, then :meth:`combine` the answers."""

    op: str
    asks: Tuple[Tuple[int, Dict[str, Any]], ...]
    #: Rank the union's top ``k``, or its bins at ``phi`` of its total.
    k: Optional[int] = None
    phi: Optional[float] = None

    def combine(self, answers: Sequence[Any], *, merge=merge_shard_states, rank=ranked_pairs):
        """The read's answer from the shards' answers in ask order: point
        reads, subset sums and totals (each an :class:`EstimateWithError`
        or an exact float) add up; ``top_k`` pairs (or ``groups``) and
        ``estimates`` ``(bins, total)`` states unite.  An executor may
        pass ``merge`` and ``rank`` by its own names."""
        if self.op in ("estimate", "subset_sum", "total"):
            return sum_estimates(
                answer if isinstance(answer, EstimateWithError) else EstimateWithError(answer, 0.0)
                for answer in answers
            )
        if self.op == "top_k":
            answers = [(dict(getattr(answer, "groups", answer)), 0.0) for answer in answers]
        bins, total = merge(answers)
        if self.k is not None:
            return rank(bins, k=self.k)
        if self.phi is not None:
            return rank(bins, threshold=self.phi * total)
        return bins, total


def read_plan(read: str, num_shards: int, *, seed: int = 0, holds=None, **fields: Any) -> ShardRead:
    """The :class:`ShardRead` of ``read`` over ``num_shards`` disjoint shards.

    A read that names labels asks only the shards that own one, since a
    label's whole weight lives on its shard: ``estimate`` asks the owner
    of ``item``, and ``subset_sum`` the owners of its ``candidates``, each
    with its share of the list (placed by :func:`scatter_batch`, sent as
    given), or of a ``set``'s or ``frozenset``'s ``__contains__``, each
    with the whole predicate.  An empty list asks no shard: 0 ± 0.  Any
    other callable names no labels, so it asks every shard, as ``total``,
    ``estimates``, ``top_k`` (each shard's own top ``k``) and
    ``heavy_hitters`` (each shard's ``estimates``) do.

    Labels equal as keys but placed apart (``1``, ``1.0``, ``True``) can
    hold bins on a shard that owns none of the named labels.  An executor
    that sees its shards passes ``holds(shard, labels)``, true when the
    shard holds a bin equal to one of ``labels``; a point read or a set
    predicate then asks each such shard too.
    """
    candidates = fields.get("candidates")
    if read == "subset_sum" and not callable(candidates):
        slices = scatter_batch(candidates, None, None, num_shards, seed=seed)
        asks = tuple((i, {"candidates": part}) for i, (part, _, _) in enumerate(slices) if len(part))
        return ShardRead(read, asks)
    labels = getattr(candidates, "__self__", None)
    if read == "estimate":
        labels = (decode_item(fields["item"]),)
    elif type(labels) not in (set, frozenset) or candidates.__name__ != "__contains__":
        labels = None
    shards = range(num_shards)
    if labels is not None:
        owners = set(_place(list(labels), num_shards, seed))
        shards = [i for i in shards if i in owners or (holds and holds(i, labels))]
    phi = fields.pop("phi", None)
    asks = tuple((index, fields) for index in shards)
    if phi is not None:
        return ShardRead("estimates", asks, phi=phi)
    return ShardRead(read, asks, k=fields.get("k"))


def round_robin_partition(rows: Iterable[Item], num_partitions: int) -> List[List[Item]]:
    """Deal rows to partitions in round-robin order.

    Every partition sees a thinned version of the global stream, so each
    partition's stream has (approximately) the same item distribution as the
    whole — the friendliest case for per-partition sketching.
    """
    if num_partitions < 1:
        raise InvalidParameterError("num_partitions must be positive")
    partitions: List[List[Item]] = [[] for _ in range(num_partitions)]
    for index, row in enumerate(rows):
        partitions[index % num_partitions].append(row)
    return partitions


def key_range_partition(
    rows: Sequence[Item],
    num_partitions: int,
    *,
    key: Optional[Callable[[Item], object]] = None,
) -> List[List[Item]]:
    """Partition rows into contiguous ranges of a sort key.

    Sorting by item (the default key) and cutting into contiguous blocks
    reproduces the "data partitioned by some key, partitions processed in
    order" pathology of §6.3: when the per-partition sketches are merged (or
    a single sketch consumes the partitions back to back), items seen only in
    early partitions are at risk of being forgotten by biased sketches.
    """
    if num_partitions < 1:
        raise InvalidParameterError("num_partitions must be positive")
    key = key or (lambda row: repr(row))
    ordered = sorted(rows, key=key)
    partitions: List[List[Item]] = [[] for _ in range(num_partitions)]
    block = max(1, (len(ordered) + num_partitions - 1) // num_partitions)
    for index, row in enumerate(ordered):
        partitions[min(index // block, num_partitions - 1)].append(row)
    return partitions
