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
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro._typing import Item
from repro.errors import InvalidParameterError
from repro.serve.protocol import decode_items

__all__ = [
    "hash_partition",
    "round_robin_partition",
    "key_range_partition",
    "scatter_batch",
    "stable_shard",
    "stable_hash_64",
]


@functools.lru_cache(maxsize=None)
def _keyed_hasher(seed: int):
    """The empty blake2b state keyed by ``seed``, built once per seed.

    Keying costs a compression block, so each label hash copies this
    state instead of re-keying.
    """
    return hashlib.blake2b(digest_size=8, key=seed.to_bytes(8, "little", signed=False))


def _stable_hash(item: Item, seed: int) -> int:
    hasher = _keyed_hasher(seed).copy()
    hasher.update(repr(item).encode("utf-8"))
    return struct.unpack("<Q", hasher.digest())[0]


def stable_hash_64(item: Item, *, seed: int = 0) -> int:
    """The package's stable 64-bit label hash (keyed blake2b of ``repr``).

    This is the hash underneath :func:`stable_shard` and
    :func:`scatter_batch`, exposed directly for consumers that
    need raw ring positions rather than modular shard indices — the
    cluster tier's consistent-hash ring
    (:class:`repro.cluster.membership.HashRing`) places both members and
    keys with it.  Deterministic across processes, machines and Python
    versions (no ``PYTHONHASHSEED`` dependence).
    """
    return _stable_hash(item, seed)


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
        partitions[_stable_hash(row, seed) % num_partitions].append(row)
    return partitions


def stable_shard(item: Item, num_partitions: int, *, seed: int = 0) -> int:
    """Stable shard index of an item: the routing function of the sharded executor.

    All rows of a given item map to the same shard for any fixed seed, so a
    hash-sharded ensemble of sketches holds disjoint item sets.
    """
    if num_partitions < 1:
        raise InvalidParameterError("num_partitions must be positive")
    return _stable_hash(item, seed) % num_partitions


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

    The memo keys a label by ``repr(label)`` — the string
    :func:`stable_shard` digests — so labels equal as dict keys but with
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
