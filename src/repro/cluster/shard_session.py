"""Key-sharded cluster sessions: routing records and scatter/gather math.

A cluster session is either *single* (one ordinary served session on the
ring-chosen member) or *key-sharded*: ``create`` with ``shards: k``
splits the label space across ``k`` internal sessions named
``{name}@shard{i}``, each placed on the ring by its own key — so shards
spread across members, and a member's death moves only its shards.
Labels are partitioned by the same stable hash the sharded executor uses
(:func:`repro.distributed.partition.stable_shard`), making the per-shard
sketches *disjoint*: every label's whole weight lives in exactly one
shard.

Disjointness is what makes the paper's math exact on gather:

* a subset-sum (or total) is the sum of per-shard subset-sums, and —
  the shards being independent sketches — its variance is the **sum of
  the per-shard variances** (the disaggregated-subset-sum error model
  of §4 applied across shards);
* frequent-item reads gather every shard's retained bins and take their
  disjoint union (:func:`~repro.distributed.sharded.merge_shard_states`,
  the same union :class:`~repro.distributed.sharded.ShardedSketch`
  answers from).  That union is what the paper's unbiased merge yields
  at union capacity, where its reduction is the identity, so the read
  path adds no sampling noise;
* totals are preserved exactly: Space Saving never loses mass, and the
  disjoint union sums the per-shard totals.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._typing import Item
from repro.distributed.partition import stable_shard
from repro.errors import InvalidParameterError
from repro.serve.protocol import decode_items

__all__ = ["SessionRoute", "scatter_batch"]

#: At most this many label placements are memoized, over every session.
_PLACEMENT_LIMIT = 2**16
#: The process-wide placement memo behind scatter, point reads and
#: subset-sum grouping: ``(num_shards, seed)`` -> memo key -> shard.
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
    its size grows with neither the sessions nor the labels.
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


@dataclass
class SessionRoute:
    """Where one cluster session's shards live.

    ``shards=None`` marks a single (unsharded) session whose one slot is
    ``members[0]``; otherwise ``members[i]`` hosts wire session
    ``{name}@shard{i}``.  ``seed`` is the label-partitioning hash seed
    (the session's create seed, defaulting to 0), **not** the ring seed —
    scatter must match the shard layout chosen at create time even if the
    ring is configured differently.

    **Rebalance state.**  ``epoch`` records the membership epoch the
    slot assignment was last computed under; the router bumps it whenever
    it flips a slot (fail-over, join, decommission), so a forwarding path
    that cached ``(member, epoch)`` before awaiting can tell a *stale
    route* from a genuinely missing session.  Each slot also carries a
    **migration gate**: ``pause(i)`` closes slot ``i`` while its frame
    streams to a new owner, ``resume(i)`` reopens it, and blocking
    senders ``await wait_ready(i)`` — pause-and-drain scoped to the one
    moving shard, never the whole session.
    """

    tenant: str
    name: str
    members: List[str]
    shards: Optional[int] = None
    seed: int = 0
    #: Extra creation fields replayed on fail-over adoption (ttl, spec...).
    meta: Dict[str, Any] = field(default_factory=dict)
    #: Membership epoch of the current slot assignment.
    epoch: int = 0
    #: Per-slot migration gates (slot index -> cleared Event while moving).
    _gates: Dict[int, asyncio.Event] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        expected = 1 if self.shards is None else self.shards
        if self.shards is not None and self.shards < 1:
            raise InvalidParameterError(f"shards must be >= 1, got {self.shards}")
        if len(self.members) != expected:
            raise InvalidParameterError(
                f"route for {self.tenant!r}/{self.name!r} needs {expected} "
                f"member slot(s), got {len(self.members)}"
            )

    @property
    def sharded(self) -> bool:
        return self.shards is not None

    def wire_name(self, index: int = 0) -> str:
        """The member-side session name of shard ``index``."""
        if not self.sharded:
            return self.name
        return f"{self.name}@shard{index}"

    def ring_key(self, index: int = 0) -> Tuple[str, str]:
        """The consistent-hash routing key of shard ``index``."""
        return (self.tenant, self.wire_name(index))

    def shard_of(self, item: Item) -> int:
        """The shard owning ``item`` (0 for single sessions)."""
        return self.shards_of([item])[0]

    def shards_of(self, items: Sequence[Item]) -> List[int]:
        """The shard owning each of ``items`` (all 0 for single sessions)."""
        if not self.sharded:
            return [0] * len(items)
        return _place(items, self.shards, self.seed)

    def slots(self) -> List[Tuple[int, str, str]]:
        """All ``(shard_index, wire_name, member_id)`` placements."""
        return [
            (index, self.wire_name(index), member_id)
            for index, member_id in enumerate(self.members)
        ]

    # -- migration gates ----------------------------------------------
    def pause(self, index: int) -> None:
        """Close slot ``index``: blocking senders queue on the gate."""
        self._gates.setdefault(index, asyncio.Event()).clear()

    def resume(self, index: int) -> None:
        """Reopen slot ``index``, releasing every waiter."""
        gate = self._gates.pop(index, None)
        if gate is not None:
            gate.set()

    def migrating(self, index: int) -> bool:
        """Whether slot ``index`` is currently paused for migration."""
        gate = self._gates.get(index)
        return gate is not None and not gate.is_set()

    async def wait_ready(self, index: int) -> None:
        """Block until slot ``index`` is open (no-op when not migrating)."""
        gate = self._gates.get(index)
        if gate is not None:
            await gate.wait()

    def describe(self) -> Dict[str, Any]:
        info = dict(self.meta)
        info.update(
            tenant=self.tenant,
            name=self.name,
            shards=self.shards,
            members=list(self.members),
            epoch=self.epoch,
            migrating=[index for index, _, _ in self.slots() if self.migrating(index)],
        )
        return info


def scatter_batch(
    items: Sequence[Any],
    weights: Optional[Sequence[float]],
    timestamps: Optional[Sequence[float]],
    num_shards: int,
    *,
    seed: int = 0,
) -> List[Tuple[Sequence[Any], Optional[Sequence[float]], Optional[Sequence[float]]]]:
    """Partition an aligned batch of wire rows by label hash.

    The timestamped sibling of
    :func:`repro.distributed.partition.hash_partition_batch` (windowed
    sessions need timestamps to travel with their rows): returns one
    ``(items, weights, timestamps)`` triple per shard, preserving the
    within-shard arrival order.  Empty shards come back with empty
    columns so callers can skip the network round trip entirely.

    ``items`` are wire values: a list, where a tuple label arrives as its
    JSON array, or a numeric numpy array from a column frame.  Each row
    is placed by :func:`stable_shard` of its decoded label (an array's
    ``tolist()`` value), looked up in the process-wide placement memo, so
    each label is hashed once per process.  A list batch is split row by
    row with every value forwarded as it is.  A bool/int/uint array batch
    is placed once per distinct label and split with one stable sort; its
    slices are arrays, and list weights or timestamps become float64
    arrays.  Any other array is split as its ``tolist()`` list.
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

    def split(column: Sequence[Any]) -> List[List[Any]]:
        parts: List[List[Any]] = [[] for _ in range(num_shards)]
        for shard, value in zip(row_shards, column):
            parts[shard].append(value)
        return parts

    part_items = split(items)
    part_weights = None if weights is None else split(weights)
    part_ts = None if timestamps is None else split(timestamps)
    return [
        (
            part_items[shard],
            None if part_weights is None else part_weights[shard],
            None if part_ts is None else part_ts[shard],
        )
        for shard in range(num_shards)
    ]


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
