"""Key-sharded cluster sessions: the routing record of each session.

A cluster session is either *single* (one ordinary served session on the
ring-chosen member) or *key-sharded*: ``create`` with ``shards: k``
splits the label space across ``k`` internal sessions named
``{name}@shard{i}``, each placed on the ring by its own key — so shards
spread across members, and a member's death moves only its shards.
Labels are split by :func:`repro.distributed.partition.scatter_batch`,
the scatter the sharded executor uses, making the per-shard sketches
*disjoint*: every label's whole weight lives in exactly one shard.

Disjointness makes the paper's math exact on gather (§4, §5.5).  The
router runs each read from the plan
:func:`repro.distributed.partition.read_plan` makes, the plan
:class:`~repro.distributed.sharded.ShardedSketch` runs in process: a
read that names labels asks only the shards that own them (in process,
also a shard holding an equal label placed apart), every other read
asks every shard, and subset sums with their variances add while
frequent-item reads rank the union of the shards' bins.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro._typing import Item
# ``stable_shard`` stays importable here, where perfbench/spans.py wraps
# it; placements go through ``_place``, whose memo misses hash in
# repro.distributed.partition.
from repro.distributed.partition import _place, stable_shard  # noqa: F401
from repro.errors import InvalidParameterError

__all__ = ["SessionRoute"]


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
        """The shard owning decoded label ``item`` (0 for single sessions)."""
        if not self.sharded:
            return 0
        return _place([item], self.shards, self.seed)[0]

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
