"""Multi-node cluster serving for the sketch server.

One :class:`~repro.cluster.router.ClusterRouter` fronts N
:class:`~repro.serve.server.SketchServer` members behind the same
JSON-lines protocol a single server speaks, so an unmodified
:class:`~repro.serve.client.TCPServeClient` works against either:

* **Placement** — a consistent-hash ring
  (:class:`~repro.cluster.membership.HashRing`, ~64 virtual nodes per
  member over the package's stable 64-bit label hash) maps each
  ``(tenant, name)`` to a member; membership change moves only
  ``≈ K/N`` of ``K`` keys.
* **Key-sharded sessions** — ``create`` with ``shards: k`` splits one
  logical session's label space across ``k`` members; ingest scatters
  by label hash, and global reads gather with the paper's
  disjoint-union math: subset-sum estimates *and variances* sum across
  shards, frequent-item reads take the union of the shards' bins, and
  totals are preserved exactly (:mod:`repro.cluster.shard_session`).
* **Replica fail-over** — members checkpoint under a shared directory;
  when one dies, the router re-maps its hash range to ring successors
  and rehydrates its sessions there via the wire ``adopt`` op, resuming
  bit-exactly from the last checkpoint
  (:meth:`~repro.cluster.router.ClusterRouter.fail_over`).
* **Elasticity** — the wire ``join`` op adds a member to the running
  ring and streams the ≈ ``K/N`` moved shard slots to it (pause-and-
  drain per slot; ingest to unaffected keys never blocks), and
  ``decommission`` drains a member to its ring successors losslessly
  before removing it.  Ring generations are **epochs**
  (:attr:`~repro.cluster.membership.ClusterMembership.epoch`);
  :func:`~repro.cluster.membership.ring_delta` computes the moved-key
  set between two rings.

See ``docs/cluster.md`` for the topology, variance math and fail-over
lifecycle.
"""

from repro.cluster.client import MemberConnection
from repro.cluster.membership import (
    DEFAULT_REPLICAS,
    ClusterMembership,
    HashRing,
    Member,
    ring_delta,
)
from repro.cluster.router import ClusterRouter
from repro.cluster.shard_session import SessionRoute
from repro.core.base import ranked_pairs
from repro.distributed.partition import scatter_batch
from repro.distributed.sharded import merge_shard_states

__all__ = [
    "DEFAULT_REPLICAS",
    "ClusterMembership",
    "ClusterRouter",
    "HashRing",
    "Member",
    "MemberConnection",
    "SessionRoute",
    "merge_shard_states",
    "ranked_pairs",
    "ring_delta",
    "scatter_batch",
]
