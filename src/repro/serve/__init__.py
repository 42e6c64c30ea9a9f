"""Concurrent multi-tenant sketch serving (:mod:`repro.serve`).

The serving layer turns the single-caller :func:`repro.build` session
into a shared service: one asyncio process hosts many named sessions —
any spec × backend × window the facade can build — each fed through a
bounded queue by a lock-free single-writer ingest loop, queried without
blocking ingest, evicted by TTL/LRU policy, and checkpointed in the
background through :mod:`repro.io` so a restarted server resumes every
session exactly.

Pieces (importable individually):

* :class:`SketchServer` — the process-level host: registry + background
  checkpointing + optional JSON-lines TCP endpoint.
* :class:`SketchRegistry` — per-tenant named sessions with TTL and
  LRU-capacity eviction.
* :class:`ServedSession` — one session behind its bounded ingest queue
  and writer task.
* :class:`ServeClient` / :class:`TCPServeClient` — one client method
  surface over two transports: in process (Python values, callable
  predicates allowed) and JSON lines over TCP (candidate lists only).
  Both run the same server ops and return the package's normalized
  result types.
* :class:`CheckpointScheduler`, :func:`restore_registry` — periodic
  persistence and exact restart.
* :class:`QuotaManager` / :class:`TenantQuota` — per-tenant session,
  rate and memory limits enforced through the backpressure path.
* :class:`AccuracyTiering` / :class:`ErrorBudget` — eviction as §5.5
  demotion: idle sessions shrink to an error-budgeted capacity, spill
  to disk and rehydrate transparently on next access.
* :class:`ServeMetrics` / :class:`LatencyHistogram` — the observability
  layer behind ``SketchServer.metrics()`` and the ``metrics`` wire op.
* :mod:`repro.serve.load` — multi-producer load generators used by the
  ``serve`` benchmark mode.

Quickstart (in-process)::

    import asyncio, repro

    async def main():
        async with repro.SketchServer() as server:
            client = server.client
            await client.create("clicks", "unbiased_space_saving",
                                size=256, seed=42)
            await client.update_batch("clicks", ["ad1", "ad2", "ad1"])
            await client.flush("clicks")
            print((await client.total("clicks")).estimate)  # 3.0

    asyncio.run(main())
"""

from repro.serve.checkpoint import (
    CheckpointScheduler,
    checkpoint_registry,
    restore_registry,
)
from repro.serve.client import RemoteServeError, ServeClient, TCPServeClient
from repro.serve.quota import QuotaManager, TenantQuota, TokenBucket
from repro.serve.registry import DEFAULT_TENANT, SketchRegistry
from repro.serve.server import SketchServer
from repro.serve.session import ServedSession, ServeStats
from repro.serve.stats import LatencyHistogram, ServeMetrics
from repro.serve.tiering import (
    AccuracyTiering,
    ErrorBudget,
    capacity_for_rrmse,
)

__all__ = [
    "SketchServer",
    "SketchRegistry",
    "ServedSession",
    "ServeStats",
    "ServeClient",
    "TCPServeClient",
    "RemoteServeError",
    "CheckpointScheduler",
    "checkpoint_registry",
    "restore_registry",
    "DEFAULT_TENANT",
    "QuotaManager",
    "TenantQuota",
    "TokenBucket",
    "AccuracyTiering",
    "ErrorBudget",
    "capacity_for_rrmse",
    "LatencyHistogram",
    "ServeMetrics",
]
