"""Multi-producer load generation against a serve client.

The helpers here drive sustained ingest the way the update
micro-benchmarks and the serve example need it: a workload is split into batches
(:func:`repro.streams.generators.chunk_stream`), the batches are dealt
round-robin to ``num_producers`` concurrent producer tasks, and each
producer awaits the session's bounded queue — so the measured rate is
the served ingest path under real backpressure, not a free-running loop.

:func:`measure_query_latency` runs alongside the producers, timing reads
against the same session while ingest is in full flight
(query-under-load latency, as the soak benchmark records it).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "deal_round_robin",
    "run_producers",
    "measure_query_latency",
    "LoadReport",
    "LatencyReport",
]


def deal_round_robin(chunks: Sequence, num_producers: int) -> List[List]:
    """Deal batches to producers round-robin, preserving per-producer order."""
    if num_producers < 1:
        raise ValueError(f"num_producers must be >= 1, got {num_producers}")
    hands: List[List] = [[] for _ in range(num_producers)]
    for index, chunk in enumerate(chunks):
        hands[index % num_producers].append(chunk)
    return [hand for hand in hands if hand]


@dataclass
class LoadReport:
    """Outcome of one multi-producer ingest run."""

    rows: int
    batches: int
    num_producers: int
    seconds: float

    @property
    def rows_per_sec(self) -> float:
        return self.rows / self.seconds if self.seconds > 0 else float("inf")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rows": self.rows,
            "batches": self.batches,
            "num_producers": self.num_producers,
            "seconds": round(self.seconds, 4),
            "rows_per_sec": round(self.rows_per_sec, 1),
        }


@dataclass
class LatencyReport:
    """Query latencies (seconds) observed while ingest was running."""

    samples: List[float]

    @property
    def count(self) -> int:
        return len(self.samples)

    def quantile(self, q: float) -> float:
        if not self.samples:
            return 0.0
        ranked = sorted(self.samples)
        index = min(len(ranked) - 1, max(0, round(q * (len(ranked) - 1))))
        return ranked[index]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "queries": self.count,
            "p50_ms": round(self.quantile(0.5) * 1e3, 3),
            "p95_ms": round(self.quantile(0.95) * 1e3, 3),
            "max_ms": round((max(self.samples) if self.samples else 0.0) * 1e3, 3),
        }


async def _produce(client, name: str, chunks: List, *, tenant: str) -> int:
    rows = 0
    for chunk in chunks:
        if isinstance(chunk, tuple):
            items, weights, timestamps = (list(chunk) + [None, None])[:3]
            rows += await client.update_batch(
                name, items, weights, timestamps, tenant=tenant
            )
        else:
            rows += await client.update_batch(name, chunk, tenant=tenant)
    return rows


async def run_producers(
    client,
    name: str,
    chunks: Sequence,
    *,
    num_producers: int = 4,
    tenant: str = "default",
    flush: bool = True,
) -> LoadReport:
    """Feed ``chunks`` to a served session from concurrent producer tasks.

    Each chunk is either a plain item batch, or a tuple
    ``(items, weights)`` / ``(items, weights, timestamps)``.  With
    ``flush=True`` the clock stops only after the session has *applied*
    every row (queue drained), so the reported rate is end-to-end.
    """
    hands = deal_round_robin(chunks, num_producers)
    start = time.perf_counter()
    totals = await asyncio.gather(
        *(_produce(client, name, hand, tenant=tenant) for hand in hands)
    )
    if flush:
        await client.flush(name, tenant=tenant)
    elapsed = time.perf_counter() - start
    return LoadReport(
        rows=int(sum(totals)),
        batches=len(chunks),
        num_producers=len(hands),
        seconds=elapsed,
    )


async def measure_query_latency(
    client,
    name: str,
    *,
    stop: asyncio.Event,
    tenant: str = "default",
    interval: float = 0.005,
    query: Optional[str] = "total",
    top_k: int = 10,
) -> LatencyReport:
    """Time queries against a session until ``stop`` is set.

    ``query`` selects the read issued each round: ``"total"`` (default)
    or ``"top_k"``.  Runs on the same loop as the producers, so the
    samples include any wait behind in-progress batch applications —
    exactly the latency a dashboard sharing the server would see.
    """
    samples: List[float] = []
    while not stop.is_set():
        begin = time.perf_counter()
        if query == "top_k":
            await client.top_k(name, top_k, tenant=tenant)
        else:
            await client.total(name, tenant=tenant)
        samples.append(time.perf_counter() - begin)
        # A plain sleep wakes in a single loop callback, so the sampler
        # actually gets scheduled at the writer's apply boundaries (a
        # wait_for-on-event needs several iterations to unwind its
        # cancellation, which back-to-back synchronous applies starve).
        await asyncio.sleep(interval)
    return LatencyReport(samples=samples)
