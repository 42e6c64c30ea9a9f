"""One served session: a bounded ingest queue in front of a single writer.

A :class:`ServedSession` wraps a :class:`~repro.api.session.StreamSession`
for concurrent serving.  The concurrency design is deliberately lock-free:

* **Producers** enqueue row batches onto one bounded :class:`asyncio.Queue`
  (``await put_batch(...)`` blocks when the queue is full — natural
  backpressure; ``offer_batch(...)`` is the non-blocking twin and reports
  a full queue instead of waiting).
* **One writer task** per session drains the queue, coalescing up to
  ``coalesce`` waiting batches into a single ``update_batch`` call so the
  sketch's vectorized fast path amortizes queue overhead, then yields the
  event loop before taking the next batch.
* **Readers** call the session's normalized query surface directly.
  Because everything runs on one event loop and ``update_batch`` is
  synchronous, a query can never observe a half-applied batch — reads
  interleave with ingest only at batch boundaries, without blocking the
  queue (producers keep enqueueing while a query runs).

The wrapped session is the single source of truth; the served layer adds
only scheduling, accounting (:class:`ServeStats`) and lifecycle (TTL
bookkeeping for the registry's eviction policy, draining shutdown).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro._typing import Item, ItemPredicate
from repro.api.session import StreamSession
from repro.core.batching import as_sequence
from repro.errors import (
    InvalidParameterError,
    QuotaExceededError,
    ServerClosedError,
)
from repro.serve.protocol import check_finite

__all__ = ["ServedSession", "ServeStats"]

#: Queue sentinel telling the writer task to exit after the batches ahead
#: of it have been applied.
_SHUTDOWN = object()


@dataclass
class ServeStats:
    """Serving-side accounting for one session (ingest path only)."""

    rows_enqueued: int = 0
    rows_applied: int = 0
    batches_enqueued: int = 0
    batches_applied: int = 0
    #: Queue batches merged into the ``update_batch`` call that applied
    #: them beyond the first — 0 when every batch was applied alone.
    batches_coalesced: int = 0
    failed_batches: int = 0
    max_queue_depth: int = 0
    last_error: Optional[str] = field(default=None, repr=False)

    @property
    def rows_pending(self) -> int:
        """Rows enqueued but not yet applied by the writer."""
        return self.rows_enqueued - self.rows_applied

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rows_enqueued": self.rows_enqueued,
            "rows_applied": self.rows_applied,
            "rows_pending": self.rows_pending,
            "batches_enqueued": self.batches_enqueued,
            "batches_applied": self.batches_applied,
            "batches_coalesced": self.batches_coalesced,
            "failed_batches": self.failed_batches,
            "max_queue_depth": self.max_queue_depth,
            "last_error": self.last_error,
        }


class ServedSession:
    """A :class:`StreamSession` behind a bounded queue and one writer task.

    Parameters
    ----------
    session:
        The wrapped stream session (any spec, backend or window).
    tenant, name:
        The registry key this session is served under.
    queue_maxsize:
        Bound of the ingest queue, in *batches*.  Producers awaiting
        ``put_batch`` on a full queue block until the writer frees a slot.
    coalesce:
        Maximum queued batches merged into one ``update_batch`` call.
    ttl:
        Idle seconds after which the registry's sweep may evict this
        session (``None`` disables TTL eviction).
    clock:
        Monotonic time source (injectable for deterministic tests).
    quota:
        Optional :class:`~repro.serve.quota.QuotaManager`; when set, the
        blocking ingest path sleeps off rate overages and the
        non-blocking one raises
        :class:`~repro.errors.QuotaExceededError`.
    metrics:
        Optional :class:`~repro.serve.stats.ServeMetrics` recorder shared
        across the registry; reads report their latency to it.
    """

    def __init__(
        self,
        session: StreamSession,
        *,
        tenant: str = "default",
        name: str = "session",
        queue_maxsize: int = 64,
        coalesce: int = 8,
        ttl: Optional[float] = None,
        clock=time.monotonic,
        quota=None,
        metrics=None,
    ) -> None:
        if queue_maxsize < 1:
            raise InvalidParameterError(
                f"queue_maxsize must be >= 1, got {queue_maxsize}"
            )
        if coalesce < 1:
            raise InvalidParameterError(f"coalesce must be >= 1, got {coalesce}")
        if ttl is not None and ttl <= 0:
            raise InvalidParameterError(f"ttl must be positive or None, got {ttl}")
        self._session = session
        self._tenant = str(tenant)
        self._name = str(name)
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_maxsize)
        self._coalesce = int(coalesce)
        self._ttl = None if ttl is None else float(ttl)
        self._clock = clock
        self._quota = quota
        self._metrics = metrics
        self._writer_task: Optional[asyncio.Task] = None
        self._closed = False
        self._stats = ServeStats()
        self._last_access = clock()
        #: Rows applied at the last checkpoint (maintained by the
        #: checkpoint scheduler; lets it skip clean sessions).
        self.rows_checkpointed = 0
        #: Accuracy tier label: ``"hot"`` for freshly created sessions,
        #: ``"rehydrated"`` after a round trip through the spill tier.
        self.tier = "hot"
        #: Capacity the session was demoted to when it was spilled
        #: (``None`` while it has never been demoted).
        self.demoted_capacity: Optional[int] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def session(self) -> StreamSession:
        """The wrapped stream session (reads are safe at any time)."""
        return self._session

    @property
    def tenant(self) -> str:
        return self._tenant

    @property
    def name(self) -> str:
        return self._name

    @property
    def key(self) -> Tuple[str, str]:
        """The registry key ``(tenant, name)``."""
        return (self._tenant, self._name)

    @property
    def stats(self) -> ServeStats:
        return self._stats

    @property
    def ttl(self) -> Optional[float]:
        return self._ttl

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def queue_depth(self) -> int:
        """Batches currently waiting for the writer."""
        return self._queue.qsize()

    @property
    def queue_maxsize(self) -> int:
        """Bound of the ingest queue, in batches."""
        return self._queue.maxsize

    @property
    def last_access(self) -> float:
        """Clock reading of the most recent ingest or query."""
        return self._last_access

    def touch(self) -> None:
        """Refresh the idle clock (every ingest and query calls this)."""
        self._last_access = self._clock()

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the TTL policy allows evicting this session now."""
        if self._ttl is None:
            return False
        now = self._clock() if now is None else now
        return (now - self._last_access) > self._ttl

    def describe(self) -> Dict[str, Any]:
        """Session metadata plus serving stats (the ``info`` op's payload)."""
        info = self._session.describe()
        info.update(
            tenant=self._tenant,
            name=self._name,
            ttl=self._ttl,
            queue_depth=self.queue_depth,
            queue_maxsize=self._queue.maxsize,
            closed=self._closed,
            tier=self.tier,
            demoted_capacity=self.demoted_capacity,
            serving=self._stats.as_dict(),
        )
        return info

    def __repr__(self) -> str:
        return (
            f"ServedSession({self._tenant!r}/{self._name!r}, "
            f"spec={self._session.spec_name!r}, queue={self.queue_depth}/"
            f"{self._queue.maxsize}, rows_applied={self._stats.rows_applied}, "
            f"closed={self._closed})"
        )

    # ------------------------------------------------------------------
    # Ingest path (producers)
    # ------------------------------------------------------------------
    def _prepare_batch(self, items, weights, timestamps):
        if self._closed:
            raise ServerClosedError(
                f"session {self._tenant!r}/{self._name!r} is closed to new rows"
            )
        items = as_sequence(items)
        rows = len(items)
        # Non-finite reals are refused here, not in the writer, so a bad
        # row never becomes an enqueued batch that fails later.
        if weights is not None:
            weights = as_sequence(weights)
            if len(weights) != rows:
                raise InvalidParameterError(
                    f"weights length {len(weights)} != items length {rows}"
                )
            check_finite("weights", weights)
        if timestamps is not None:
            timestamps = as_sequence(timestamps)
            if len(timestamps) != rows:
                raise InvalidParameterError(
                    f"timestamps length {len(timestamps)} != items length {rows}"
                )
            check_finite("timestamps", timestamps)
        return (items, weights, timestamps, rows)

    def _ensure_writer(self) -> None:
        if self._writer_task is None or self._writer_task.done():
            self._writer_task = asyncio.get_running_loop().create_task(
                self._run_writer(), name=f"serve-writer:{self._tenant}/{self._name}"
            )

    def _account_enqueued(self, rows: int) -> None:
        self._stats.rows_enqueued += rows
        self._stats.batches_enqueued += 1
        depth = self._queue.qsize()
        if depth > self._stats.max_queue_depth:
            self._stats.max_queue_depth = depth
        self._last_access = self._clock()  # touch(), inline on the ingest path

    async def put(
        self, item: Item, weight: float = 1.0, timestamp: Optional[float] = None
    ) -> None:
        """Enqueue one row (a batch of one; prefer :meth:`put_batch`)."""
        timestamps = None if timestamp is None else [timestamp]
        await self.put_batch([item], [float(weight)], timestamps)

    async def put_batch(
        self,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
        timestamps: Optional[Iterable[float]] = None,
    ) -> int:
        """Enqueue a batch, awaiting queue space (backpressure); returns rows.

        Under a tenant rate quota the producer additionally sleeps off any
        token-bucket debt *before* enqueueing — quota overage surfaces as
        the same backpressure shape a full queue does.
        """
        batch = self._prepare_batch(items, weights, timestamps)
        if self._quota is not None:
            delay = self._quota.reserve_rows(self._tenant, batch[3])
            if delay > 0.0:
                await asyncio.sleep(delay)
        self._ensure_writer()
        try:  # a free slot is the common case: skip Queue.put's coroutine
            self._queue.put_nowait(batch)
        except asyncio.QueueFull:
            await self._queue.put(batch)
        self._account_enqueued(batch[3])
        return batch[3]

    def offer_batch(
        self,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
        timestamps: Optional[Iterable[float]] = None,
    ) -> bool:
        """Non-blocking enqueue: ``False`` when the queue is full.

        Callers that would rather fail loudly can raise
        :class:`~repro.errors.BackpressureError` themselves — the TCP
        server's non-blocking ingest op does exactly that.  A tenant over
        its rate quota raises :class:`~repro.errors.QuotaExceededError`
        here (distinct from the retry-soon ``False``: quota rejections
        are a policy decision, not transient queue pressure).
        """
        batch = self._prepare_batch(items, weights, timestamps)
        if self._quota is not None and not self._quota.try_rows(
            self._tenant, batch[3]
        ):
            raise QuotaExceededError(
                f"tenant {self._tenant!r} is over its ingest rate quota "
                f"({batch[3]} rows refused for session {self._name!r}); "
                "slow down, or use the blocking put_batch path"
            )
        self._ensure_writer()
        try:
            self._queue.put_nowait(batch)
        except asyncio.QueueFull:
            return False
        self._account_enqueued(batch[3])
        return True

    # ------------------------------------------------------------------
    # The single-writer ingest loop
    # ------------------------------------------------------------------
    @staticmethod
    def _merge_batches(batches: List[tuple]):
        """Concatenate coalesced batches into one (items, weights, timestamps)."""
        if len(batches) == 1:
            items, weights, timestamps, _ = batches[0]
            return items, weights, timestamps

        def concat(parts: List[Sequence]):
            if all(isinstance(part, np.ndarray) for part in parts):
                return np.concatenate(parts)
            merged: List[Any] = []
            for part in parts:
                merged.extend(part)
            return merged

        items = concat([batch[0] for batch in batches])
        if any(batch[1] is not None for batch in batches):
            # Mixed weighted / unit batches: materialize unit weights so
            # alignment survives concatenation.
            weights = concat(
                [
                    batch[1]
                    if batch[1] is not None
                    else np.ones(batch[3], dtype=np.float64)
                    for batch in batches
                ]
            )
        else:
            weights = None
        if any(batch[2] is not None for batch in batches):
            # update()/update_batch() reject partial timestamps already;
            # a mix here means the caller interleaved timestamped and
            # plain batches, which a windowed session cannot order.
            timestamps = concat([batch[2] for batch in batches])
        else:
            timestamps = None
        return items, weights, timestamps

    def _apply_one(self, items, weights, timestamps) -> None:
        if timestamps is None:
            self._session.update_batch(items, weights)
        else:
            self._session.update_batch(items, weights, timestamps=timestamps)

    def _apply_batches(self, batches: List[tuple]) -> None:
        """Apply a coalesced group, isolating any poison batch in it.

        The merged fast path is tried first; if it raises *without having
        mutated the sketch* (checked via the ``rows_processed`` counter),
        each batch is retried individually so one bad batch
        (unconvertible weights, a capability violation) cannot take its
        coalesced neighbours' rows down with it.  When the merged attempt
        raised mid-way — windowed sessions apply per-pane slices, so a
        later slice can fail after earlier ones ingested — retrying would
        double-apply the prefix; instead the partial ingestion is
        recorded as applied rows and the whole group is marked failed
        (``rows_pending`` exposes the shortfall).
        """
        if len(batches) > 1:
            rows_before = self._session.rows_processed
            try:
                items, weights, timestamps = self._merge_batches(batches)
                self._apply_one(items, weights, timestamps)
            except Exception as exc:
                partially_applied = self._session.rows_processed - rows_before
                if partially_applied > 0:
                    self._stats.rows_applied += partially_applied
                    self._stats.failed_batches += len(batches)
                    self._stats.last_error = (
                        f"{type(exc).__name__}: {exc} (merged group partially "
                        f"ingested {partially_applied} rows; not retried)"
                    )
                    return
                # No mutation: fall through to per-batch isolation.
            else:
                self._stats.rows_applied += sum(batch[3] for batch in batches)
                self._stats.batches_applied += 1
                self._stats.batches_coalesced += len(batches) - 1
                return
        for items, weights, timestamps, rows in batches:
            rows_before = self._session.rows_processed
            try:
                self._apply_one(items, weights, timestamps)
            except Exception as exc:  # keep serving: the poison batch is dropped
                self._stats.rows_applied += max(
                    0, self._session.rows_processed - rows_before
                )
                self._stats.failed_batches += 1
                self._stats.last_error = f"{type(exc).__name__}: {exc}"
            else:
                self._stats.rows_applied += rows
                self._stats.batches_applied += 1

    async def _run_writer(self) -> None:
        carry = None
        while True:
            head = carry if carry is not None else await self._queue.get()
            carry = None
            if head is _SHUTDOWN:
                self._queue.task_done()
                return
            batches = [head]
            head_timestamped = head[2] is not None
            stop = False
            while len(batches) < self._coalesce:
                try:
                    batch = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if batch is _SHUTDOWN:
                    stop = True
                    break
                if (batch[2] is not None) != head_timestamped:
                    # Timestamped and plain batches cannot concatenate
                    # (both are valid on windowed sessions — plain rows
                    # route to the active window); hold this one for the
                    # next apply round instead of merging across the
                    # boundary.
                    carry = batch
                    break
                batches.append(batch)
            try:
                self._apply_batches(batches)
                # Applying rows is activity: a session whose producers are
                # parked on a full queue must not look TTL-idle.
                self.touch()
            finally:
                for _ in batches:
                    self._queue.task_done()
                if stop:
                    self._queue.task_done()
            if stop:
                return
            # Yield so queries and producers interleave between batches.
            await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # Read path (never blocks the queue)
    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Wait until every enqueued batch has been applied."""
        await self._queue.join()

    def _timed(self, op: str, call, *args):
        """Run one read, reporting its latency to the shared recorder."""
        self.touch()
        if self._metrics is None:
            return call(*args)
        started = self._metrics.start()
        result = call(*args)
        self._metrics.observe_since(op, started)
        return result

    def estimate(self, item: Item):
        return self._timed("estimate", self._session.estimate, item)

    def estimates(self) -> Dict[Item, float]:
        return self._timed("estimates", self._session.estimates)

    def subset_sum(self, predicate: ItemPredicate):
        return self._timed("subset_sum", self._session.subset_sum, predicate)

    def total(self):
        return self._timed("total", self._session.total)

    def heavy_hitters(self, phi: float):
        return self._timed("heavy_hitters", self._session.heavy_hitters, phi)

    def top_k(self, k: int):
        return self._timed("top_k", self._session.top_k, k)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def aclose(self) -> None:
        """Clean shutdown: stop accepting rows, drain in-flight batches.

        Idempotent.  Every batch enqueued before the close is applied to
        the sketch before the writer exits (asserted by the shutdown
        tests), so a drained close never loses accepted rows.
        """
        if self._closed:
            await self.drain()
            return
        self._closed = True
        if self._writer_task is not None and not self._writer_task.done():
            await self._queue.put(_SHUTDOWN)
            await self._writer_task
        # A producer that prepared its batch before the close flag flipped
        # may have enqueued it behind the shutdown sentinel; apply those
        # stragglers here so no accepted row is ever dropped.
        leftovers: List[tuple] = []
        while True:
            try:
                batch = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            self._queue.task_done()
            if batch is not _SHUTDOWN:
                leftovers.append(batch)
        if leftovers:
            self._apply_batches(leftovers)

    def _drain_dropped(self) -> None:
        """Discard queued batches, keeping join()/put() bookkeeping sound."""
        while True:
            try:
                batch = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            self._queue.task_done()
            if batch is not _SHUTDOWN:
                self._stats.failed_batches += 1
                self._stats.last_error = "batch dropped: session closed"

    async def _reap_queue(self) -> None:
        """Settle the queue after an immediate close.

        Draining frees slots, which wakes producers suspended in
        ``queue.put`` — their put then completes and is discarded on the
        next pass, so neither blocked producers nor ``drain()`` callers
        (``queue.join()``) hang on a closed session.  Terminates once the
        queue stays empty across a few loop ticks (no waiter left).
        """
        consecutive_empty = 0
        while consecutive_empty < 3:
            self._drain_dropped()
            consecutive_empty = consecutive_empty + 1 if self._queue.empty() else 0
            await asyncio.sleep(0)

    def close_nowait(self) -> None:
        """Immediate teardown (eviction path): cancel the writer, no drain.

        TTL-evicted sessions are normally idle, so there is usually
        nothing in the queue to lose; capacity evictions of busy sessions
        drop whatever was still enqueued (counted in ``stats`` as failed
        batches).  A reaper task settles the queue so producers blocked on
        a full queue and ``drain()`` waiters are released instead of
        hanging forever.
        """
        self._closed = True
        if self._writer_task is not None and not self._writer_task.done():
            self._writer_task.cancel()
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            loop = None
        if loop is not None:
            loop.create_task(
                self._reap_queue(), name=f"serve-reaper:{self._tenant}/{self._name}"
            )
        else:
            self._drain_dropped()  # no loop running: nothing can be blocked
