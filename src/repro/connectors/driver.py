"""The mini-batch pipeline driver: source → served session, exactly once.

:class:`PipelineDriver` is the Spark-DStream-shaped piece that turns a
passive :class:`~repro.connectors.base.SourceProtocol` into a live
pipeline.  Each **tick** polls every partition once (up to
``batch_rows`` rows each), pushes the batches into a served session
through either transport of the one client surface
(:class:`~repro.serve.client.ServeClient` in process,
:class:`~repro.serve.client.TCPServeClient` over a socket), and —
critically — commits
a partition's offset only *after* its rows have been flushed through the
session's single-writer queue.  At every point the driver can observe,
its offset table therefore describes exactly the rows the sketch has
absorbed.

**The exactly-once contract.**  :meth:`PipelineDriver.checkpoint` writes
one :mod:`repro.io` envelope (a :class:`DriverCheckpoint`) holding the
per-partition offset table *next to* the session's serialized sketch
frame — which itself carries the sketch's RNG state.  Because offsets
and sketch state travel in the same atomically-replaced frame, a crash
can never separate them: :meth:`PipelineDriver.restore` re-adopts the
sketch frame into a (fresh or surviving) server and resumes polling from
the recorded offsets, so every row between the checkpoint and the crash
is replayed exactly once and the resumed run is **bit-identical** to an
uninterrupted one — the same guarantee the mid-stream restore tests pin
for bare sketches, extended to the whole pipeline.

A source whose partition rewound underneath its recorded offset (log
truncation, file rotation) fails the first resumed poll with
:class:`~repro.errors.StaleOffsetError` rather than replaying from a
position that no longer means anything.
"""

from __future__ import annotations

from typing import Any, Awaitable, Callable, Dict, Optional

import numpy as np

from repro.errors import ConnectorError, InvalidParameterError, SerializationError
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.io.serializable import SerializableSketch
from repro.connectors.base import SourceProtocol

__all__ = ["DriverCheckpoint", "PipelineDriver"]

#: Default tenant name; kept literal so :mod:`repro.connectors` imports
#: without dragging in the serving layer (it matches
#: :data:`repro.serve.registry.DEFAULT_TENANT`).
_DEFAULT_TENANT = "default"


class DriverCheckpoint(SerializableSketch):
    """One pipeline checkpoint: per-partition offsets + the sketch frame.

    Serialized through the standard :mod:`repro.io` envelope (and
    registered with the type registry, so ``repro.io.load_bytes`` /
    :func:`repro.io.load_checkpoint` dispatch it like any sketch
    payload): the offset manifest, tick/row counters and session
    identity ride in the envelope's ``meta`` header, while the session's
    own serialized frame — a complete nested envelope, RNG state
    included — rides as the ``frame`` byte array next to it.
    """

    def __init__(
        self,
        *,
        offsets: Dict[str, int],
        frame: bytes,
        session: str,
        tenant: str = _DEFAULT_TENANT,
        spec: Optional[str] = None,
        backend: Optional[str] = None,
        rows_applied: int = 0,
        ticks: int = 0,
        rows_ingested: int = 0,
        tick_cursor: Optional[str] = None,
    ) -> None:
        self.offsets = {str(key): int(value) for key, value in offsets.items()}
        for partition, offset in self.offsets.items():
            if offset < 0:
                raise InvalidParameterError(
                    f"offset for partition {partition!r} must be >= 0, "
                    f"got {offset}"
                )
        self.frame = bytes(frame)
        self.session = str(session)
        self.tenant = str(tenant)
        self.spec = spec
        self.backend = backend
        self.rows_applied = int(rows_applied)
        self.ticks = int(ticks)
        self.rows_ingested = int(rows_ingested)
        #: Last partition committed in the in-progress tick (``None`` at a
        #: tick boundary).  A restore resumes the interrupted tick *after*
        #: this partition, so the resumed run's partition interleave — and
        #: therefore the sketch's row order and RNG draws — is identical
        #: to an uninterrupted run's.
        self.tick_cursor = None if tick_cursor is None else str(tick_cursor)

    # -- repro.io serialization hooks ----------------------------------
    def _serial_state(self):
        meta = {
            "offsets": self.offsets,
            "session": self.session,
            "tenant": self.tenant,
            "spec": self.spec,
            "backend": self.backend,
            "rows_applied": self.rows_applied,
            "ticks": self.ticks,
            "rows_ingested": self.rows_ingested,
            "tick_cursor": self.tick_cursor,
        }
        arrays = {"frame": np.frombuffer(self.frame, dtype=np.uint8)}
        return meta, arrays

    @classmethod
    def _from_serial_state(cls, meta, arrays):
        frame = arrays.get("frame")
        if frame is None:
            raise SerializationError(
                "driver checkpoint payload is missing its sketch frame"
            )
        return cls(
            offsets=dict(meta.get("offsets", {})),
            frame=np.asarray(frame, dtype=np.uint8).tobytes(),
            session=meta.get("session", "pipeline"),
            tenant=meta.get("tenant", _DEFAULT_TENANT),
            spec=meta.get("spec"),
            backend=meta.get("backend"),
            rows_applied=meta.get("rows_applied", 0),
            ticks=meta.get("ticks", 0),
            rows_ingested=meta.get("rows_ingested", 0),
            tick_cursor=meta.get("tick_cursor"),
        )

    def __repr__(self) -> str:
        return (
            f"DriverCheckpoint(session={self.tenant!r}/{self.session!r}, "
            f"ticks={self.ticks}, rows={self.rows_ingested}, "
            f"offsets={self.offsets})"
        )


class PipelineDriver:
    """Pull batches from a source into a served session, tick by tick.

    Parameters
    ----------
    source:
        Any :class:`~repro.connectors.base.SourceProtocol`.
    client:
        A :class:`~repro.serve.client.ServeClient` or
        :class:`~repro.serve.client.TCPServeClient`.  Both inherit one
        method surface (:class:`~repro.serve.client.BaseServeClient`)
        and run the same server ops; the driver uses ``update_batch`` /
        ``flush`` / ``info`` / ``export`` / ``adopt``, so it cannot tell
        whether the session lives in process or across a socket.
    session, tenant:
        The served session the pipeline feeds.  It must already exist
        (create it through the client, or arrive via :meth:`restore`).
    batch_rows:
        Maximum rows polled from each partition per tick.
    checkpoint_path:
        Where :meth:`checkpoint` writes the offset+frame envelope
        (``None`` disables checkpointing; :meth:`run` then never
        checkpoints).
    checkpoint_every:
        Ticks between automatic checkpoints during :meth:`run`.
    on_partition_applied:
        Optional async hook ``(partition, rows)`` awaited after a
        partition's batch has been applied **and its offset committed**
        — the safe points where a mid-tick checkpoint observes a
        consistent (sketch, offsets) pair.  Tests use it to kill or
        checkpoint the driver mid-tick.
    with_timestamps:
        Whether batches carry their timestamps into ``update_batch``.
        The default (``None``) asks the served session: windowed
        sessions get timestamped rows, plain ones get (item, weight)
        pairs — a plain session *rejects* timestamped batches, and the
        serving layer's poison-batch isolation would swallow them.

    The driver assumes it is the session's only writer: after every
    flush it checks the server's applied-row counter advanced by
    exactly the batch it sent, and raises
    :class:`~repro.errors.ConnectorError` on any shortfall (a poison
    batch the serving layer dropped, or a concurrent writer) instead of
    committing an offset the sketch never absorbed.
    """

    def __init__(
        self,
        source: SourceProtocol,
        client,
        *,
        session: str,
        tenant: str = _DEFAULT_TENANT,
        batch_rows: int = 1_000,
        checkpoint_path=None,
        checkpoint_every: int = 1,
        on_partition_applied: Optional[
            Callable[[str, int], Awaitable[None]]
        ] = None,
        with_timestamps: Optional[bool] = None,
    ) -> None:
        if batch_rows < 1:
            raise InvalidParameterError(
                f"batch_rows must be >= 1, got {batch_rows}"
            )
        if checkpoint_every < 1:
            raise InvalidParameterError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self._source = source
        self._client = client
        self._session = str(session)
        self._tenant = str(tenant)
        self._batch_rows = int(batch_rows)
        self._checkpoint_path = checkpoint_path
        self._checkpoint_every = int(checkpoint_every)
        self._on_partition_applied = on_partition_applied
        self._with_timestamps = with_timestamps
        #: Server-side applied-row counter after the last verified flush;
        #: resolved from ``info()`` on the first tick.
        self._applied_rows: Optional[int] = None
        #: Last partition committed in the current tick (``None`` between
        #: ticks).  Checkpointed, so a restore finishes the interrupted
        #: tick from the next partition instead of starting the sweep
        #: over — which would reorder rows relative to an uninterrupted
        #: run and break bit-identical resume.
        self._tick_cursor: Optional[str] = None
        #: Committed per-partition offsets: rows at positions below the
        #: offset have been applied (and flushed) to the session.
        self.offsets: Dict[str, int] = {
            partition: 0 for partition in source.partitions()
        }
        self.ticks = 0
        self.rows_ingested = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def session(self) -> str:
        return self._session

    @property
    def tenant(self) -> str:
        return self._tenant

    @property
    def checkpoint_path(self):
        return self._checkpoint_path

    def describe(self) -> Dict[str, Any]:
        """The driver's progress snapshot (JSON-safe)."""
        return {
            "session": self._session,
            "tenant": self._tenant,
            "ticks": self.ticks,
            "rows_ingested": self.rows_ingested,
            "offsets": dict(self.offsets),
            "batch_rows": self._batch_rows,
        }

    def __repr__(self) -> str:
        return (
            f"PipelineDriver(session={self._tenant!r}/{self._session!r}, "
            f"ticks={self.ticks}, rows={self.rows_ingested})"
        )

    # ------------------------------------------------------------------
    # The mini-batch loop
    # ------------------------------------------------------------------
    async def _resolve_session_profile(self) -> None:
        """First-contact handshake: window mode + applied-row baseline.

        One ``info()`` round trip answers both lazily-resolved facts:
        whether the session is windowed (and therefore wants timestamped
        batches), and how many rows the server has already applied — the
        baseline the per-flush integrity check advances from.
        """
        if self._with_timestamps is not None and self._applied_rows is not None:
            return
        info = await self._client.info(self._session, tenant=self._tenant)
        if self._with_timestamps is None:
            self._with_timestamps = info.get("window") is not None
        if self._applied_rows is None:
            serving = info.get("serving") or {}
            self._applied_rows = int(serving.get("rows_applied", 0))

    async def tick(self) -> int:
        """Poll every partition once and apply what arrived; returns rows.

        Partitions are visited in sorted order (determinism: a resumed
        run interleaves partitions exactly as the original did).  For
        each partition the sequence is poll → ``update_batch`` →
        ``flush`` → commit offset, with no suspension point between the
        flush completing and the commit — so whenever control is yielded
        (including to the ``on_partition_applied`` hook), ``offsets``
        exactly matches the session's applied rows.
        """
        await self._resolve_session_profile()
        rows_this_tick = 0
        resume_after = self._tick_cursor
        for partition in sorted(self._source.partitions()):
            if resume_after is not None and partition <= resume_after:
                continue  # already committed by the interrupted tick
            offset = self.offsets.get(partition, 0)
            batch = self._source.poll(partition, offset, self._batch_rows)
            if batch:
                await self._client.update_batch(
                    self._session,
                    batch.items,
                    batch.weights,
                    batch.timestamps if self._with_timestamps else None,
                    tenant=self._tenant,
                )
                applied = await self._client.flush(
                    self._session, tenant=self._tenant
                )
                expected = self._applied_rows + len(batch)
                if int(applied) != expected:
                    raise ConnectorError(
                        f"exactly-once violated on partition {partition!r}: "
                        f"expected {expected} applied rows after the flush, "
                        f"server reports {applied} — a batch was dropped "
                        "server-side or another writer shares this session; "
                        "the offset was NOT committed"
                    )
                self._applied_rows = expected
                self.offsets[partition] = batch.next_offset
                self.rows_ingested += len(batch)
                rows_this_tick += len(batch)
            else:
                self.offsets[partition] = batch.next_offset
            self._tick_cursor = partition
            if self._on_partition_applied is not None:
                await self._on_partition_applied(partition, len(batch))
        self._tick_cursor = None
        self.ticks += 1
        return rows_this_tick

    async def run(
        self, *, max_ticks: Optional[int] = None, final_checkpoint: bool = True
    ) -> Dict[str, Any]:
        """Tick until the source is drained (or ``max_ticks`` elapsed).

        A tick in which *every* partition returns an empty batch means
        the pipeline has caught up with the source; the loop then stops.
        With a ``checkpoint_path`` configured, a checkpoint is written
        every ``checkpoint_every`` ticks and (with ``final_checkpoint``)
        once more after the last tick, so a subsequent :meth:`restore`
        resumes at the drained frontier.  Returns :meth:`describe`.
        """
        ran = 0
        while max_ticks is None or ran < max_ticks:
            # A tick resumed mid-sweep only covers the partitions after
            # the cursor; its row count says nothing about the ones the
            # interrupted tick already handled, so it cannot end the run.
            partial = self._tick_cursor is not None
            rows = await self.tick()
            ran += 1
            if self._checkpoint_path is not None and (
                self.ticks % self._checkpoint_every == 0
            ):
                await self.checkpoint()
            if rows == 0 and not partial:
                break
        if final_checkpoint and self._checkpoint_path is not None:
            await self.checkpoint()
        return self.describe()

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    async def checkpoint(self, path=None) -> DriverCheckpoint:
        """Write the (offsets, sketch frame) envelope atomically.

        The session is flushed first, so the exported frame covers every
        committed row; the offset table snapshot and the frame therefore
        describe the same stream position.  Returns the checkpoint
        object written (``path`` defaults to the configured
        ``checkpoint_path``).
        """
        target = path if path is not None else self._checkpoint_path
        if target is None:
            raise InvalidParameterError(
                "no checkpoint path: pass one here or configure "
                "checkpoint_path on the driver"
            )
        await self._client.flush(self._session, tenant=self._tenant)
        export = await self._client.export(self._session, tenant=self._tenant)
        checkpoint = DriverCheckpoint(
            offsets=dict(self.offsets),
            frame=export["frame"],
            session=self._session,
            tenant=self._tenant,
            spec=export.get("spec"),
            backend=export.get("backend"),
            rows_applied=export.get("rows_applied", 0),
            ticks=self.ticks,
            rows_ingested=self.rows_ingested,
            tick_cursor=self._tick_cursor,
        )
        save_checkpoint(checkpoint, target)
        return checkpoint

    @classmethod
    async def restore(
        cls,
        path,
        source: SourceProtocol,
        client,
        *,
        batch_rows: int = 1_000,
        checkpoint_path=None,
        checkpoint_every: int = 1,
        on_partition_applied: Optional[
            Callable[[str, int], Awaitable[None]]
        ] = None,
    ) -> "PipelineDriver":
        """Rebuild a driver (and its served session) from a checkpoint.

        The sketch frame is re-adopted into the server behind ``client``
        under its original ``(tenant, session)`` key — RNG state and all
        — and the driver resumes from the recorded per-partition
        offsets.  Feeding the restored pipeline the remainder of the
        source produces answers bit-identical to a run that never
        crashed.  ``checkpoint_path`` defaults to ``path`` so the
        resumed driver keeps checkpointing where the original did.
        """
        checkpoint = load_checkpoint(path, expected_type=DriverCheckpoint)
        await client.adopt(
            checkpoint.session,
            checkpoint.frame,
            tenant=checkpoint.tenant,
            spec=checkpoint.spec,
            backend=checkpoint.backend,
            rows_applied=checkpoint.rows_applied,
        )
        driver = cls(
            source,
            client,
            session=checkpoint.session,
            tenant=checkpoint.tenant,
            batch_rows=batch_rows,
            checkpoint_path=checkpoint_path if checkpoint_path is not None else path,
            checkpoint_every=checkpoint_every,
            on_partition_applied=on_partition_applied,
        )
        # Recorded offsets win; partitions the source grew since the
        # checkpoint start at 0 (the dict comprehension in __init__
        # already seeded them).
        driver.offsets.update(checkpoint.offsets)
        driver.ticks = checkpoint.ticks
        driver.rows_ingested = checkpoint.rows_ingested
        driver._tick_cursor = checkpoint.tick_cursor
        return driver
