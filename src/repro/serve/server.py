"""The sketch server: one process hosting many served sessions.

A :class:`SketchServer` composes the three serving pieces — a
:class:`~repro.serve.registry.SketchRegistry` of per-tenant sessions, an
optional :class:`~repro.serve.checkpoint.CheckpointScheduler`, and an
optional TCP endpoint speaking the JSON-lines protocol of
:mod:`repro.serve.protocol` over ``asyncio.start_server`` — behind one
lifecycle::

    async with SketchServer(checkpoint_dir="ckpt") as server:
        client = server.client                      # in-process async client
        await server.start_tcp("127.0.0.1", 0)      # optional network endpoint
        ...
    # __aexit__ drains every queue, then writes a final checkpoint

``SketchServer.restore(directory)`` rebuilds the registry from the last
completed checkpoint, so a restarted process resumes every session
exactly where the checkpoint left it.

Every protocol op is written once, as an ``_op_*`` coroutine from Python
values to the normalized result a client returns.  The in-process client
reaches it through :meth:`SketchServer.call`; the TCP endpoint decodes a
request into the same fields and encodes the result as a payload.  Both
clients therefore return the same normalized results, and remote errors
re-raise as the same :mod:`repro.errors` classes.
"""

from __future__ import annotations

import time
from typing import Any, Awaitable, Dict, List, Optional, Tuple

from repro.core.variance import EstimateWithError
from repro.errors import (
    BackpressureError,
    InvalidParameterError,
    SerializationError,
    ServeError,
)
from repro.api.session import StreamSession
from repro.io import load_bytes
from repro.query.engine import QueryResult
from repro.serve import protocol
from repro.serve.checkpoint import CheckpointScheduler, restore_registry
from repro.serve.endpoint import JsonLinesEndpoint
from repro.serve.registry import DEFAULT_TENANT, SketchRegistry
from repro.serve.stats import RateTracker

__all__ = ["SketchServer"]

_NO_SESSION = "requests addressing a session need a non-empty 'session' field"


class SketchServer(JsonLinesEndpoint):
    """Host many named sketch sessions behind one asyncio process.

    Parameters
    ----------
    registry:
        A pre-built registry (e.g. from :meth:`restore`); by default a
        fresh one is created from the ``max_sessions`` / ``default_ttl`` /
        ``queue_maxsize`` knobs below.
    checkpoint_dir:
        Directory for periodic background checkpoints (``None`` disables
        persistence).
    checkpoint_interval:
        Seconds between background checkpoint passes.
    quota:
        Optional :class:`~repro.serve.quota.QuotaManager` with the
        per-tenant limits this server enforces.
    tiering:
        Optional :class:`~repro.serve.tiering.AccuracyTiering`; evictions
        then demote + spill instead of discarding (see
        ``docs/operations.md``).

    ``quota`` / ``tiering`` configure the registry this constructor
    builds; pass a pre-wired registry instead when supplying your own.
    """

    def __init__(
        self,
        *,
        registry: Optional[SketchRegistry] = None,
        checkpoint_dir=None,
        checkpoint_interval: float = 30.0,
        max_sessions: Optional[int] = None,
        default_ttl: Optional[float] = None,
        queue_maxsize: int = 64,
        coalesce: int = 8,
        quota=None,
        tiering=None,
    ) -> None:
        if registry is not None and (quota is not None or tiering is not None):
            raise InvalidParameterError(
                "pass quota/tiering either to the registry or to the server, "
                "not both — a pre-built registry keeps its own wiring"
            )
        self._registry = registry or SketchRegistry(
            max_sessions=max_sessions,
            default_ttl=default_ttl,
            queue_maxsize=queue_maxsize,
            coalesce=coalesce,
            quota=quota,
            tiering=tiering,
        )
        self._checkpointer = (
            CheckpointScheduler(
                self._registry, checkpoint_dir, interval=checkpoint_interval
            )
            if checkpoint_dir is not None
            else None
        )
        self._init_endpoint()
        self._started_at = time.perf_counter()
        self._ingest_rate = RateTracker()

    # ------------------------------------------------------------------
    # Construction / introspection
    # ------------------------------------------------------------------
    @classmethod
    def restore(cls, checkpoint_dir, **kwargs) -> "SketchServer":
        """Rebuild a server from ``checkpoint_dir``'s last completed checkpoint.

        Registry shape knobs (``max_sessions`` etc.) pass through to the
        restored registry; the directory keeps serving as the checkpoint
        target.
        """
        registry_kwargs = {
            key: kwargs.pop(key)
            for key in (
                "max_sessions",
                "default_ttl",
                "queue_maxsize",
                "coalesce",
                "quota",
                "tiering",
            )
            if key in kwargs
        }
        registry = restore_registry(checkpoint_dir, **registry_kwargs)
        return cls(registry=registry, checkpoint_dir=checkpoint_dir, **kwargs)

    @property
    def registry(self) -> SketchRegistry:
        return self._registry

    @property
    def checkpointer(self) -> Optional[CheckpointScheduler]:
        return self._checkpointer

    @property
    def client(self):
        """An in-process async client bound to this server's registry."""
        from repro.serve.client import ServeClient

        return ServeClient(self)

    def metrics(self, *, detail: bool = False) -> Dict[str, Any]:
        """One JSON-safe operational snapshot (the ``metrics`` op's payload).

        Aggregates the per-session :class:`~repro.serve.session.ServeStats`
        counters, the registry's eviction/tiering/quota state and the
        shared query-latency histograms.  ``ingest.rows_per_sec`` is
        measured between consecutive ``metrics()`` calls (``None`` on the
        first); every hot-path contribution to this snapshot is a plain
        counter increment, so calling it is cheap even at 100k+ sessions
        (one O(sessions) scan per call, no per-row work).

        With ``detail=True`` the queue section additionally lists the ten
        deepest per-session queues as ``[tenant, name, depth]`` rows.
        """
        registry = self._registry
        rows_applied = rows_enqueued = failed_batches = 0
        batches_enqueued = batches_applied = batches_coalesced = 0
        depth_total = depth_max = live = 0
        deepest: List[Tuple[int, str, str]] = []
        for served in registry:
            live += 1
            stats = served.stats
            rows_applied += stats.rows_applied
            rows_enqueued += stats.rows_enqueued
            failed_batches += stats.failed_batches
            batches_enqueued += stats.batches_enqueued
            batches_applied += stats.batches_applied
            batches_coalesced += stats.batches_coalesced
            depth = served.queue_depth
            depth_total += depth
            if depth > depth_max:
                depth_max = depth
            if detail and depth > 0:
                deepest.append((depth, served.tenant, served.name))
        applies = batches_applied if batches_applied else None
        snapshot: Dict[str, Any] = {
            "uptime_sec": time.perf_counter() - self._started_at,
            "connections_served": self._connections,
            "sessions": {
                "live": live,
                "max_sessions": registry.max_sessions,
                "evicted_total": registry.evicted_total,
                # NOTE: AccuracyTiering is sized (its spill index), so an
                # emptied tier is falsy — test identity, not truth.
                "spilled": (
                    len(registry.tiering) if registry.tiering is not None else 0
                ),
            },
            "ingest": {
                "rows_applied": rows_applied,
                "rows_enqueued": rows_enqueued,
                "rows_pending": rows_enqueued - rows_applied,
                "rows_per_sec": self._ingest_rate.sample(rows_applied),
                "batches_enqueued": batches_enqueued,
                "batches_applied": batches_applied,
                "batches_coalesced": batches_coalesced,
                "coalesce_ratio": (
                    None
                    if applies is None
                    else (batches_applied + batches_coalesced) / applies
                ),
                "failed_batches": failed_batches,
            },
            "queues": {
                "depth_total": depth_total,
                "depth_max": depth_max,
            },
            "queries": registry.metrics.as_dict(),
            "quota": (
                registry.quota.as_dict() if registry.quota is not None else None
            ),
            "tiering": (
                registry.tiering.stats() if registry.tiering is not None else None
            ),
            "checkpoint": (
                {
                    "written": self._checkpointer.checkpoints_written,
                    "last_error": self._checkpointer.last_error,
                }
                if self._checkpointer is not None
                else None
            ),
        }
        if detail:
            deepest.sort(reverse=True)
            snapshot["queues"]["deepest"] = [
                [tenant, name, depth] for depth, tenant, name in deepest[:10]
            ]
        return snapshot

    def __repr__(self) -> str:
        return (
            f"SketchServer(sessions={len(self._registry)}, "
            f"address={self.address}, "
            f"checkpointing={self._checkpointer is not None})"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SketchServer":
        """Start background services (the checkpoint scheduler)."""
        if self._checkpointer is not None:
            self._checkpointer.start()
        return self

    async def stop(self, *, drain: bool = True) -> None:
        """Shut down: close TCP, drain every session, final checkpoint.

        With ``drain=True`` (the default) every batch accepted before the
        stop is applied before the writers exit, and the final checkpoint
        (when checkpointing is configured) captures the fully drained
        state.  Idempotent.
        """
        if self._stopped:
            return
        self._stopped = True
        await self._stop_tcp()
        # Close sessions (draining or not) BEFORE the final checkpoint, so
        # the checkpoint captures a state no producer can still add to —
        # otherwise rows accepted during shutdown would be applied after
        # the "final" snapshot and silently lost from persistence.
        if drain:
            await self._registry.aclose_all()
        else:
            for served in self._registry:
                served.close_nowait()
        if self._checkpointer is not None:
            await self._checkpointer.stop(final=True)

    async def __aenter__(self) -> "SketchServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Ops: one implementation for both transports
    # ------------------------------------------------------------------
    def call(self, op: str, /, **fields) -> Awaitable[Any]:
        """Run one protocol op on Python values; await its normalized result.

        This is the in-process transport of
        :class:`~repro.serve.client.ServeClient`: fields go in as Python
        values (numpy columns and callable ``candidates`` predicates
        included) and the result comes back as the client returns it.
        An op reads a ``None`` field as an absent one.  The TCP endpoint
        runs the same ``_op_*`` coroutines between
        :func:`~repro.serve.protocol.decode_fields` and
        :func:`~repro.serve.protocol.encode_result`.
        """
        return (self._handlers.get(op) or self._handler(op))(fields)

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One wire request: decode → op → encode."""
        op = request.get("op")
        handler = self._handler(op)
        fields = protocol.decode_fields(request)
        payload = protocol.encode_result(op, await handler(fields))
        # Two results carry one more reading, taken in the step the op
        # finished in: a gather reads bins and total from one snapshot
        # (no batch can land between them), and a router reports the
        # deepest member queue.
        if op == "estimates":
            payload["total"] = self._served(fields).total().estimate
        elif op == "update_batch":
            payload["queue_depth"] = self._served(fields).queue_depth
        return protocol.ok_response(request.get("id"), payload)

    # -- op helpers ----------------------------------------------------
    @staticmethod
    def _key(fields: Dict[str, Any]) -> Tuple[str, str]:
        """``(name, tenant)`` of the session an op creates or removes."""
        name = fields.get("session")
        if not isinstance(name, str) or not name:
            raise InvalidParameterError(_NO_SESSION)
        return name, fields.get("tenant", DEFAULT_TENANT)

    def _served(self, fields: Dict[str, Any]):
        """The live session an op addresses (a name that is not a string
        names no session; the registry looks it up as one)."""
        name = fields.get("session")
        if not name:
            raise InvalidParameterError(_NO_SESSION)
        return self._registry.get(name, fields.get("tenant", DEFAULT_TENANT))

    # -- ops -----------------------------------------------------------
    async def _op_ping(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "sessions": len(self._registry)}

    async def _op_create(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        name, tenant = self._key(fields)
        spec = fields.get("spec")
        if not isinstance(spec, str):
            raise InvalidParameterError("'create' needs a spec name")
        size = fields.get("size")
        if size is None:
            raise InvalidParameterError("'create' needs a size")
        build_kwargs = dict(fields.get("params") or {})
        for field in ("backend", "window", "seed", "num_shards"):
            if fields.get(field) is not None:
                build_kwargs[field] = fields[field]
        served = self._registry.create(
            name,
            spec,
            tenant=tenant,
            size=int(size),
            ttl=fields.get("ttl"),
            queue_maxsize=fields.get("queue_maxsize"),
            **build_kwargs,
        )
        return served.describe()

    async def _op_drop(self, fields: Dict[str, Any]) -> None:
        name, tenant = self._key(fields)
        self._registry.drop(name, tenant=tenant)

    async def _op_list(self, fields: Dict[str, Any]) -> List[Dict[str, Any]]:
        return self._registry.list_sessions(tenant=fields.get("tenant"))

    async def _op_info(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        return self._served(fields).describe()

    async def _op_update(self, fields: Dict[str, Any]) -> None:
        served = self._served(fields)
        await served.put(
            fields.get("item"), fields.get("weight", 1.0), fields.get("timestamp")
        )

    def _op_update_batch(self, fields: Dict[str, Any]) -> Awaitable[int]:
        """Enqueue a batch; the awaitable gives the rows enqueued.

        Not a coroutine itself: it returns the session's enqueue, so the
        in-process ingest path carries no frame of its own.
        """
        served = self._served(fields)
        items = fields.get("items")
        if items is None:
            raise InvalidParameterError("'update_batch' needs an 'items' column")
        weights, timestamps = fields.get("weights"), fields.get("timestamps")
        if fields.get("block", True):
            return served.put_batch(items, weights, timestamps)
        return self._offer(served, items, weights, timestamps)

    @staticmethod
    async def _offer(served, items, weights, timestamps) -> int:
        """Non-blocking enqueue: a full queue raises :class:`BackpressureError`."""
        if not hasattr(items, "__len__"):
            items = list(items)  # count once; the session reuses the snapshot
        if not served.offer_batch(items, weights, timestamps):
            raise BackpressureError(
                f"ingest queue full for session {served.tenant!r}/{served.name!r} "
                f"({served.queue_depth}/{served.queue_maxsize} batches); "
                "retry, or send with block=true to wait"
            )
        return len(items)

    async def _op_flush(self, fields: Dict[str, Any]) -> int:
        served = self._served(fields)
        await served.drain()
        return served.stats.rows_applied

    async def _op_estimate(self, fields: Dict[str, Any]) -> EstimateWithError:
        return self._served(fields).estimate(fields.get("item"))

    async def _op_estimates(self, fields: Dict[str, Any]) -> Dict[Any, float]:
        return self._served(fields).estimates()

    async def _op_subset_sum(self, fields: Dict[str, Any]) -> EstimateWithError:
        """Subset sum under a callable predicate (in process only) or over
        a ``candidates`` collection, matched as a set."""
        served = self._served(fields)
        candidates = fields.get("candidates")
        if candidates is None:
            raise InvalidParameterError(
                "'subset_sum' needs 'candidates': the labels to sum over"
            )
        if not callable(candidates):
            candidates = set(candidates).__contains__
        return served.subset_sum(candidates)

    async def _op_total(self, fields: Dict[str, Any]) -> EstimateWithError:
        return self._served(fields).total()

    async def _op_heavy_hitters(self, fields: Dict[str, Any]) -> QueryResult:
        served = self._served(fields)
        return served.heavy_hitters(float(fields.get("phi", 0.01)))

    async def _op_top_k(self, fields: Dict[str, Any]) -> QueryResult:
        return self._served(fields).top_k(int(fields.get("k", 10)))

    async def _op_checkpoint(self, fields: Dict[str, Any]) -> int:
        if self._checkpointer is None:
            raise ServeError("this server has no checkpoint directory configured")
        manifest = self._checkpointer.checkpoint_now(
            force=bool(fields.get("force", False))
        )
        return len(manifest["sessions"])

    async def _op_adopt(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        """Serve a serialized estimator frame under ``(tenant, session)``.

        The inverse of ``export``: ``frame`` (a :mod:`repro.io` payload,
        RNG state included) is served with the ``spec`` / ``backend``
        labels and the ``rows_applied`` counter it resumes with.  This is
        the cluster fail-over path and the pipeline driver's restore.
        Raises if the key is already served.
        """
        name, tenant = self._key(fields)
        frame = fields.get("frame")
        if frame is None:
            raise InvalidParameterError(
                "'adopt' needs a 'frame' holding a serialized estimator"
            )
        session = StreamSession(
            load_bytes(bytes(frame)),
            spec_name=fields.get("spec"),
            backend=fields.get("backend") or "inline",
        )
        served = self._registry.adopt(
            name,
            session,
            tenant=tenant,
            ttl=fields.get("ttl"),
            queue_maxsize=fields.get("queue_maxsize"),
        )
        rows = int(fields.get("rows_applied") or 0)
        served.rows_checkpointed = rows
        served.stats.rows_applied = rows
        served.stats.rows_enqueued = rows
        return served.describe()

    async def _op_export(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        """Serialize a served session's estimator: the state half of ``adopt``.

        Returns the complete :mod:`repro.io` ``frame`` (RNG state inside)
        plus the spec/backend labels and applied-row counter an ``adopt``
        needs to resume it exactly.
        """
        served = self._served(fields)
        to_bytes = getattr(served.session.estimator, "to_bytes", None)
        if not callable(to_bytes):
            raise SerializationError(
                f"session {served.tenant!r}/{served.name!r} serves a "
                f"{type(served.session.estimator).__name__}, which does not "
                "implement the serialization contract (no to_bytes)"
            )
        info = served.session.describe()
        return {
            "frame": to_bytes(),
            "spec": info["spec"],
            "backend": info["backend"],
            "rows_applied": served.stats.rows_applied,
        }

    async def _op_metrics(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        return self.metrics(detail=bool(fields.get("detail", False)))
