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

The TCP dispatch table maps protocol ``op`` names onto the same registry
calls the in-process client uses; both clients therefore return the same
normalized results, and remote errors re-raise as the same
:mod:`repro.errors` classes.
"""

from __future__ import annotations

import base64
import binascii
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    BackpressureError,
    InvalidParameterError,
    SerializationError,
    ServeError,
)
from repro.api.session import StreamSession
from repro.io import load_bytes
from repro.serve import protocol
from repro.serve.checkpoint import CheckpointScheduler, restore_registry
from repro.serve.endpoint import JsonLinesEndpoint
from repro.serve.registry import DEFAULT_TENANT, SketchRegistry
from repro.serve.stats import RateTracker

__all__ = ["SketchServer"]


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
    # TCP op dispatch (connection handling lives in JsonLinesEndpoint)
    # ------------------------------------------------------------------
    # -- op helpers ----------------------------------------------------
    @staticmethod
    def _key(request: Dict[str, Any]) -> Tuple[str, str]:
        name = request.get("session")
        if not isinstance(name, str) or not name:
            raise InvalidParameterError(
                "requests addressing a session need a non-empty 'session' field"
            )
        return str(request.get("tenant", DEFAULT_TENANT)), name

    def _served(self, request: Dict[str, Any]):
        tenant, name = self._key(request)
        return self._registry.get(name, tenant=tenant)

    @staticmethod
    def _decode_rows(request: Dict[str, Any]):
        items, weights, timestamps = protocol.check_rows(request)
        return protocol.decode_items(items), weights, timestamps

    # -- ops -----------------------------------------------------------
    async def _op_ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "sessions": len(self._registry)}

    async def _op_create(self, request: Dict[str, Any]) -> Dict[str, Any]:
        tenant, name = self._key(request)
        spec = request.get("spec")
        if not isinstance(spec, str):
            raise InvalidParameterError("'create' needs a spec name")
        size = request.get("size")
        if size is None:
            raise InvalidParameterError("'create' needs a size")
        build_kwargs = dict(request.get("params") or {})
        for field in ("backend", "window", "seed", "num_shards"):
            if request.get(field) is not None:
                build_kwargs[field] = request[field]
        served = self._registry.create(
            name,
            spec,
            tenant=tenant,
            size=int(size),
            ttl=request.get("ttl"),
            queue_maxsize=request.get("queue_maxsize"),
            **build_kwargs,
        )
        return {"created": True, "info": _jsonable_info(served.describe())}

    async def _op_drop(self, request: Dict[str, Any]) -> Dict[str, Any]:
        tenant, name = self._key(request)
        self._registry.drop(name, tenant=tenant)
        return {"dropped": True}

    async def _op_list(self, request: Dict[str, Any]) -> Dict[str, Any]:
        tenant = request.get("tenant")
        return {
            "sessions": [
                _jsonable_info(info)
                for info in self._registry.list_sessions(tenant=tenant)
            ]
        }

    async def _op_info(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"info": _jsonable_info(self._served(request).describe())}

    async def _op_update(self, request: Dict[str, Any]) -> Dict[str, Any]:
        served = self._served(request)
        item = protocol.decode_item(request.get("item"))
        await served.put(
            item,
            float(request.get("weight", 1.0)),
            request.get("timestamp"),
        )
        return {"enqueued": 1}

    async def _op_update_batch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        served = self._served(request)
        items, weights, timestamps = self._decode_rows(request)
        if request.get("block", True):
            rows = await served.put_batch(items, weights, timestamps)
        else:
            if not served.offer_batch(items, weights, timestamps):
                raise BackpressureError(
                    f"ingest queue full for session "
                    f"{served.tenant!r}/{served.name!r} "
                    f"({served.queue_depth}/{served.queue_maxsize} batches); "
                    "retry, or send with block=true to wait"
                )
            rows = len(items)
        return {"enqueued": rows, "queue_depth": served.queue_depth}

    async def _op_flush(self, request: Dict[str, Any]) -> Dict[str, Any]:
        served = self._served(request)
        await served.drain()
        return {"rows_applied": served.stats.rows_applied}

    async def _op_estimate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        served = self._served(request)
        result = served.estimate(protocol.decode_item(request.get("item")))
        return {"estimate": result.estimate, "variance": result.variance}

    async def _op_estimates(self, request: Dict[str, Any]) -> Dict[str, Any]:
        served = self._served(request)
        # The total rides along so a gather reads bins and total from one
        # snapshot: no batch can land between the two reads.
        return {
            "pairs": protocol.encode_pairs(served.estimates()),
            "total": served.total().estimate,
        }

    async def _op_subset_sum(self, request: Dict[str, Any]) -> Dict[str, Any]:
        served = self._served(request)
        candidates = request.get("candidates")
        if not isinstance(candidates, list):
            raise InvalidParameterError(
                "the wire 'subset_sum' op takes a 'candidates' array (arbitrary "
                "predicates cannot travel over JSON; use the in-process client "
                "for callable predicates)"
            )
        member = {protocol.decode_item(candidate) for candidate in candidates}
        result = served.subset_sum(lambda item: item in member)
        return {"estimate": result.estimate, "variance": result.variance}

    async def _op_total(self, request: Dict[str, Any]) -> Dict[str, Any]:
        served = self._served(request)
        result = served.total()
        return {"estimate": result.estimate, "variance": result.variance}

    async def _op_heavy_hitters(self, request: Dict[str, Any]) -> Dict[str, Any]:
        served = self._served(request)
        phi = float(request.get("phi", 0.01))
        return {"pairs": protocol.encode_pairs(served.heavy_hitters(phi).groups)}

    async def _op_top_k(self, request: Dict[str, Any]) -> Dict[str, Any]:
        served = self._served(request)
        k = int(request.get("k", 10))
        return {"pairs": protocol.encode_pairs(served.top_k(k).groups)}

    async def _op_checkpoint(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._checkpointer is None:
            raise ServeError(
                "this server has no checkpoint directory configured"
            )
        manifest = self._checkpointer.checkpoint_now(
            force=bool(request.get("force", False))
        )
        return {"sessions": len(manifest["sessions"])}

    async def _op_adopt(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Serve a serialized estimator frame under ``(tenant, session)``.

        The wire twin of :meth:`SketchRegistry.adopt`: the request carries
        a base64 ``frame`` (a :mod:`repro.io` payload, RNG state included),
        plus the ``spec`` / ``backend`` labels and ``rows_applied`` counter
        the session should resume with.  This is the cluster fail-over
        rehydration path — a router reads a dead member's checkpoint files
        and adopts them onto survivors — but works against any server.
        """
        tenant, name = self._key(request)
        frame = request.get("frame")
        if not isinstance(frame, str):
            raise InvalidParameterError(
                "'adopt' needs a base64 'frame' holding a serialized estimator"
            )
        try:
            payload = base64.b64decode(frame.encode("ascii"), validate=True)
        except (binascii.Error, ValueError, UnicodeEncodeError) as exc:
            raise SerializationError(
                f"'adopt' frame is not valid base64: {exc}"
            ) from exc
        estimator = load_bytes(payload)
        session = StreamSession(
            estimator,
            spec_name=request.get("spec"),
            backend=request.get("backend", "inline"),
        )
        served = self._registry.adopt(
            name,
            session,
            tenant=tenant,
            ttl=request.get("ttl"),
            queue_maxsize=request.get("queue_maxsize"),
        )
        rows = int(request.get("rows_applied", 0))
        served.rows_checkpointed = rows
        served.stats.rows_applied = rows
        served.stats.rows_enqueued = rows
        return {"adopted": True, "info": _jsonable_info(served.describe())}

    async def _op_export(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The inverse of ``adopt``: serialize a served session's estimator.

        Returns the session's complete :mod:`repro.io` frame (base64 on
        the wire, RNG state inside) plus the spec/backend labels and
        applied-row counter an ``adopt`` on another server — or a
        pipeline-driver checkpoint — needs to resume it exactly.
        """
        served = self._served(request)
        to_bytes = getattr(served.session.estimator, "to_bytes", None)
        if not callable(to_bytes):
            raise SerializationError(
                f"session {served.tenant!r}/{served.name!r} serves a "
                f"{type(served.session.estimator).__name__}, which does not "
                "implement the serialization contract (no to_bytes)"
            )
        info = served.session.describe()
        return {
            "frame": base64.b64encode(to_bytes()).decode("ascii"),
            "spec": info["spec"],
            "backend": info["backend"],
            "rows_applied": served.stats.rows_applied,
        }

    async def _op_metrics(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return {"metrics": self.metrics(detail=bool(request.get("detail", False)))}


def _jsonable_info(info: Dict[str, Any]) -> Dict[str, Any]:
    """Session describe() dicts are JSON-safe except for nothing today —
    kept as a single funnel so future fields stay wire-safe."""
    try:
        protocol.encode_line(info)
    except (TypeError, SerializationError):
        info = {key: repr(value) for key, value in info.items()}
    return info
