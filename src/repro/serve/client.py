"""Async clients for the sketch server: one method surface, two transports.

Every client method is written once, on :class:`BaseServeClient`: it
passes Python values to ``self._call(op, **fields)``, which returns the
same normalized result types the local
:class:`~repro.api.session.StreamSession` does —
:class:`~repro.core.variance.EstimateWithError` for scalar reads,
:class:`~repro.query.engine.QueryResult` for grouped reads, plain dicts,
``bytes`` or ``int`` for the rest — so query code is identical whether
the sketch lives in this process or across a socket.  Two transports
implement ``_call``:

* :class:`ServeClient` calls the server's ops in process
  (:meth:`~repro.serve.server.SketchServer.call`).  No JSON, no label
  encoding, numpy columns pass through untouched, callable predicates
  are allowed, and backpressure is the real ``await`` on the session's
  bounded queue — this is the client the benchmark's multi-producer
  load generators drive.
* :class:`TCPServeClient` speaks the JSON-lines protocol of
  :mod:`repro.serve.protocol`, which encodes the fields and decodes the
  result by name.  Predicates must be candidate collections (a callable
  is refused before anything is sent); remote errors re-raise as their
  original :mod:`repro.errors` classes.

The two transports share no other code path: ``TCPServeClient`` is not a
``ServeClient``.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Dict, Iterable, List, Optional

from repro._typing import Item, ItemPredicate
from repro.core.variance import EstimateWithError
from repro.errors import (
    BackpressureError,
    CapabilityError,
    ClusterError,
    InvalidParameterError,
    MemberDownError,
    QuotaExceededError,
    RouteMovedError,
    SerializationError,
    ServeError,
    ServerClosedError,
    SessionNotFoundError,
)
from repro.query.engine import QueryResult
from repro.serve import protocol
from repro.serve.registry import DEFAULT_TENANT

__all__ = ["BaseServeClient", "ServeClient", "TCPServeClient", "RemoteServeError"]


class RemoteServeError(ServeError):
    """A server-side failure with no local exception class to map onto."""


#: Remote error type name -> local exception class (anything else raises
#: :class:`RemoteServeError`).
_ERROR_TYPES = {
    "SessionNotFoundError": SessionNotFoundError,
    "BackpressureError": BackpressureError,
    "QuotaExceededError": QuotaExceededError,
    "ServerClosedError": ServerClosedError,
    "CapabilityError": CapabilityError,
    "InvalidParameterError": InvalidParameterError,
    "SerializationError": SerializationError,
    "ClusterError": ClusterError,
    "MemberDownError": MemberDownError,
    "RouteMovedError": RouteMovedError,
    "ServeError": ServeError,
}


class BaseServeClient:
    """The client method surface, written once over a ``_call`` transport.

    All session methods take ``tenant=`` (defaulting to the shared
    ``"default"`` namespace) and a session ``name``.  ``None``-valued
    fields count as absent on both transports.
    """

    async def _call(self, op: str, **fields) -> Any:
        """Run one protocol op; returns its normalized result."""
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------
    async def ping(self) -> Dict[str, Any]:
        return await self._call("ping")

    async def create(
        self,
        name: str,
        spec: str,
        *,
        size: int,
        tenant: str = DEFAULT_TENANT,
        ttl: Optional[float] = None,
        queue_maxsize: Optional[int] = None,
        backend: Optional[str] = None,
        window: Optional[str] = None,
        seed: Optional[int] = None,
        num_shards: Optional[int] = None,
        **params,
    ) -> Dict[str, Any]:
        """Create a served session; returns its ``info`` description.

        Spec extras go in ``params``; a cluster router also reads
        ``shards=k`` from there (a single server ignores it).
        """
        return await self._call(
            "create",
            session=name,
            tenant=tenant,
            spec=spec,
            size=size,
            ttl=ttl,
            queue_maxsize=queue_maxsize,
            backend=backend,
            window=window,
            seed=seed,
            num_shards=num_shards,
            params=params or None,
        )

    async def drop(self, name: str, *, tenant: str = DEFAULT_TENANT) -> None:
        await self._call("drop", session=name, tenant=tenant)

    async def list_sessions(
        self, *, tenant: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        return await self._call("list", tenant=tenant)

    async def info(self, name: str, *, tenant: str = DEFAULT_TENANT) -> Dict[str, Any]:
        return await self._call("info", session=name, tenant=tenant)

    # -- ingest --------------------------------------------------------
    async def update(
        self,
        name: str,
        item: Item,
        weight: float = 1.0,
        timestamp: Optional[float] = None,
        *,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        await self._call(
            "update",
            session=name,
            tenant=tenant,
            item=item,
            weight=weight,
            timestamp=timestamp,
        )

    async def update_batch(
        self,
        name: str,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
        timestamps: Optional[Iterable[float]] = None,
        *,
        tenant: str = DEFAULT_TENANT,
        block: bool = True,
    ) -> int:
        """Enqueue a batch; returns rows enqueued.

        ``block=True`` waits for queue space; with ``block=False`` a full
        queue raises :class:`~repro.errors.BackpressureError`.
        """
        return await self._call(
            "update_batch",
            session=name,
            tenant=tenant,
            items=items,
            weights=weights,
            timestamps=timestamps,
            block=block,
        )

    async def flush(self, name: str, *, tenant: str = DEFAULT_TENANT) -> int:
        """Wait until every enqueued batch is applied; returns rows applied."""
        return await self._call("flush", session=name, tenant=tenant)

    # -- queries -------------------------------------------------------
    async def estimate(
        self, name: str, item: Item, *, tenant: str = DEFAULT_TENANT
    ) -> EstimateWithError:
        return await self._call("estimate", session=name, tenant=tenant, item=item)

    async def estimates(
        self, name: str, *, tenant: str = DEFAULT_TENANT
    ) -> Dict[Item, float]:
        return await self._call("estimates", session=name, tenant=tenant)

    async def subset_sum(
        self,
        name: str,
        predicate: "ItemPredicate | Iterable[Item]",
        *,
        tenant: str = DEFAULT_TENANT,
    ) -> EstimateWithError:
        """Subset sum over a candidate collection or under a callable.

        A callable predicate works in process only: the wire cannot carry
        it, so :class:`TCPServeClient` refuses one with
        :class:`~repro.errors.InvalidParameterError` before sending.
        """
        return await self._call(
            "subset_sum", session=name, tenant=tenant, candidates=predicate
        )

    async def total(
        self, name: str, *, tenant: str = DEFAULT_TENANT
    ) -> EstimateWithError:
        return await self._call("total", session=name, tenant=tenant)

    async def heavy_hitters(
        self, name: str, phi: float, *, tenant: str = DEFAULT_TENANT
    ) -> QueryResult:
        return await self._call("heavy_hitters", session=name, tenant=tenant, phi=phi)

    async def top_k(
        self, name: str, k: int, *, tenant: str = DEFAULT_TENANT
    ) -> QueryResult:
        return await self._call("top_k", session=name, tenant=tenant, k=k)

    # -- persistence ---------------------------------------------------
    async def checkpoint(self, *, force: bool = False) -> int:
        """Force a checkpoint pass; returns the number of sessions written."""
        return await self._call("checkpoint", force=force or None)

    async def export(
        self, name: str, *, tenant: str = DEFAULT_TENANT
    ) -> Dict[str, Any]:
        """Serialize a session's estimator: the state-capture half of adopt.

        Returns ``{"frame", "spec", "backend", "rows_applied"}`` where
        ``frame`` is the session's complete :mod:`repro.io` envelope (RNG
        state included) as ``bytes``.  The pipeline driver's checkpoints
        are built from this — frame and row counter captured at a flushed
        batch boundary describe one exact stream position.
        """
        return await self._call("export", session=name, tenant=tenant)

    async def adopt(
        self,
        name: str,
        frame: bytes,
        *,
        tenant: str = DEFAULT_TENANT,
        spec: Optional[str] = None,
        backend: Optional[str] = None,
        rows_applied: int = 0,
        ttl: Optional[float] = None,
        queue_maxsize: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Serve a serialized estimator frame under ``(tenant, name)``.

        The inverse of :meth:`export` and the cluster tier's fail-over
        path: ``frame`` is raw :mod:`repro.io` bytes, loaded through the
        type registry and served with its recorded ``rows_applied``
        counter.  Raises if the key is already served — drop the old
        session first.
        """
        return await self._call(
            "adopt",
            session=name,
            tenant=tenant,
            frame=frame,
            spec=spec,
            backend=backend,
            rows_applied=int(rows_applied) or None,
            ttl=ttl,
            queue_maxsize=queue_maxsize,
        )

    async def metrics(self, *, detail: bool = False) -> Dict[str, Any]:
        """The server's operational snapshot (see ``SketchServer.metrics``)."""
        return await self._call("metrics", detail=detail or None)

    # -- cluster administration (router endpoints only) ----------------
    async def cluster_info(self) -> Dict[str, Any]:
        """The router's topology snapshot (``cluster_info`` op)."""
        return await self._call("cluster_info")

    async def join(
        self, member_id: str, host: str, port: int
    ) -> Dict[str, Any]:
        """Add a member to a running cluster router and rebalance onto it.

        Only a :class:`~repro.cluster.router.ClusterRouter` endpoint
        answers this; a bare server rejects it as an unknown op.  Returns
        the router's summary (``sessions_moved``, new ``epoch``).
        """
        return await self._call("join", member=member_id, host=host, port=port)

    async def decommission(self, member_id: str) -> Dict[str, Any]:
        """Drain a member's sessions to ring successors and remove it."""
        return await self._call("decommission", member=member_id)


class ServeClient(BaseServeClient):
    """In-process transport: calls a :class:`~repro.serve.server.SketchServer`'s
    ops directly, with Python values."""

    def __init__(self, server) -> None:
        self._server = server
        # The transport is the server's own op call: no frame in between
        # on the in-process ingest path.
        self._call = server.call

    @property
    def server(self):
        return self._server


class TCPServeClient(BaseServeClient):
    """JSON-lines transport to a remote :class:`SketchServer` TCP endpoint.

    Create with :meth:`connect`; use as an async context manager::

        async with await TCPServeClient.connect(host, port) as client:
            await client.create("clicks", spec="unbiased_space_saving", size=256)
            await client.update_batch("clicks", [1, 2, 1, 3])
            top = await client.top_k("clicks", 2)

    The client is sequential (one request in flight at a time, guarded by
    a lock); open several clients for concurrent producers — the server
    multiplexes connections freely.

    ``connect`` takes a bounded retry budget (``retries`` attempts beyond
    the first, exponential ``backoff`` between them) so a server that is
    still binding its port — or restarting after fail-over — does not
    fail the very first dial; a ``request_timeout`` bounds every
    round-trip so a hung server surfaces as :class:`ServeError` instead
    of an indefinite ``await``.  Both knobs default to the historical
    behaviour (one attempt, wait forever).
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        request_timeout: Optional[float] = None,
        moved_retries: int = 2,
        moved_backoff: float = 0.05,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._lock = asyncio.Lock()
        self._request_timeout = request_timeout
        self._moved_retries = moved_retries
        self._moved_backoff = moved_backoff
        self.server_hello: Dict[str, Any] = {}

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        retries: int = 0,
        backoff: float = 0.1,
        request_timeout: Optional[float] = None,
        moved_retries: int = 2,
        moved_backoff: float = 0.05,
    ) -> "TCPServeClient":
        """Dial a server, retrying refused/timed-out attempts with backoff.

        Parameters
        ----------
        retries:
            Additional attempts after the first (0 keeps the historical
            single-attempt behaviour).  Attempt ``i`` sleeps
            ``backoff * 2**i`` before redialing; once the budget is
            exhausted :class:`~repro.errors.ServerClosedError` is raised
            with the underlying failure chained.
        backoff:
            Base delay in seconds for the exponential backoff schedule.
        request_timeout:
            Per-request round-trip bound applied to every call made on
            the returned client (and to each connection attempt).
            ``None`` waits indefinitely.
        moved_retries:
            Transparent retries when a cluster router answers
            :class:`~repro.errors.RouteMovedError` — the op had no
            effect (a shard was mid-migration), so the client waits
            ``moved_backoff * 2**attempt`` and resends; the retry lands
            on the new owner once the migration epoch closes.  0
            surfaces the error to the caller on first occurrence.
        """
        if retries < 0:
            raise InvalidParameterError(f"retries must be >= 0, got {retries}")
        if backoff < 0:
            raise InvalidParameterError(f"backoff must be >= 0, got {backoff}")
        if moved_retries < 0:
            raise InvalidParameterError(
                f"moved_retries must be >= 0, got {moved_retries}"
            )
        last_error: Optional[BaseException] = None
        for attempt in range(retries + 1):
            if attempt:
                await asyncio.sleep(backoff * 2 ** (attempt - 1))
            try:
                open_conn = asyncio.open_connection(
                    host, port, limit=protocol.MAX_LINE_BYTES
                )
                if request_timeout is not None:
                    reader, writer = await asyncio.wait_for(
                        open_conn, request_timeout
                    )
                else:
                    reader, writer = await open_conn
                break
            except (OSError, asyncio.TimeoutError) as exc:
                last_error = exc
        else:
            raise ServerClosedError(
                f"could not connect to {host}:{port} after {retries + 1} "
                f"attempt(s): {last_error}"
            ) from last_error
        client = cls(
            reader,
            writer,
            request_timeout=request_timeout,
            moved_retries=moved_retries,
            moved_backoff=moved_backoff,
        )
        try:
            hello_line = await client._bounded(reader.readline())
        except ServeError:
            await client.close()
            raise
        hello = protocol.decode_line(hello_line)
        client.server_hello = hello
        version = hello.get("wire_version")
        if version != protocol.WIRE_VERSION:
            await client.close()
            raise SerializationError(
                f"server speaks wire version {version!r}, "
                f"client expects {protocol.WIRE_VERSION}"
            )
        return client

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "TCPServeClient":
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.close()

    # -- request plumbing ----------------------------------------------
    async def _bounded(self, awaitable):
        """Await under the client's request timeout (``None`` = no bound)."""
        if self._request_timeout is None:
            return await awaitable
        try:
            return await asyncio.wait_for(awaitable, self._request_timeout)
        except asyncio.TimeoutError as exc:
            raise ServeError(
                f"request timed out after {self._request_timeout}s (the "
                "connection is no longer usable; reconnect to retry)"
            ) from exc

    async def _call(self, op: str, **fields) -> Any:
        payload = await self.request(op, **protocol.encode_fields(fields))
        return protocol.decode_result(op, payload)

    async def request(self, op: str, **fields) -> Dict[str, Any]:
        """Issue one raw protocol op, returning the wire result payload.

        The typed methods cover the stable surface; this is the escape
        hatch for ops without a wrapper (and the forwarding path the
        cluster router's member connections use): fields go out as wire
        values, unencoded, and ``None``-valued fields are omitted.
        Remote errors re-raise as their :mod:`repro.errors` classes, and
        a :class:`~repro.errors.RouteMovedError` is retried transparently
        (see ``moved_retries``).
        """
        for attempt in range(self._moved_retries + 1):
            try:
                return await self._call_once(op, fields)
            except RouteMovedError:
                if attempt >= self._moved_retries:
                    raise
                await asyncio.sleep(self._moved_backoff * 2**attempt)
        raise AssertionError("unreachable")  # pragma: no cover

    async def _call_once(self, op: str, fields: Dict[str, Any]) -> Dict[str, Any]:
        request = {"id": next(self._ids), "op": op}
        request.update(
            {key: value for key, value in fields.items() if value is not None}
        )

        async def round_trip() -> bytes:
            self._writer.write(protocol.encode_line(request))
            await self._writer.drain()
            return await self._reader.readline()

        async with self._lock:
            line = await self._bounded(round_trip())
        if not line:
            raise ServeError("server closed the connection")
        response = protocol.decode_line(line)
        if response.get("ok"):
            return response.get("result", {})
        error = response.get("error") or {}
        exc_class = _ERROR_TYPES.get(error.get("type"), RemoteServeError)
        raise exc_class(error.get("message", "remote serve error"))
