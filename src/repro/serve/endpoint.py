"""The shared JSON-lines TCP endpoint behind every serving front.

:class:`JsonLinesEndpoint` is the connection machinery common to the
single-process :class:`~repro.serve.server.SketchServer` and the
multi-node :class:`~repro.cluster.router.ClusterRouter`: accept a
connection, send the ``hello`` line, then loop ``readline`` →
``_op_<name>`` dispatch → response envelope until the peer hangs up.
Hosts mix it in, call :meth:`_init_endpoint` from their constructor, and
implement ``_op_*`` coroutines.  A router's ops take and return wire
values as they stand, so it forwards them unchanged; the server
overrides :meth:`_dispatch` to decode the request's fields first and
encode the result payload after, because its ops are written once on
Python values for both client transports.  Everything on the wire —
framing limits, error envelopes, graceful-shutdown semantics — is
identical across fronts, which is what lets one
:class:`~repro.serve.client.TCPServeClient` speak to either without
knowing which it dialed.

Graceful shutdown: :meth:`_stop_tcp` closes the listener, *cancels* every
live connection task, and only then awaits ``wait_closed()`` (newer
Pythons make ``wait_closed`` wait on handlers, so an idle client holding
its socket open would otherwise hang the shutdown forever).  A cancelled
handler answers any request caught mid-dispatch with a
:class:`~repro.errors.ServerClosedError` envelope before closing, so
clients see a typed error instead of a silently dropped connection.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Dict, Optional, Set, Tuple

from repro.errors import (
    InvalidParameterError,
    SerializationError,
    ServerClosedError,
)
from repro.serve import protocol

__all__ = ["JsonLinesEndpoint"]


class JsonLinesEndpoint:
    """Mixin: a JSON-lines TCP front dispatching ops to ``_op_*`` methods."""

    def _init_endpoint(self) -> None:
        """Initialize endpoint state; call from the host's ``__init__``."""
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        self._connections = 0
        self._conn_tasks: Set[asyncio.Task] = set()
        self._stopped = False
        self._handlers: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Listener lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """The bound TCP ``(host, port)``, or ``None`` when not listening."""
        if self._tcp_server is None or not self._tcp_server.sockets:
            return None
        return self._tcp_server.sockets[0].getsockname()[:2]

    @property
    def connections_served(self) -> int:
        """TCP connections accepted over the endpoint's lifetime."""
        return self._connections

    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Listen for JSON-lines clients; returns the bound ``(host, port)``.

        ``port=0`` binds an ephemeral port (the tests do this).
        """
        await self.start()
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, host, port, limit=protocol.MAX_LINE_BYTES
        )
        return self.address

    async def start(self):
        """Start background services; hosts override (default: nothing)."""
        return self

    async def _stop_tcp(self) -> None:
        """Close the listener and wind down live connections gracefully."""
        if self._tcp_server is not None:
            self._tcp_server.close()
            # Cancel connection handlers before wait_closed(): newer
            # Pythons make wait_closed() wait for handlers too, so one
            # idle client holding its socket open would hang the shutdown
            # forever.  Each cancelled handler answers any in-flight
            # request with a ServerClosedError envelope before closing.
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks, return_exceptions=True)
            await self._tcp_server.wait_closed()
            self._tcp_server = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        in_flight_id: Any = None  # id of a request currently being dispatched
        writer.write(
            protocol.encode_line(
                {"hello": "repro.serve", "wire_version": protocol.WIRE_VERSION}
            )
        )
        try:
            await writer.drain()
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # Over-long line: framing is unrecoverable, but tell
                    # the client why before closing instead of vanishing.
                    writer.write(
                        protocol.encode_line(
                            protocol.error_response(
                                None,
                                SerializationError(
                                    "wire line exceeds "
                                    f"{protocol.MAX_LINE_BYTES} bytes"
                                ),
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                request = None
                try:
                    request = protocol.decode_line(line)
                    in_flight_id = request.get("id")
                    if self._stopped:
                        raise ServerClosedError("server is shutting down")
                    response = await self._dispatch(request)
                except Exception as exc:  # one bad request never kills the link
                    request_id = request.get("id") if isinstance(request, dict) else None
                    response = protocol.error_response(request_id, exc)
                in_flight_id = None
                writer.write(protocol.encode_line(response))
                await writer.drain()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # _stop_tcp cancelled this handler.  A request caught
            # mid-dispatch gets a best-effort error envelope so its client
            # sees a typed ServerClosedError rather than a silently
            # dropped connection.
            if in_flight_id is not None:
                with contextlib.suppress(Exception):
                    writer.write(
                        protocol.encode_line(
                            protocol.error_response(
                                in_flight_id,
                                ServerClosedError("server is shutting down"),
                            )
                        )
                    )
                    await writer.drain()
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    def _handler(self, op: Any):
        """The host's ``_op_<op>`` method; an unknown op is refused.

        Each op is looked up by name once and kept: the lookup is off the
        per-request path, which for an in-process client is a few
        microseconds long.
        """
        handler = self._handlers.get(op) if isinstance(op, str) else None
        if handler is None:
            handler = getattr(self, f"_op_{op}", None)
            if handler is None:
                raise InvalidParameterError(
                    f"unknown serve op {op!r} (known ops: "
                    f"{', '.join(protocol.KNOWN_OPS)})"
                )
            self._handlers[op] = handler
        return handler

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        result = await self._handler(request.get("op"))(request)
        return protocol.ok_response(request.get("id"), result)
