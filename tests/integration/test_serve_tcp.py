"""Integration tests: the TCP wire protocol and server checkpoint/restore.

Each test boots a real :class:`~repro.serve.server.SketchServer` on an
ephemeral loopback port (or drives the in-process client for the
persistence paths) and exercises the full round trip: JSON-lines framing,
label-type preservation, error mapping back onto the
:mod:`repro.errors` hierarchy, timestamped (windowed) ingest over the
wire, and exact resume of served sessions — including a windowed session
checkpointed mid-rotation — from the background checkpointer's manifest.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

import repro
from repro.errors import (
    InvalidParameterError,
    QuotaExceededError,
    RouteMovedError,
    SerializationError,
    ServeError,
    ServerClosedError,
    SessionNotFoundError,
)
from repro.serve import SketchServer, TCPServeClient, restore_registry
from repro.serve.client import RemoteServeError
from repro.serve.checkpoint import MANIFEST_NAME
from repro.streams import chunk_stream


def run(coro):
    return asyncio.run(coro)


async def _tcp_server():
    """A started server on an ephemeral port, plus a connected client."""
    server = SketchServer()
    host, port = await server.start_tcp("127.0.0.1", 0)
    client = await TCPServeClient.connect(host, port)
    return server, client


# ----------------------------------------------------------------------
# Wire protocol round trips
# ----------------------------------------------------------------------
class TestTCPProtocol:
    def test_full_session_lifecycle_over_the_wire(self):
        async def scenario():
            server, client = await _tcp_server()
            try:
                assert (await client.ping())["pong"] is True
                info = await client.create(
                    "clicks", "unbiased_space_saving", size=64,
                    seed=42, tenant="ads",
                )
                assert info["spec"] == "unbiased_space_saving"

                rows = [f"ad{i % 7}" for i in range(200)]
                sent = await client.update_batch("clicks", rows, tenant="ads")
                assert sent == 200
                await client.update("clicks", "ad0", 3.0, tenant="ads")
                assert await client.flush("clicks", tenant="ads") == 201

                total = await client.total("clicks", tenant="ads")
                assert total.estimate == 203.0  # 200 unit rows + weight 3

                estimates = await client.estimates("clicks", tenant="ads")
                point = await client.estimate("clicks", "ad0", tenant="ads")
                assert point.estimate == estimates["ad0"]

                subset = await client.subset_sum(
                    "clicks", ["ad0", "ad1"], tenant="ads"
                )
                assert subset.estimate == estimates["ad0"] + estimates["ad1"]

                top = await client.top_k("clicks", 3, tenant="ads")
                assert list(top.groups) == sorted(
                    estimates, key=estimates.get, reverse=True
                )[:3]
                hitters = await client.heavy_hitters("clicks", 0.1, tenant="ads")
                assert set(hitters.groups) <= set(estimates)

                sessions = await client.list_sessions(tenant="ads")
                assert [s["name"] for s in sessions] == ["clicks"]
                await client.drop("clicks", tenant="ads")
                assert await client.list_sessions(tenant="ads") == []
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_wire_equals_local_session(self, batch_workload, batch_seed):
        """Acceptance: estimates over TCP == hand-built session, same stream."""
        chunks = chunk_stream(
            [int(v) for v in batch_workload], 500
        )
        hand = repro.build("unbiased_space_saving", size=64, seed=batch_seed)
        for chunk in chunks:
            hand.update_batch(chunk)

        async def scenario():
            server, client = await _tcp_server()
            try:
                # coalesce=1: the served call sequence matches the local loop.
                await client.create(
                    "s", "unbiased_space_saving", size=64, seed=batch_seed,
                    queue_maxsize=len(chunks) + 1,
                )
                server.registry.get("s")._coalesce = 1
                for chunk in chunks:
                    await client.update_batch("s", chunk)
                await client.flush("s")
                return await client.estimates("s")
            finally:
                await client.close()
                await server.stop()

        assert run(scenario()) == hand.estimates()

    def test_tuple_labels_survive_the_wire(self):
        async def scenario():
            server, client = await _tcp_server()
            try:
                await client.create("f", "unbiased_space_saving", size=16, seed=0)
                labels = [("us", 1), ("us", 2), ("eu", 1), ("us", 1)]
                await client.update_batch("f", labels)
                await client.flush("f")
                estimates = await client.estimates("f")
                assert estimates[("us", 1)] == 2.0
                subset = await client.subset_sum("f", [("us", 1), ("eu", 1)])
                assert subset.estimate == 3.0
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_windowed_timestamped_ingest_over_the_wire(self):
        async def scenario():
            server, client = await _tcp_server()
            try:
                await client.create(
                    "w", "unbiased_space_saving", size=32,
                    window="sliding:2m/1m", seed=0,
                )
                await client.update_batch(
                    "w", ["a", "b"], timestamps=[10.0, 30.0]
                )
                await client.update_batch("w", ["c"], timestamps=[150.0])
                await client.flush("w")
                estimates = await client.estimates("w")
                info = await client.info("w")
                return estimates, info
            finally:
                await client.close()
                await server.stop()

        estimates, info = run(scenario())
        # t=150 expired the first pane out of the 2-minute horizon.
        assert sorted(estimates) == ["c"]
        assert info["window"] == "sliding:2m/1m"

    def test_remote_errors_map_to_local_classes(self):
        async def scenario():
            server, client = await _tcp_server()
            try:
                with pytest.raises(SessionNotFoundError):
                    await client.total("ghost")
                with pytest.raises(InvalidParameterError):
                    await client.create("bad", "no_such_spec", size=8)
                with pytest.raises((InvalidParameterError, RemoteServeError)):
                    await client._call("frobnicate")
                # The connection survived all three failures.
                assert (await client.ping())["pong"] is True
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_malformed_line_gets_error_response_and_connection_survives(self):
        async def scenario():
            server = SketchServer()
            host, port = await server.start_tcp("127.0.0.1", 0)
            try:
                reader, writer = await asyncio.open_connection(host, port)
                await reader.readline()  # hello banner
                writer.write(b"this is not json\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert response["error"]["type"] == "SerializationError"
                writer.write(
                    b'{"id": 9, "op": "ping"}\n'
                )
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is True and response["id"] == 9
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(scenario())

    def test_malformed_line_error_does_not_echo_previous_request_id(self):
        """Pipelined clients correlate by id; a parse error has no id."""

        async def scenario():
            server = SketchServer()
            host, port = await server.start_tcp("127.0.0.1", 0)
            try:
                reader, writer = await asyncio.open_connection(host, port)
                await reader.readline()  # hello banner
                writer.write(b'{"id": 41, "op": "ping"}\n')
                await writer.drain()
                assert json.loads(await reader.readline())["id"] == 41
                writer.write(b"garbage\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert response["id"] is None  # NOT the stale 41
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(scenario())

    def test_overlong_line_gets_error_envelope_before_close(self, monkeypatch):
        from repro.serve import protocol as proto

        monkeypatch.setattr(proto, "MAX_LINE_BYTES", 1024)

        async def scenario():
            server = SketchServer()
            host, port = await server.start_tcp("127.0.0.1", 0)
            try:
                reader, writer = await asyncio.open_connection(host, port)
                await reader.readline()  # hello banner
                writer.write(b"x" * 4096 + b"\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert "exceeds" in response["error"]["message"]
                assert await reader.readline() == b""  # then a clean close
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(scenario())

    def test_client_rejects_wire_version_mismatch(self):
        async def scenario():
            async def bad_hello(reader, writer):
                writer.write(b'{"hello": "repro.serve", "wire_version": 99}\n')
                await writer.drain()
                await reader.readline()
                writer.close()

            fake = await asyncio.start_server(bad_hello, "127.0.0.1", 0)
            host, port = fake.sockets[0].getsockname()[:2]
            try:
                with pytest.raises(SerializationError, match="wire version"):
                    await TCPServeClient.connect(host, port)
            finally:
                fake.close()
                await fake.wait_closed()

        run(scenario())

    def test_concurrent_tcp_producers(self):
        """Several connections feed one session; nothing is lost."""

        async def scenario():
            server = SketchServer(queue_maxsize=4)
            host, port = await server.start_tcp("127.0.0.1", 0)
            try:
                control = await TCPServeClient.connect(host, port)
                await control.create("s", "unbiased_space_saving", size=64, seed=0)

                async def producer(offset: int) -> int:
                    async with await TCPServeClient.connect(host, port) as client:
                        sent = 0
                        for start in range(0, 100, 20):
                            sent += await client.update_batch(
                                "s", list(range(offset + start, offset + start + 20))
                            )
                        return sent

                totals = await asyncio.gather(*(producer(i * 1000) for i in range(4)))
                await control.flush("s")
                grand = await control.total("s")
                await control.close()
                return sum(totals), grand.estimate
            finally:
                await server.stop()

        sent, estimate = run(scenario())
        assert sent == 400
        assert estimate == 400.0


# ----------------------------------------------------------------------
# Production hardening over the wire: metrics, quotas, tiering
# ----------------------------------------------------------------------
class TestRouteMovedOverTheWire:
    """Wire mapping and client retry policy for ``RouteMovedError``.

    The router raises it when non-blocking ingest hits a slot that is
    mid-migration; by contract the rejected op had no effect, so the
    client may always retry.  These tests pin the envelope → typed-error
    mapping and the transparent retry loop without needing a cluster:
    a monkeypatched bare-server op stands in for the migrating router.
    """

    def test_envelope_maps_to_typed_error_and_connection_survives(
        self, monkeypatch
    ):
        async def moved(self, request):
            raise RouteMovedError("slot 0 is migrating")

        monkeypatch.setattr(SketchServer, "_op_flush", moved)

        async def scenario():
            server = SketchServer()
            host, port = await server.start_tcp("127.0.0.1", 0)
            client = await TCPServeClient.connect(host, port, moved_retries=0)
            try:
                with pytest.raises(RouteMovedError, match="migrating"):
                    await client.flush("clicks")
                # A moved rejection is not a connection failure.
                assert (await client.ping())["pong"] is True
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_client_retries_transparently_until_the_route_settles(
        self, monkeypatch
    ):
        calls = []

        async def settles_on_third(self, request):
            calls.append(request.get("id"))
            if len(calls) < 3:
                raise RouteMovedError("still migrating")
            return 7

        monkeypatch.setattr(SketchServer, "_op_flush", settles_on_third)

        async def scenario():
            server = SketchServer()
            host, port = await server.start_tcp("127.0.0.1", 0)
            # Default retry budget (2 retries) covers two moved rejections.
            client = await TCPServeClient.connect(
                host, port, moved_backoff=0.001
            )
            try:
                assert await client.flush("clicks") == 7
            finally:
                await client.close()
                await server.stop()

        run(scenario())
        assert len(calls) == 3
        assert len(set(calls)) == 3  # each retry is a fresh request id

    def test_exhausted_retry_budget_surfaces_the_error(self, monkeypatch):
        calls = []

        async def always_moved(self, request):
            calls.append(1)
            raise RouteMovedError("the route kept moving")

        monkeypatch.setattr(SketchServer, "_op_flush", always_moved)

        async def scenario():
            server = SketchServer()
            host, port = await server.start_tcp("127.0.0.1", 0)
            client = await TCPServeClient.connect(
                host, port, moved_retries=1, moved_backoff=0.001
            )
            try:
                with pytest.raises(RouteMovedError):
                    await client.flush("clicks")
            finally:
                await client.close()
                await server.stop()

        run(scenario())
        assert len(calls) == 2  # the first attempt plus exactly one retry

    def test_bare_server_rejects_cluster_only_ops(self):
        """``join``/``decommission`` are protocol ops but router-only —
        a plain member server must refuse them, not half-handle them."""

        async def scenario():
            server, client = await _tcp_server()
            try:
                for op in ("join", "decommission"):
                    with pytest.raises(
                        (InvalidParameterError, RemoteServeError),
                        match="unknown serve op",
                    ):
                        await client._call(op, member="m9")
            finally:
                await client.close()
                await server.stop()

        run(scenario())


class TestTCPHardening:
    def test_metrics_op_returns_live_counters(self):
        async def scenario():
            server, client = await _tcp_server()
            try:
                await client.create("s", "unbiased_space_saving", size=64, seed=0)
                await client.update_batch("s", ["a", "b", "a"])
                await client.flush("s")
                await client.total("s")
                await client.estimate("s", "a")
                return await client.metrics(detail=True)
            finally:
                await client.close()
                await server.stop()

        snapshot = run(scenario())
        # The snapshot crossed the JSON wire and still carries live data.
        assert snapshot["sessions"]["live"] == 1
        assert snapshot["ingest"]["rows_applied"] == 3
        assert snapshot["queries"]["total"]["count"] == 1
        assert snapshot["queries"]["estimate"]["p99_ms"] is not None
        assert snapshot["connections_served"] >= 1
        assert snapshot["uptime_sec"] > 0.0

    def test_quota_error_maps_over_the_wire(self):
        from repro.serve import QuotaManager, TenantQuota

        async def scenario():
            quota = QuotaManager(
                default=TenantQuota(max_sessions=1, max_rows_per_sec=100.0)
            )
            server = SketchServer(quota=quota)
            host, port = await server.start_tcp("127.0.0.1", 0)
            client = await TCPServeClient.connect(host, port)
            try:
                await client.create("a", "unbiased_space_saving", size=16, seed=0)
                with pytest.raises(QuotaExceededError):
                    await client.create(
                        "b", "unbiased_space_saving", size=16, seed=0
                    )
                # The connection survived the refusal...
                assert (await client.ping())["pong"] is True
                # ...and the rejection is visible in the metrics snapshot.
                snapshot = await client.metrics()
                assert snapshot["quota"]["sessions_rejected"] == 1
            finally:
                await client.close()
                await server.stop()

        run(scenario())

    def test_info_reports_tier_over_the_wire(self, tmp_path):
        from repro.serve import AccuracyTiering, ErrorBudget

        async def scenario():
            tiering = AccuracyTiering(
                tmp_path / "tiers",
                default_budget=ErrorBudget(target_rrmse=0.02, min_capacity=16),
            )
            server = SketchServer(tiering=tiering, max_sessions=1)
            host, port = await server.start_tcp("127.0.0.1", 0)
            client = await TCPServeClient.connect(host, port)
            try:
                await client.create("old", "unbiased_space_saving", size=400, seed=0)
                await client.update_batch("old", [f"i{i % 30}" for i in range(1000)])
                await client.flush("old")
                # Creating a second session LRU-evicts "old" into the spill
                # tier; the next access rehydrates it transparently.
                await client.create("new", "unbiased_space_saving", size=16, seed=1)
                info = await client.info("old")
                assert info["tier"] == "rehydrated"
                assert info["demoted_capacity"] == 50
                total = await client.total("old")
                assert total.estimate == 1000.0
                snapshot = await client.metrics()
                assert snapshot["tiering"]["rehydrations"] == 1
            finally:
                await client.close()
                await server.stop()

        run(scenario())


# ----------------------------------------------------------------------
# Checkpoint / restore
# ----------------------------------------------------------------------
class TestServeCheckpointRestore:
    def test_restart_resumes_every_session_exactly(self, tmp_path, batch_seed):
        """Stop mid-stream, restore, replay the rest: equals uninterrupted."""
        rng = np.random.default_rng(batch_seed)
        stream = rng.integers(0, 500, size=4_000)
        first, second = stream[:2_000], stream[2_000:]
        first_chunks = chunk_stream(first, 250)
        second_chunks = chunk_stream(second, 250)

        # The uninterrupted reference run.
        reference = repro.build("unbiased_space_saving", size=64, seed=batch_seed)
        for chunk in first_chunks + second_chunks:
            reference.update_batch(chunk)

        async def phase_one():
            async with SketchServer(
                checkpoint_dir=tmp_path, checkpoint_interval=3600.0
            ) as server:
                client = server.client
                await client.create(
                    "s", "unbiased_space_saving", size=64,
                    seed=batch_seed, coalesce=1,
                )
                for chunk in first_chunks:
                    await client.update_batch("s", chunk)
                await client.flush("s")
            # __aexit__ wrote the final checkpoint after draining.

        async def phase_two():
            server = SketchServer.restore(tmp_path)
            async with server:
                client = server.client
                served = server.registry.get("s")
                assert served.stats.rows_applied == 2_000
                served._coalesce = 1
                for chunk in second_chunks:
                    await client.update_batch("s", chunk)
                await client.flush("s")
                return await client.estimates("s"), await client.total("s")

        run(phase_one())
        assert (tmp_path / MANIFEST_NAME).exists()
        estimates, total = run(phase_two())
        assert estimates == reference.estimates()
        assert total.estimate == reference.total().estimate == 4_000.0

    def test_windowed_session_checkpoints_mid_rotation(self, tmp_path):
        """A served sliding window restores mid-rotation and keeps rotating."""
        window = "sliding:2m/30s"

        def feed_plan():
            # Rows crossing several pane boundaries, checkpoint taken with
            # the ring mid-horizon (some panes live, some expired).
            early = (["a", "b", "a"], [5.0, 20.0, 40.0])
            mid = (["c", "a"], [65.0, 95.0])
            late = (["d", "b"], [130.0, 200.0])  # t=200 expires the early panes
            return early, mid, late

        early, mid, late = feed_plan()

        reference = repro.build(
            "unbiased_space_saving", size=32, window=window, seed=1
        )
        for items, ts in (early, mid, late):
            reference.update_batch(items, timestamps=ts)

        async def phase_one():
            async with SketchServer(
                checkpoint_dir=tmp_path, checkpoint_interval=3600.0
            ) as server:
                client = server.client
                await client.create(
                    "w", "unbiased_space_saving", size=32,
                    window=window, seed=1, coalesce=1,
                )
                for items, ts in (early, mid):
                    await client.update_batch("w", items, timestamps=ts)
                await client.flush("w")

        async def phase_two():
            server = SketchServer.restore(tmp_path)
            async with server:
                client = server.client
                served = server.registry.get("w")
                served._coalesce = 1
                info = await client.info("w")
                assert info["window"] == window
                items, ts = late
                await client.update_batch("w", items, timestamps=ts)
                await client.flush("w")
                return await client.estimates("w")

        run(phase_one())
        assert run(phase_two()) == reference.estimates()

    def test_background_checkpointer_survives_a_failing_pass(self, tmp_path):
        """One transient checkpoint error must not end persistence forever."""

        async def scenario():
            async with SketchServer(
                checkpoint_dir=tmp_path, checkpoint_interval=0.02
            ) as server:
                client = server.client
                await client.create("s", "unbiased_space_saving", size=16, seed=0)
                await client.update_batch("s", [1, 2, 3])
                await client.flush("s")
                scheduler = server.checkpointer
                real = scheduler.checkpoint_now
                calls = {"n": 0}

                def flaky(**kwargs):
                    calls["n"] += 1
                    if calls["n"] == 1:
                        raise OSError("disk momentarily full")
                    return real(**kwargs)

                scheduler.checkpoint_now = flaky
                for _ in range(200):
                    if scheduler.checkpoints_written > 0:
                        break
                    await asyncio.sleep(0.01)
                scheduler.checkpoint_now = real
                # The first background pass failed and was recorded...
                assert calls["n"] >= 2
                # ...but the task kept running and a later pass succeeded.
                assert scheduler.checkpoints_written > 0
                assert scheduler.last_error is None

        run(scenario())

    def test_unserializable_adopted_session_is_served_but_not_persisted(
        self, tmp_path
    ):
        from repro.api.session import StreamSession
        from repro.serve.checkpoint import checkpoint_registry
        from repro.serve.registry import SketchRegistry

        class AdHoc:
            def __init__(self):
                self.seen = []

            def update(self, item, weight=1.0):
                self.seen.append((item, float(weight)))

        registry = SketchRegistry()
        registry.create("real", "unbiased_space_saving", size=16, seed=0)
        registry.adopt("adhoc", StreamSession(AdHoc()))
        manifest = checkpoint_registry(registry, tmp_path)
        assert [entry["name"] for entry in manifest["sessions"]] == ["real"]

    def test_background_checkpointer_fires_on_interval(self, tmp_path):
        async def scenario():
            async with SketchServer(
                checkpoint_dir=tmp_path, checkpoint_interval=0.05
            ) as server:
                client = server.client
                await client.create("s", "unbiased_space_saving", size=16, seed=0)
                await client.update_batch("s", [1, 2, 3])
                await client.flush("s")
                for _ in range(100):
                    if server.checkpointer.checkpoints_written > 0:
                        break
                    await asyncio.sleep(0.02)
                assert server.checkpointer.checkpoints_written > 0
            manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
            assert [s["name"] for s in manifest["sessions"]] == ["s"]
            assert manifest["sessions"][0]["rows_applied"] == 3

        run(scenario())

    def test_multi_tenant_restore_preserves_namespaces(self, tmp_path):
        async def phase_one():
            async with SketchServer(checkpoint_dir=tmp_path) as server:
                client = server.client
                await client.create(
                    "clicks", "unbiased_space_saving", size=16,
                    seed=0, tenant="ads", ttl=900.0,
                )
                await client.create(
                    "clicks", "misra_gries", size=8, tenant="fraud"
                )
                await client.update_batch("clicks", ["x", "y"], tenant="ads")
                await client.update_batch("clicks", ["z"], tenant="fraud")
                await client.flush("clicks", tenant="ads")
                await client.flush("clicks", tenant="fraud")

        run(phase_one())
        registry = restore_registry(tmp_path)
        ads = registry.get("clicks", tenant="ads")
        fraud = registry.get("clicks", tenant="fraud")
        assert ads.ttl == 900.0
        assert ads.session.spec_name == "unbiased_space_saving"
        assert fraud.session.spec_name == "misra_gries"
        assert sorted(ads.estimates()) == ["x", "y"]
        assert sorted(fraud.estimates()) == ["z"]

    def test_restore_requires_manifest(self, tmp_path):
        with pytest.raises(SerializationError, match="manifest"):
            restore_registry(tmp_path / "nowhere")


# ----------------------------------------------------------------------
# Client resilience and graceful server shutdown
# ----------------------------------------------------------------------
class TestClientResilienceAndShutdown:
    def test_connect_retries_then_raises_typed_error(self):
        """Exhausted retries surface as ServerClosedError, not raw OSError."""
        async def scenario():
            # Bind-then-close guarantees the port is unbound when we dial.
            probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            with pytest.raises(ServerClosedError, match="3 attempt"):
                await TCPServeClient.connect(
                    "127.0.0.1", port, retries=2, backoff=0.01
                )

        run(scenario())

    def test_connect_retry_succeeds_once_listener_appears(self):
        """A slow-to-boot server is reached by the backoff loop."""
        async def scenario():
            server = SketchServer()
            probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()

            async def boot_late():
                await asyncio.sleep(0.15)
                await server.start_tcp("127.0.0.1", port)

            boot = asyncio.ensure_future(boot_late())
            try:
                client = await TCPServeClient.connect(
                    "127.0.0.1", port, retries=8, backoff=0.05
                )
                assert (await client.ping())["pong"] is True
                await client.close()
            finally:
                await boot
                await server.stop()

        run(scenario())

    def test_request_timeout_raises_serve_error(self):
        """A stalled server trips the per-request deadline, not a hang."""
        async def scenario():
            async def stalling_peer(reader, writer):
                hello = {"server": "stall", "wire_version": 1}
                writer.write((json.dumps(hello) + "\n").encode())
                await writer.drain()
                await reader.readline()  # swallow the request, never answer
                await asyncio.sleep(30)

            listener = await asyncio.start_server(stalling_peer, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            try:
                client = await TCPServeClient.connect(
                    "127.0.0.1", port, request_timeout=0.1
                )
                with pytest.raises(ServeError, match="timed out"):
                    await client.request("ping")
            finally:
                listener.close()
                await listener.wait_closed()

        run(scenario())

    def test_stop_cancels_in_flight_request_with_error_envelope(self):
        """Graceful shutdown answers in-flight requests before dropping them."""
        async def scenario():
            server, client = await _tcp_server()

            started = asyncio.Event()

            async def _op_slow(request):
                started.set()
                await asyncio.sleep(30)
                return {"never": True}

            server._op_slow = _op_slow
            pending = asyncio.ensure_future(client.request("slow"))
            await asyncio.wait_for(started.wait(), 5)
            # stop() must not wait the 30s the handler would take.
            await asyncio.wait_for(server.stop(), 5)
            with pytest.raises(ServerClosedError, match="shutting down"):
                await pending

        run(scenario())

    def test_stop_with_idle_connection_returns_promptly(self):
        async def scenario():
            server, client = await _tcp_server()
            assert (await client.ping())["pong"] is True
            # The client holds an open, idle connection; stop() must not
            # block on it (the reader task is parked in readline()).
            await asyncio.wait_for(server.stop(), 5)

        run(scenario())
