"""Integration tests: ``update_batch`` numeric columns as raw bytes.

Covered: the frame a peer sends when the other side's ``hello``
advertises ``columns`` and the JSON line it sends otherwise; the same
sketch state through every hop mix (shard ``export`` frames byte-equal,
equal ``top_k`` / ``heavy_hitters`` answers); and a hypothesis fuzz of
bad frame headers against a bare server and a 2-shard router — each
gets a typed error, enqueues nothing, reaches no member, and the
connection survives whenever the byte count was usable.
"""

from __future__ import annotations

import asyncio
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter
from repro.cluster.client import MemberConnection
from repro.errors import InvalidParameterError
from repro.serve import SketchServer, TCPServeClient, protocol

SPEC = "unbiased_space_saving"


def run(coro):
    return asyncio.run(coro)


class JsonOnlyServer(SketchServer):
    """A server whose ``hello`` does not advertise column frames."""

    def _hello(self):
        hello = super()._hello()
        del hello["columns"]
        return hello


class JsonOnlyRouter(ClusterRouter):
    """A router whose ``hello`` does not advertise column frames."""

    def _hello(self):
        hello = super()._hello()
        del hello["columns"]
        return hello


async def _cluster(server_cls=SketchServer, router_cls=ClusterRouter, n=2):
    servers, members = [], []
    for index in range(n):
        server = server_cls()
        host, port = await server.start_tcp("127.0.0.1", 0)
        servers.append(server)
        members.append((f"m{index}", host, port))
    router = router_cls(members, seed=3)
    host, port = await router.start_tcp("127.0.0.1", 0)
    return servers, router, (host, port)


async def _stop(*endpoints):
    for endpoint in endpoints:
        await endpoint.stop()


def _header(line: bytes) -> dict:
    return json.loads(line[: line.index(b"\n")])


class TestEncoding:
    def test_a_label_array_batch_becomes_a_frame(self):
        items = np.array([3, -1, 2**40], dtype=np.int64)
        weights = np.array([1.0, 0.5, 2.0])
        payload = {"id": 1, "op": "update_batch", "session": "s",
                   "items": items, "weights": weights}
        frame = protocol.encode_line(payload, columns=True)
        header = _header(frame)
        assert header == {
            "id": 1, "op": "update_batch", "session": "s",
            "columns": [["items", "<i8", 24], ["weights", "<f8", 24]],
        }
        blob = frame[frame.index(b"\n") + 1 :]
        assert blob == items.tobytes() + weights.tobytes()
        request = protocol.attach_columns(header, header["columns"], blob)
        assert request["items"].dtype == np.int64
        assert request["items"].tolist() == items.tolist()
        assert request["weights"].tolist() == weights.tolist()
        assert "columns" not in request

    @pytest.mark.parametrize(
        "dtype", ["?", "i1", "u1", ">i2", "<i4", ">u4", "<i8", ">u8"]
    )
    def test_label_dtypes_go_little_endian(self, dtype):
        items = np.array([1, 0, 1, 1], dtype=dtype)
        frame = protocol.encode_line(
            {"op": "update_batch", "items": items}, columns=True
        )
        ((field, code, nbytes),) = _header(frame)["columns"]
        assert field == "items" and nbytes == items.nbytes
        assert code == np.dtype(dtype).newbyteorder("<").str
        assert code in protocol.COLUMN_DTYPES["items"]

    @pytest.mark.parametrize(
        "items",
        [
            ["a", "b"],
            [1, 2],
            np.array([0.5, -0.0]),
            np.array(["a", "b"]),
            np.array([("t", 1), "b"], dtype=object),
        ],
        ids=["str-list", "int-list", "float-array", "str-array", "object-array"],
    )
    def test_other_label_columns_stay_json_lines(self, items):
        payload = {"op": "update_batch", "items": items}
        assert protocol.encode_line(payload, columns=True) == protocol.encode_line(
            payload
        )

    def test_control_ops_and_json_peers_get_json_lines(self):
        items = np.arange(4)
        for payload in (
            {"op": "update_batch", "items": items},  # a peer without frames
            {"op": "subset_sum", "candidates": items},
        ):
            line = protocol.encode_line(payload)
            assert line.endswith(b"\n") and line.count(b"\n") == 1
            assert b"columns" not in line
        assert b"columns" not in protocol.encode_line(
            {"op": "subset_sum", "candidates": items}, columns=True
        )

    def test_fields_leave_numeric_arrays_to_the_line(self):
        items = np.arange(3, dtype=np.uint8)
        fields = protocol.encode_fields({"items": items, "weights": np.arange(1, 4)})
        assert fields["items"] is items
        assert fields["weights"].dtype == np.float64
        # Lowered to JSON, the arrays are the line of the equivalent lists.
        assert protocol.encode_line({"op": "update_batch", **fields}) == (
            protocol.encode_line(
                {"op": "update_batch", "items": [0, 1, 2], "weights": [1.0, 2.0, 3.0]}
            )
        )
        assert protocol.encode_fields({"items": ["a"], "weights": [1, 2]}) == {
            "items": ["a"],
            "weights": [1.0, 2.0],
        }


class TestNegotiation:
    def test_hello_advertises_frames_and_the_client_reads_it(self):
        async def scenario():
            servers, router, address = await _cluster(JsonOnlyServer)
            try:
                to_router = await TCPServeClient.connect(*address)
                to_member = await TCPServeClient.connect(*servers[0].address)
                hellos = (to_router.server_hello, to_member.server_hello)
                await to_router.close()
                await to_member.close()
                return hellos
            finally:
                await _stop(router, *servers)

        router_hello, member_hello = run(scenario())
        assert router_hello == {
            "hello": "repro.serve", "wire_version": 1, "columns": True
        }
        assert "columns" not in member_hello
        assert member_hello["wire_version"] == protocol.WIRE_VERSION

    def test_frames_are_sent_only_to_peers_that_read_them(self, monkeypatch):
        sent = []
        original = protocol.encode_line

        def recording(payload, *, columns=False):
            line = original(payload, columns=columns)
            if payload.get("op") == "update_batch":
                sent.append(b'"columns":[' in line)
            return line

        monkeypatch.setattr(protocol, "encode_line", recording)

        async def scenario(server_cls):
            servers, router, address = await _cluster(server_cls)
            client = await TCPServeClient.connect(*address)
            try:
                await client.create("s", SPEC, size=16, seed=0, shards=2)
                await client.update_batch("s", np.arange(40) % 7)
                await client.update_batch("s", list("abcdefgh"))
                assert await client.flush("s") == 48
            finally:
                await client.close()
                await _stop(router, *servers)

        run(scenario(SketchServer))
        # Client -> router and router -> both shards as frames; the str
        # batch as JSON lines on every hop.
        assert sent == [True, True, True, False, False, False]
        sent.clear()
        run(scenario(JsonOnlyServer))
        assert sent == [True, False, False, False, False, False]


# ----------------------------------------------------------------------
# One stream, every hop mix: the same shard state
# ----------------------------------------------------------------------
SESSIONS = {
    # name -> (label maker, create extras)
    "plain": (lambda rng, n: rng.zipf(1.3, n).astype(np.int64) % 500, {}),
    "narrow": (lambda rng, n: (rng.integers(-40, 40, n)).astype(np.int16), {}),
    "small": (lambda rng, n: rng.integers(0, 60, n).astype(np.uint8), {}),
    "flags": (lambda rng, n: rng.random(n) < 0.3, {}),
    "wide": (
        lambda rng, n: rng.integers(0, 90, n).astype(np.uint64) + np.uint64(2**63),
        {},
    ),
    "win": (
        lambda rng, n: rng.integers(0, 80, n).astype(np.int64),
        {"window": "sliding:2m/1m"},
    ),
}

#: (router class, member class) per hop mix.
HOP_MIXES = {
    "frames": (ClusterRouter, SketchServer),
    "json": (JsonOnlyRouter, JsonOnlyServer),
    "frames-then-json": (ClusterRouter, JsonOnlyServer),
}


async def _ingest_and_read(router_cls, server_cls):
    servers, router, address = await _cluster(server_cls, router_cls)
    client = await TCPServeClient.connect(*address)
    rng = np.random.default_rng(17)
    try:
        for name, (_, extras) in SESSIONS.items():
            await client.create(name, SPEC, size=24, seed=5, shards=4, **extras)
        clock = 0.0
        for batch in range(10):
            for name, (make, extras) in SESSIONS.items():
                rows = 150
                items = make(rng, rows)
                weights = rng.random(rows) + 0.25 if batch % 2 else None
                timestamps = None
                if "window" in extras:
                    timestamps = clock + np.sort(rng.random(rows)) * 40.0
                await client.update_batch(name, items, weights, timestamps)
                # One batch per member apply: coalescing is timing-dependent.
                await client.flush(name)
            clock += 40.0
        answers, frames = {}, {}
        for name in SESSIONS:
            answers[name] = (
                (await client.top_k(name, 12)).groups,
                (await client.heavy_hitters(name, 0.02)).groups,
                (await client.total(name)).estimate,
                await client.flush(name),
            )
        by_member = dict(zip((f"m{i}" for i in range(len(servers))), servers))
        for (_, name), route in router.routes.items():
            for _, wire_name, member_id in route.slots():
                exported = await by_member[member_id].client.export(wire_name)
                frames[wire_name] = exported["frame"]
        return answers, frames
    finally:
        await client.close()
        await _stop(router, *servers)


def test_every_hop_mix_gives_the_same_shard_state():
    results = {
        mix: run(_ingest_and_read(*classes)) for mix, classes in HOP_MIXES.items()
    }
    answers, frames = results["json"]
    assert len(frames) == 4 * len(SESSIONS)
    assert all(answers[name][3] == 1500 for name in SESSIONS)
    for mix in ("frames", "frames-then-json"):
        other_answers, other_frames = results[mix]
        assert other_frames.keys() == frames.keys()
        for wire_name, frame in frames.items():
            assert other_frames[wire_name] == frame, (mix, wire_name)
        for name in SESSIONS:
            assert repr(other_answers[name]) == repr(answers[name]), (mix, name)


# ----------------------------------------------------------------------
# Hostile frame headers
# ----------------------------------------------------------------------
ROWS = 4
GOOD_ITEMS = np.arange(ROWS, dtype="<i8")
GOOD_WEIGHTS = np.full(ROWS, 1.5)


def _good_frame():
    header = {"op": "update_batch", "session": "s"}
    layout = [
        ["items", "<i8", GOOD_ITEMS.nbytes],
        ["weights", "<f8", GOOD_WEIGHTS.nbytes],
    ]
    return header, layout, [GOOD_ITEMS.tobytes(), GOOD_WEIGHTS.tobytes()]


BAD_DTYPES = ["|O", "<f8", "<f4", ">i8", ">u2", "<c16", "|S8", "<U2", "zz", "", 8, None]


@st.composite
def bad_frames(draw):
    """``(header, blob, usable)``: a frame each front must refuse."""
    header, layout, chunks = _good_frame()
    usable = True
    kind = draw(
        st.sampled_from(
            [
                "label-dtype", "real-dtype", "odd-size", "negative", "over-limit",
                "count-type", "entry-shape", "layout-type", "duplicate",
                "json-and-binary", "unknown-field", "misaligned", "non-finite",
                "no-items", "other-op",
            ]
        )
    )
    if kind == "label-dtype":
        layout[0][1] = draw(st.sampled_from(BAD_DTYPES))
    elif kind == "real-dtype":
        layout[1][1] = draw(st.sampled_from([d for d in BAD_DTYPES if d != "<f8"] + [">f8", "<i8"]))
    elif kind == "odd-size":
        extra = draw(st.integers(1, 7))
        layout[0][2] += extra
        chunks[0] += bytes(extra)
    elif kind == "negative":
        layout[draw(st.integers(0, 1))][2] = -draw(st.integers(1, 64))
        usable = False
    elif kind == "over-limit":
        layout[0][2] = protocol.MAX_LINE_BYTES + draw(st.integers(1, 2**20))
        usable = False
    elif kind == "count-type":
        layout[0][2] = draw(st.sampled_from([8.0, "8", True, None, [8]]))
        usable = False
    elif kind == "entry-shape":
        layout.append(draw(st.sampled_from([["timestamps", "<f8"], "items", 7, {}])))
        usable = False
    elif kind == "layout-type":
        layout = draw(st.sampled_from([{"items": 32}, "items", 32, True]))
        usable = False
    elif kind == "duplicate":
        layout.append(["items", "<i8", GOOD_ITEMS.nbytes])
        chunks.append(GOOD_ITEMS.tobytes())
    elif kind == "json-and-binary":
        field = draw(st.sampled_from(["items", "weights"]))
        header[field] = [1.0] * ROWS if draw(st.booleans()) else None
    elif kind == "unknown-field":
        layout.append([draw(st.sampled_from(["bogus", "item", 3, None])), "<i8", 8])
        chunks.append(bytes(8))
    elif kind == "misaligned":
        rows = draw(st.integers(0, 8).filter(lambda n: n != ROWS))
        layout[1][2] = 8 * rows
        chunks[1] = np.ones(rows).tobytes()
    elif kind == "non-finite":
        weights = GOOD_WEIGHTS.copy()
        weights[draw(st.integers(0, ROWS - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf])
        )
        chunks[1] = weights.tobytes()
    elif kind == "no-items":
        del layout[0], chunks[0]
        if draw(st.booleans()):
            header["items"] = list(range(ROWS))
    elif kind == "other-op":
        header["op"] = draw(st.sampled_from(["update", "ping", "top_k", "estimate"]))
    header["columns"] = layout
    header["id"] = 7
    return header, b"".join(chunks) if usable else b"", usable


def _ingest_state(servers):
    snapshots = [server.metrics()["ingest"] for server in servers]
    return (
        sum(s["rows_enqueued"] for s in snapshots),
        sum(s["failed_batches"] for s in snapshots),
    )


async def _probe(address, case):
    """Send one bad frame; returns ``(response, alive_after)``."""
    header, blob, _ = case
    reader, writer = await asyncio.open_connection(*address)
    try:
        await reader.readline()  # hello
        writer.write(json.dumps(header).encode() + b"\n" + blob)
        await writer.drain()
        response = json.loads(await reader.readline())
        writer.write(b'{"id": 8, "op": "ping"}\n')
        await writer.drain()
        try:
            after = await reader.readline()
        except ConnectionResetError:
            after = b""
        alive = bool(after) and json.loads(after)["ok"] is True
        return response, alive
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _fuzz_front(boot):
    loop = asyncio.new_event_loop()
    servers, endpoints, address = loop.run_until_complete(boot())
    try:
        before = _ingest_state(servers)
        ops = []
        original = MemberConnection.call

        async def recording(self, op, **fields):
            ops.append(op)
            return await original(self, op, **fields)

        @settings(max_examples=120, deadline=None)
        @given(case=bad_frames())
        def check(case):
            with mock.patch.object(MemberConnection, "call", recording):
                response, alive = loop.run_until_complete(_probe(address, case))
            assert response["ok"] is False, case
            assert response["error"]["type"] in (
                "SerializationError", "InvalidParameterError"
            ), (case, response)
            assert alive is case[2], (case, response)
            assert ops == []
            assert _ingest_state(servers) == before

        check()
        # The fronts still ingest a good frame afterwards.
        client = loop.run_until_complete(TCPServeClient.connect(*address))
        loop.run_until_complete(client.update_batch("s", GOOD_ITEMS, GOOD_WEIGHTS))
        assert loop.run_until_complete(client.flush("s")) == ROWS
        loop.run_until_complete(client.close())
    finally:
        loop.run_until_complete(_stop(*endpoints))
        loop.close()


def test_fuzzed_frames_get_typed_errors_from_a_bare_server():
    async def boot():
        server = SketchServer()
        address = await server.start_tcp("127.0.0.1", 0)
        await server.client.create("s", SPEC, size=16, seed=0)
        return [server], [server], address

    _fuzz_front(boot)


def test_fuzzed_frames_get_typed_errors_from_a_router():
    async def boot():
        servers, router, address = await _cluster()
        client = await TCPServeClient.connect(*address)
        await client.create("s", SPEC, size=16, seed=0, shards=2)
        await client.close()
        return servers, [router, *servers], address

    _fuzz_front(boot)


@pytest.mark.parametrize(
    "field,values,error",
    [
        ("weights", [1.0, math.nan], InvalidParameterError),
        ("weights", [1.0], InvalidParameterError),
        ("timestamps", [math.inf, 1.0], InvalidParameterError),
    ],
    ids=["nan-weight", "short-weights", "inf-timestamp"],
)
def test_the_client_frame_is_checked_like_a_json_line(field, values, error):
    async def scenario():
        server = SketchServer()
        address = await server.start_tcp("127.0.0.1", 0)
        client = await TCPServeClient.connect(*address)
        try:
            await client.create("s", SPEC, size=16, seed=0)
            with pytest.raises(error):
                await client.update_batch(
                    "s", np.array([1, 2], dtype=np.int32), **{field: values}
                )
            assert await client.flush("s") == 0
            assert _ingest_state([server]) == (0, 0)
        finally:
            await client.close()
            await server.stop()

    run(scenario())
