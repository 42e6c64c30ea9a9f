"""Integration tests: the wire ingest path through client, server and router.

Covered: ``update_batch`` validation at the boundary — a malformed
label, weight or timestamp column gets a typed error from a bare
:class:`~repro.serve.server.SketchServer` and from a
:class:`~repro.cluster.ClusterRouter`, before anything is enqueued on
any shard — the one-read-per-shard gather behind ``top_k`` and
``heavy_hitters``, and the byte-identical ``update_batch`` lines the TCP
client sends for numpy columns and the equivalent Python lists.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cluster import ClusterRouter
from repro.cluster.client import MemberConnection
from repro.errors import InvalidParameterError, SerializationError
from repro.serve import SketchServer, TCPServeClient

SPEC = "unbiased_space_saving"
NAN = float("nan")

#: ``update_batch`` fields that must be refused, with the error they get.
MALFORMED = [
    pytest.param({"weights": ["a", 1]}, InvalidParameterError, id="str-weight"),
    pytest.param({"weights": [None, 1]}, InvalidParameterError, id="null-weight"),
    pytest.param({"weights": [NAN, 1]}, InvalidParameterError, id="nan-weight"),
    pytest.param({"weights": [True, 1]}, InvalidParameterError, id="bool-weight"),
    pytest.param({"weights": [10**400, 1]}, InvalidParameterError, id="huge-weight"),
    pytest.param({"weights": "zz"}, InvalidParameterError, id="str-weights"),
    pytest.param({"weights": [1.0]}, InvalidParameterError, id="short-weights"),
    pytest.param({"timestamps": ["t", 1]}, InvalidParameterError, id="str-ts"),
    pytest.param(
        {"timestamps": [float("inf"), 1]}, InvalidParameterError, id="inf-ts"
    ),
    pytest.param({"items": [{"a": 1}, "b"]}, SerializationError, id="object-label"),
    pytest.param(
        {"items": [["a", {"b": 1}], "b"]}, SerializationError, id="nested-object"
    ),
    pytest.param({"items": "ab"}, InvalidParameterError, id="str-items"),
]


def run(coro):
    return asyncio.run(coro)


def _batch(fields):
    request = {"items": ["a", "b"]}
    request.update(fields)
    return request


@pytest.fixture
def member_ops(monkeypatch):
    """Every op the router sends to a member, in order."""
    ops = []
    original = MemberConnection.call

    async def recording(self, op, **fields):
        ops.append(op)
        return await original(self, op, **fields)

    monkeypatch.setattr(MemberConnection, "call", recording)
    return ops


async def _cluster(n=2):
    servers, members = [], []
    for index in range(n):
        server = SketchServer()
        host, port = await server.start_tcp("127.0.0.1", 0)
        servers.append(server)
        members.append((f"m{index}", host, port))
    router = ClusterRouter(members, seed=3)
    host, port = await router.start_tcp("127.0.0.1", 0)
    client = await TCPServeClient.connect(host, port)
    return servers, router, client


async def _close(client, *endpoints):
    await client.close()
    for endpoint in endpoints:
        await endpoint.stop()


def _failed_batches(server):
    return sum(
        served.stats.failed_batches for served in server.registry
    )


class TestBoundaryValidation:
    @pytest.mark.parametrize("fields,error", MALFORMED)
    def test_bare_server_refuses_before_enqueue(self, fields, error):
        async def scenario():
            server = SketchServer()
            host, port = await server.start_tcp("127.0.0.1", 0)
            client = await TCPServeClient.connect(host, port)
            try:
                await client.create("s", SPEC, size=16, seed=0)
                with pytest.raises(error):
                    await client.request("update_batch", session="s", **_batch(fields))
                assert await client.flush("s") == 0
                assert _failed_batches(server) == 0
                # The connection survived and still ingests.
                await client.update_batch("s", ["a", "b"], [1, 2.5])
                assert await client.flush("s") == 2
                assert (await client.total("s")).estimate == 3.5
            finally:
                await _close(client, server)

        run(scenario())

    @pytest.mark.parametrize("shards", [None, 2])
    @pytest.mark.parametrize("fields,error", MALFORMED)
    def test_router_refuses_before_any_send(self, fields, error, shards, member_ops):
        async def scenario():
            servers, router, client = await _cluster()
            try:
                await client.create("s", SPEC, size=16, seed=0, shards=shards)
                member_ops.clear()
                with pytest.raises(error):
                    await client.request("update_batch", session="s", **_batch(fields))
                assert member_ops == []
                assert await client.flush("s") == 0
                assert sum(_failed_batches(server) for server in servers) == 0
            finally:
                await _close(client, router, *servers)

        run(scenario())

    def test_integer_weights_and_timestamps_are_accepted(self):
        async def scenario():
            servers, router, client = await _cluster()
            try:
                await client.create(
                    "w", SPEC, size=16, seed=0, shards=2, window="sliding:2m/1m"
                )
                await client.request(
                    "update_batch", session="w",
                    items=["a", ["t", 1], 3], weights=[2, 1, 4], timestamps=[10, 20, 30],
                )
                assert await client.flush("w") == 3
                return await client.estimates("w")
            finally:
                await _close(client, router, *servers)

        assert run(scenario()) == {"a": 2.0, ("t", 1): 1.0, 3: 4.0}


WEIGHTS = [1.0 + i % 3 for i in range(200)]


class TestGather:
    def test_one_estimates_read_per_shard(self, member_ops):
        async def scenario():
            servers, router, client = await _cluster()
            try:
                await client.create("s", SPEC, size=64, seed=0, shards=4)
                labels = [f"ad{i % 13}" for i in range(200)]
                await client.update_batch("s", labels, WEIGHTS)
                await client.flush("s")
                member_ops.clear()
                top = await client.top_k("s", 3)
                top_ops = list(member_ops)
                member_ops.clear()
                await client.heavy_hitters("s", 0.05)
                hh_ops = list(member_ops)
                estimates = await client.request("estimates", session="s")
                total = await client.total("s")
                return top, top_ops, hh_ops, estimates, total
            finally:
                await _close(client, router, *servers)

        top, top_ops, hh_ops, estimates, total = run(scenario())
        assert top_ops == ["estimates"] * 4
        assert hh_ops == ["estimates"] * 4
        assert len(top.groups) == 3
        # The additive ``total`` field sums across shards exactly.
        assert estimates["total"] == total.estimate == sum(WEIGHTS)
        assert sum(value for _, value in estimates["pairs"]) == sum(WEIGHTS)

    def test_member_estimates_carry_the_total(self):
        async def scenario():
            server = SketchServer()
            host, port = await server.start_tcp("127.0.0.1", 0)
            client = await TCPServeClient.connect(host, port)
            try:
                await client.create("s", SPEC, size=2, seed=0)
                await client.update_batch("s", ["a", "b", "c", "a"], [1, 2, 3, 4])
                await client.flush("s")
                return await client.request("estimates", session="s")
            finally:
                await _close(client, server)

        result = run(scenario())
        assert result["total"] == 10.0
        assert len(result["pairs"]) == 2


class _RecordingWriter:
    """Stands in for the client's stream writer and keeps every line."""

    def __init__(self):
        self.lines = []

    def write(self, data):
        self.lines.append(bytes(data))

    async def drain(self):
        pass


async def _sent_line(items, weights=None, timestamps=None):
    """The one ``update_batch`` line a fresh client sends for the columns."""
    reader = asyncio.StreamReader()
    reader.feed_data(b'{"id":1,"ok":true,"result":{"enqueued":0}}\n')
    writer = _RecordingWriter()
    client = TCPServeClient(reader, writer)
    await client.update_batch("s", items, weights, timestamps)
    (line,) = writer.lines
    return line


class TestClientWireLines:
    @pytest.mark.parametrize(
        "column",
        [
            np.array([3, -1, 2**40, 0], dtype=np.int64),
            np.array([3, 1, 2**40, 0], dtype=np.uint64),
            np.array([0.5, -0.0, 1e300, 2.0], dtype=np.float64),
            np.array([0.1, 2.0, -3.5, 7.0], dtype=np.float32),
            np.array([True, False, True, True]),
        ],
        ids=["int64", "uint64", "float64", "float32", "bool"],
    )
    def test_numpy_columns_send_the_list_line(self, column):
        as_list = [value.item() for value in column]
        as_floats = [float(value) for value in column]
        numpy_line = run(_sent_line(column, column, column))
        assert numpy_line == run(_sent_line(as_list, as_floats, as_floats))
        # The same line as numpy scalars sent one by one.
        scalars = list(column)
        assert numpy_line == run(_sent_line(scalars, scalars, scalars))
        assert b'"update_batch"' in numpy_line

    def test_object_arrays_keep_the_label_domain_check(self):
        labels = np.array(["a", ("b", 1), None], dtype=object)
        assert run(_sent_line(labels)) == run(_sent_line(["a", ("b", 1), None]))
        with pytest.raises(SerializationError):
            run(_sent_line(np.array(["a", {"b": 1}], dtype=object)))
        with pytest.raises(SerializationError):
            run(_sent_line(np.array([1 + 2j, 3j])))
