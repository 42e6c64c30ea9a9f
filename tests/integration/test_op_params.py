"""Integration tests: query parameters and ``create`` fields on every front.

``top_k``'s ``k`` must be a non-negative integer (not a bool) and
``heavy_hitters``' ``phi`` a finite real in ``(0, 1]``; anything else
gets :class:`~repro.errors.InvalidParameterError` from the in-process
client, a bare TCP server and a router, for single and key-sharded
sessions alike.  A bare server ignores ``create(..., shards=k)``, which
only a router honours.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

from repro.cluster import ClusterRouter
from repro.errors import InvalidParameterError
from repro.serve import SketchServer, TCPServeClient

SPEC = "unbiased_space_saving"

BAD_K = [
    pytest.param("abc", id="str"),
    pytest.param(2.7, id="fraction"),
    pytest.param(2.0, id="float"),
    pytest.param(True, id="bool"),
    pytest.param(-1, id="negative"),
    pytest.param([3], id="array"),
]
BAD_PHI = [
    pytest.param("abc", id="str"),
    pytest.param(0, id="zero"),
    pytest.param(1.5, id="above-one"),
    pytest.param(-0.1, id="negative"),
    pytest.param(math.nan, id="nan"),
    pytest.param(math.inf, id="inf"),
    pytest.param(True, id="bool"),
]

FRONTS = ["in-process", "server", "router", "sharded-router"]


def run(coro):
    return asyncio.run(coro)


async def _front(kind):
    """``(client, endpoints)`` with session ``s`` holding a few rows."""
    if kind == "in-process":
        server = SketchServer()
        client, endpoints = server.client, [server]
    elif kind == "server":
        server = SketchServer()
        client = await TCPServeClient.connect(*await server.start_tcp("127.0.0.1", 0))
        endpoints = [server]
    else:
        servers, members = [], []
        for index in range(2):
            server = SketchServer()
            servers.append(server)
            members.append((f"m{index}", *await server.start_tcp("127.0.0.1", 0)))
        router = ClusterRouter(members, seed=3)
        client = await TCPServeClient.connect(*await router.start_tcp("127.0.0.1", 0))
        endpoints = [router, *servers]
    shards = 2 if kind == "sharded-router" else None
    await client.create("s", SPEC, size=16, seed=0, shards=shards)
    await client.update_batch("s", ["a", "b", "a", "c"])
    await client.flush("s")
    return client, endpoints


async def _close(client, endpoints):
    if isinstance(client, TCPServeClient):
        await client.close()
    for endpoint in endpoints:
        await endpoint.stop()


@pytest.mark.parametrize("front", FRONTS)
@pytest.mark.parametrize("k", BAD_K)
def test_bad_k_is_a_typed_error(front, k):
    async def scenario():
        client, endpoints = await _front(front)
        try:
            with pytest.raises(InvalidParameterError, match="'k'"):
                await client.top_k("s", k)
            assert (await client.top_k("s", 1)).groups == {"a": 2.0}
        finally:
            await _close(client, endpoints)

    run(scenario())


@pytest.mark.parametrize("front", FRONTS)
@pytest.mark.parametrize("phi", BAD_PHI)
def test_bad_phi_is_a_typed_error(front, phi):
    async def scenario():
        client, endpoints = await _front(front)
        try:
            with pytest.raises(InvalidParameterError, match="'phi'"):
                await client.heavy_hitters("s", phi)
            assert (await client.heavy_hitters("s", 0.5)).groups == {"a": 2.0}
        finally:
            await _close(client, endpoints)

    run(scenario())


@pytest.mark.parametrize("front", FRONTS)
def test_valid_parameters_and_defaults(front):
    async def scenario():
        client, endpoints = await _front(front)
        try:
            assert (await client.top_k("s", 0)).groups == {}
            assert len((await client.top_k("s", np.int64(2))).groups) == 2
            assert (await client.heavy_hitters("s", 1)).groups == {}
            assert (await client.heavy_hitters("s", np.float64(0.25))).groups == {
                "a": 2.0, "b": 1.0, "c": 1.0
            }
            # ``None`` reads as absent: the defaults (k=10, phi=0.01).
            assert len((await client.top_k("s", None)).groups) == 3
            assert len((await client.heavy_hitters("s", None)).groups) == 3
        finally:
            await _close(client, endpoints)

    run(scenario())


@pytest.mark.parametrize("front", ["in-process", "server"])
def test_a_bare_server_ignores_shards(front):
    async def scenario():
        client, endpoints = await _front(front)
        try:
            info = await client.create("t", SPEC, size=16, seed=0, shards=4)
            await client.update_batch("t", [1, 2, 1])
            assert await client.flush("t") == 3
            return info, (await client.top_k("t", 1)).groups
        finally:
            await _close(client, endpoints)

    info, top = run(scenario())
    assert info["backend"] == "inline"
    assert top == {1: 2.0}
