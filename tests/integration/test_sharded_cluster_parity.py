"""The in-process and the clustered shard executors give the same answers.

:class:`~repro.distributed.sharded.ShardedSketch` and a key-sharded
session behind a :class:`~repro.cluster.ClusterRouter` split labels with
the same scatter (:func:`repro.distributed.partition.scatter_batch`) and
combine shard answers with the same functions.  With the same capacity,
shard count and seed, fed the same batches (each applied whole before the
next, as a flush after every batch guarantees), every read matches
exactly: point and bulk estimates, subset sums with their variance,
totals, ``top_k`` and ``heavy_hitters``.  Three label kinds drive the
three scatter paths: str labels, tuple labels (JSON arrays on the wire)
and int64 arrays (column frames, split by the array scatter).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cluster import ClusterRouter
from repro.distributed.sharded import ShardedSketch
from repro.serve import SketchServer, TCPServeClient

SPEC = "unbiased_space_saving"
CAPACITY = 16
SHARDS = 3
SEED = 7
BATCHES = 12
ROWS = 300


def _labels(kind, draws):
    if kind == "str":
        return [f"ad{value}" for value in draws.tolist()]
    if kind == "tuple":
        return [(f"adv{value % 7}", value) for value in draws.tolist()]
    return draws.astype(np.int64)


def _batches(kind):
    rng = np.random.default_rng(2018)
    batches = []
    for _ in range(BATCHES):
        draws = rng.zipf(1.3, size=ROWS) % 200
        weights = rng.uniform(0.5, 3.0, size=ROWS)
        batches.append(
            (_labels(kind, draws), weights if kind == "int64" else weights.tolist())
        )
    return batches


def _candidates(kind):
    labels = _labels(kind, np.arange(0, 200, 3))
    return labels.tolist() if kind == "int64" else labels


async def _cluster_reads(batches, candidates, probes):
    servers = [SketchServer() for _ in range(2)]
    members = []
    for index, server in enumerate(servers):
        host, port = await server.start_tcp("127.0.0.1", 0)
        members.append((f"m{index}", host, port))
    router = ClusterRouter(members, seed=11)
    host, port = await router.start_tcp("127.0.0.1", 0)
    client = await TCPServeClient.connect(host, port)
    try:
        await client.create("s", SPEC, size=CAPACITY, seed=SEED, shards=SHARDS)
        for items, weights in batches:
            await client.update_batch("s", items, weights)
            await client.flush("s")
        return {
            "estimate": [(await client.estimate("s", p)).estimate for p in probes],
            "estimates": await client.estimates("s"),
            "subset_sum": await client.subset_sum("s", candidates),
            "total": await client.total("s"),
            "top_k": list((await client.top_k("s", 10)).groups.items()),
            "heavy_hitters": list(
                (await client.heavy_hitters("s", 0.02)).groups.items()
            ),
        }
    finally:
        await client.close()
        await router.stop()
        for server in servers:
            await server.stop()


@pytest.mark.parametrize("kind", ["str", "tuple", "int64"])
def test_sharded_sketch_and_cluster_session_answer_alike(kind):
    batches = _batches(kind)
    candidates = _candidates(kind)
    sharded = ShardedSketch(CAPACITY, SHARDS, seed=SEED)
    for items, weights in batches:
        sharded.update_batch(items, weights)
    estimates = sharded.estimates()
    # Retained labels and labels the shards evicted or never saw.
    probes = list(estimates)[:5] + list(candidates)[-5:]

    got = asyncio.run(_cluster_reads(batches, candidates, probes))

    assert got["estimate"] == [sharded.estimate(label) for label in probes]
    assert got["estimates"] == estimates
    expected = sharded.subset_sum_with_error(set(candidates).__contains__)
    assert expected.variance > 0  # the shards really did evict
    assert got["subset_sum"] == expected
    assert got["total"].estimate == sharded.total_estimate()
    assert got["total"].variance == 0.0
    assert got["top_k"] == sharded.top_k(10)
    assert got["heavy_hitters"]
    assert got["heavy_hitters"] == list(sharded.heavy_hitters(0.02).items())
