"""The in-process and the clustered shard executors give the same answers.

:class:`~repro.distributed.sharded.ShardedSketch` and a key-sharded
session behind a :class:`~repro.cluster.ClusterRouter` split labels with
the same scatter (:func:`repro.distributed.partition.scatter_batch`) and
run every read from the same plan
(:func:`repro.distributed.partition.read_plan`).  With the same capacity,
shard count and seed, fed the same batches (each applied whole before the
next, as a flush after every batch guarantees), every read matches
exactly: point and bulk estimates, subset sums with their variance,
totals, ``top_k`` and ``heavy_hitters``.  Three label kinds drive the
three scatter paths: str labels, tuple labels (JSON arrays on the wire)
and int64 arrays (column frames, split by the array scatter).

Three paths answer: a sharded :class:`~repro.api.StreamSession`, a
served ``backend="sharded"`` session, and the router.  A read that names
labels asks only the shards that own them, on every path, so point reads
and subset sums carry only the owning shards' variance: a candidate list
held by one shard, an empty list (0 ± 0) and each point read, which
equals the subset sum over its one label.  numpy scalar probes and a
numpy candidate array read as the Python labels they equal.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro
from repro.cluster import ClusterRouter
from repro.core.variance import EstimateWithError
from repro.distributed.sharded import ShardedSketch
from repro.serve import ServeClient, SketchServer, TCPServeClient

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


def _one_shard(sharded, candidates):
    """The candidates that the first candidate's shard owns."""
    owner = sharded.shard_index(candidates[0])
    return [label for label in candidates if sharded.shard_index(label) == owner]


async def _reads(client, name, lists, probes):
    """Every read of one path, as normalized values."""
    return {
        "estimate": [await client.estimate(name, p) for p in probes],
        "singleton": [await client.subset_sum(name, [p]) for p in probes],
        "estimates": await client.estimates(name),
        "subset_sum": [await client.subset_sum(name, labels) for labels in lists],
        "total": await client.total(name),
        "top_k": list((await client.top_k(name, 10)).groups.items()),
        "heavy_hitters": list((await client.heavy_hitters(name, 0.02)).groups.items()),
    }


def _session_reads(batches, lists, probes):
    session = repro.build(
        SPEC, size=CAPACITY, backend="sharded", num_shards=SHARDS, seed=SEED
    )
    for items, weights in batches:
        session.update_batch(items, weights)
    return {
        "estimate": [session.estimate(p) for p in probes],
        "singleton": [session.subset_sum(frozenset((p,)).__contains__) for p in probes],
        "estimates": session.estimates(),
        "subset_sum": [session.subset_sum(set(labels).__contains__) for labels in lists],
        "total": session.total(),
        "top_k": list(session.top_k(10).groups.items()),
        "heavy_hitters": list(session.heavy_hitters(0.02).groups.items()),
    }


async def _served_reads(batches, lists, probes):
    server = SketchServer()
    client = ServeClient(server)
    try:
        await client.create(
            "s", SPEC, size=CAPACITY, seed=SEED, backend="sharded", num_shards=SHARDS
        )
        for items, weights in batches:
            await client.update_batch("s", items, weights)
            await client.flush("s")
        return await _reads(client, "s", lists, probes)
    finally:
        await server.stop()


async def _cluster_reads(batches, lists, probes):
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
        return await _reads(client, "s", lists, probes)
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
    one_shard = _one_shard(sharded, candidates)
    lists = [candidates, one_shard, []]
    if kind != "tuple":
        # numpy scalars (np.int64, np.str_) are labels too: a probe and a
        # candidate array read as their Python twins.
        probes += list(np.asarray(probes[:3] + probes[-2:]))
        lists.append(np.asarray(one_shard))

    got = asyncio.run(_cluster_reads(batches, lists, probes))

    assert [e.estimate for e in got["estimate"]] == [
        sharded.estimate(label) for label in probes
    ]
    assert got["estimates"] == estimates
    expected = sharded.subset_sum_with_error(set(candidates).__contains__)
    assert expected.variance > 0  # the shards really did evict
    assert got["subset_sum"][0] == expected
    assert got["total"].estimate == sharded.total_estimate()
    assert got["total"].variance == 0.0
    assert got["top_k"] == sharded.top_k(10)
    assert got["heavy_hitters"]
    assert got["heavy_hitters"] == list(sharded.heavy_hitters(0.02).items())

    # The owner rule: a one-shard list carries that shard's variance only,
    # and an empty list asks no shard.
    owner = sharded.shards[sharded.shard_index(one_shard[0])]
    assert 1 < len(one_shard) < len(candidates)
    assert got["subset_sum"][1] == owner.subset_sum_with_error(set(one_shard).__contains__)
    assert got["subset_sum"][2] == EstimateWithError(estimate=0.0, variance=0.0)
    assert got["subset_sum"][3:] in ([], [got["subset_sum"][1]])
    assert got["estimate"][10:] in ([], got["estimate"][:3] + got["estimate"][8:10])
    for label, point in zip(probes, got["estimate"]):
        shard = sharded.shard_for(label)
        assert point == shard.subset_sum_with_error(frozenset((label,)).__contains__)

    # Every path answers every read alike, variances included, and a
    # point read is the subset sum over its one label.
    paths = {
        "session": _session_reads(batches, lists, probes),
        "served": asyncio.run(_served_reads(batches, lists, probes)),
        "cluster": got,
    }
    for path, reads in paths.items():
        assert reads["singleton"] == reads["estimate"], path
        assert reads == got, path
