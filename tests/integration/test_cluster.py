"""Integration tests: multi-node cluster serving through the router.

Each test boots real :class:`~repro.serve.server.SketchServer` members on
ephemeral loopback ports behind a :class:`~repro.cluster.ClusterRouter`,
and drives them with an **unmodified**
:class:`~repro.serve.client.TCPServeClient` — the router speaks the same
JSON-lines protocol a single server does.  Covered: key-sharded
scatter-gather reads against an inline reference sketch (exact totals,
additive-variance agreement on subset sums, one typed refusal of bad
``subset_sum`` candidates on the router and a member alike),
checkpoint-based fail-over resuming **bit-identically** to an
uninterrupted run, the background health loop, and cluster
administration (cluster_info, routing errors).
"""

from __future__ import annotations

import asyncio
import json
import math

import numpy as np
import pytest

import repro
from repro.cluster import ClusterRouter
from repro.errors import (
    ClusterError,
    InvalidParameterError,
    MemberDownError,
    SerializationError,
    SessionNotFoundError,
)
from repro.serve import SketchServer, TCPServeClient
from repro.serve.checkpoint import MANIFEST_NAME, MANIFEST_VERSION
from repro.streams import chunk_stream


def run(coro):
    return asyncio.run(coro)


SPEC = "unbiased_space_saving"
RING_SEED = 11


class Cluster:
    """N servers + router + one TCP client, with one-call teardown."""

    def __init__(self, servers, router, client):
        self.servers = servers
        self.router = router
        self.client = client

    async def close(self):
        await self.client.close()
        await self.router.stop()
        for server in self.servers.values():
            await server.stop()


async def _cluster(root, *, n=3, **router_kwargs) -> Cluster:
    servers, members = {}, []
    for i in range(n):
        member_id = f"m{i}"
        server = SketchServer(
            checkpoint_dir=root / member_id, checkpoint_interval=3600.0
        )
        host, port = await server.start_tcp("127.0.0.1", 0)
        servers[member_id] = server
        members.append((member_id, host, port))
    router = ClusterRouter(
        members, shared_checkpoint_root=root, seed=RING_SEED, **router_kwargs
    )
    host, port = await router.start_tcp("127.0.0.1", 0)
    client = await TCPServeClient.connect(host, port)
    return Cluster(servers, router, client)


# ----------------------------------------------------------------------
# Key-sharded scatter-gather reads
# ----------------------------------------------------------------------
class TestShardedScatterGather:
    def test_sharded_reads_match_inline_within_additive_bound(
        self, tmp_path, batch_workload, batch_seed
    ):
        """Acceptance (a): cluster scatter-gather ≈ one inline sketch.

        Totals are preserved *exactly*; the subset sum agrees with the
        inline sketch within the paper's additive-variance bound (the
        per-shard variances sum — §4 applied across disjoint shards).
        """
        rows = [int(v) for v in batch_workload]
        chunks = chunk_stream(rows, 1000)
        candidates = list(range(40, 90))
        true_subset = float(sum(1 for row in rows if 40 <= row < 90))

        inline = repro.build(SPEC, size=32, seed=batch_seed)
        for chunk in chunks:
            inline.update_batch(chunk)
        inline_subset = inline.subset_sum(lambda item: 40 <= item < 90)

        async def scenario():
            cluster = await _cluster(tmp_path)
            client = cluster.client
            try:
                await client.create(
                    "clicks", SPEC, size=32, seed=batch_seed, shards=3
                )
                for chunk in chunks:
                    await client.update_batch("clicks", chunk)
                await client.flush("clicks")
                return {
                    "total": await client.total("clicks"),
                    "subset": await client.subset_sum("clicks", candidates),
                    "top": await client.top_k("clicks", 10),
                    "hh": await client.heavy_hitters("clicks", 0.02),
                    "estimates": await client.estimates("clicks"),
                }
            finally:
                await cluster.close()

        got = run(scenario())

        # Space Saving never loses mass, and the disjoint union sums the
        # per-shard totals: the global total is exact.
        assert got["total"].estimate == pytest.approx(float(len(rows)))

        # Additive-variance agreement: cluster and inline are independent
        # estimators of the same subset, so their difference is bounded
        # by the root of the *summed* variances.
        sigma = math.sqrt(
            got["subset"].variance + inline_subset.variance
        )
        assert got["subset"].variance > 0  # shards really did evict
        assert abs(got["subset"].estimate - inline_subset.estimate) <= 8 * sigma + 1
        assert abs(got["subset"].estimate - true_subset) <= (
            8 * math.sqrt(got["subset"].variance) + 1
        )

        # Frequent items: the head of the skewed stream survives sharding.
        from collections import Counter

        true_top = [item for item, _ in Counter(rows).most_common(3)]
        cluster_top = list(got["top"].groups)
        assert cluster_top[0] == true_top[0]
        assert set(true_top) <= set(cluster_top)
        assert set(got["hh"].groups) <= set(got["estimates"])

    def test_point_reads_come_from_the_owning_shard(self, tmp_path):
        """Disjoint shards: point estimate == the estimates() entry, and
        the estimates union carries every shard exactly once."""

        async def scenario():
            cluster = await _cluster(tmp_path)
            client = cluster.client
            try:
                await client.create("s", SPEC, size=64, seed=3, shards=3)
                rows = [f"ad{i % 23}" for i in range(600)]
                await client.update_batch("s", rows)
                await client.flush("s")
                estimates = await client.estimates("s")
                points = {
                    item: (await client.estimate("s", item)).estimate
                    for item in list(estimates)[:8]
                }
                total = await client.total("s")
                return estimates, points, total
            finally:
                await cluster.close()

        estimates, points, total = run(scenario())
        assert len(estimates) == 23  # capacity 64/shard: nothing evicted
        assert sum(estimates.values()) == pytest.approx(600.0)
        assert total.estimate == pytest.approx(600.0)
        for item, value in points.items():
            assert value == estimates[item]

    @pytest.mark.parametrize("columns", [False, True], ids=["json", "columns"])
    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_weight_refuses_the_whole_sharded_batch(self, tmp_path, bad, columns):
        """A weight a shard would refuse is refused at the router, before
        any shard's slice is sent: no member enqueues a row."""

        async def scenario():
            cluster = await _cluster(tmp_path, n=2)
            client = cluster.client
            try:
                await client.create("s", SPEC, size=16, seed=3, shards=4)
                await client.update_batch("s", ["warm"], [2.0])
                await client.flush("s")
                before = (await client.total("s")).estimate
                items = [f"k{i}" for i in range(12)]
                weights = [bad] + [1.0] * 11
                if columns:  # int labels travel as a binary column frame
                    items, weights = np.arange(12), np.array(weights)
                with pytest.raises(InvalidParameterError, match="weights"):
                    await client.update_batch("s", items, weights)
                await client.flush("s")
                enqueued = sum(
                    served.stats.rows_enqueued
                    for server in cluster.servers.values()
                    for served in server.registry
                )
                return before, (await client.total("s")).estimate, enqueued
            finally:
                await cluster.close()

        before, after, enqueued = run(scenario())
        assert before == after == 2.0
        assert enqueued == 1

    def test_tuple_labels_survive_scatter_and_gather(self, tmp_path):
        async def scenario():
            cluster = await _cluster(tmp_path)
            client = cluster.client
            try:
                await client.create("pairs", SPEC, size=32, seed=1, shards=2)
                rows = [("site", i % 5) for i in range(100)]
                await client.update_batch("pairs", rows)
                await client.flush("pairs")
                return await client.estimates("pairs")
            finally:
                await cluster.close()

        estimates = run(scenario())
        assert set(estimates) == {("site", i) for i in range(5)}
        assert sum(estimates.values()) == pytest.approx(100.0)

    def test_single_session_forwards_bit_exactly(self, tmp_path, batch_seed):
        """An unsharded session through the router == a local session."""
        rows = [i % 97 for i in range(4000)]
        chunks = chunk_stream(rows, 500)
        local = repro.build(SPEC, size=48, seed=batch_seed)
        for chunk in chunks:
            local.update_batch(chunk)

        async def scenario():
            cluster = await _cluster(tmp_path)
            client = cluster.client
            try:
                await client.create("solo", SPEC, size=48, seed=batch_seed)
                for chunk in chunks:
                    await client.update_batch("solo", chunk)
                    await client.flush("solo")
                return await client.estimates("solo")
            finally:
                await cluster.close()

        assert run(scenario()) == local.estimates()

    @pytest.mark.parametrize(
        "candidates, error",
        [
            ("abc", InvalidParameterError),
            (None, InvalidParameterError),
            ([{"a": 1}], SerializationError),
        ],
        ids=["string", "null", "object-label"],
    )
    def test_bad_candidates_get_one_typed_error_on_both_fronts(
        self, tmp_path, candidates, error
    ):
        """The router and a bare member run one ``candidates`` check."""

        async def scenario():
            cluster = await _cluster(tmp_path, n=2)
            member = await TCPServeClient.connect(*cluster.servers["m0"].address)
            try:
                await cluster.client.create("sharded", SPEC, size=8, seed=1, shards=2)
                await cluster.client.create("single", SPEC, size=8, seed=1)
                await member.create("bare", SPEC, size=8, seed=1)
                refusals = []
                for client, name in (
                    (cluster.client, "sharded"),
                    (cluster.client, "single"),
                    (member, "bare"),
                ):
                    await client.update_batch(name, ["a", "b", "a"])
                    await client.flush(name)
                    with pytest.raises(error) as caught:
                        await client.request(
                            "subset_sum", session=name, candidates=candidates
                        )
                    refusals.append((type(caught.value), str(caught.value)))
                    # The connection still serves, and nothing changed.
                    assert (await client.subset_sum(name, ["a"])).estimate == 2.0
                return refusals
            finally:
                await member.close()
                await cluster.close()

        refusals = run(scenario())
        assert len(set(refusals)) == 1, refusals
        assert refusals[0][0] is error


# ----------------------------------------------------------------------
# Fail-over
# ----------------------------------------------------------------------
class TestFailover:
    @staticmethod
    async def _stream(root, chunks, candidates, *, kill_after=None):
        """Drive one cluster run; optionally kill a shard owner mid-stream."""
        cluster = await _cluster(root)
        client = cluster.client
        try:
            await client.create("clicks", SPEC, size=32, seed=7, shards=3)
            for index, chunk in enumerate(chunks):
                await client.update_batch("clicks", chunk)
                await client.flush("clicks")
                if kill_after is not None and index == kill_after:
                    await client.checkpoint()
                    info = await client.request("cluster_info")
                    route = info["cluster"]["sessions"][0]
                    victim = route["members"][0]  # owns shard 0 by construction
                    await cluster.servers[victim].stop()
            info = await client.request("cluster_info")
            return {
                "estimates": await client.estimates("clicks"),
                "total": (await client.total("clicks")).estimate,
                "subset": (await client.subset_sum("clicks", candidates)).estimate,
                "top": list((await client.top_k("clicks", 10)).groups.items()),
                "failovers": info["cluster"]["failovers"],
            }
        finally:
            await cluster.close()

    def test_failover_resumes_bit_identical(self, tmp_path, batch_workload):
        """Acceptance (b): kill a member mid-stream; answers match an
        uninterrupted run bit-for-bit.

        The killed member's shard resumes from its checkpoint — the
        serialized frame carries the RNG state, so the rehydrated sketch
        continues the stream exactly where the original would have.
        """
        rows = [int(v) for v in batch_workload]
        chunks = chunk_stream(rows, 1000)
        candidates = list(range(0, 50))

        interrupted = run(
            self._stream(tmp_path / "a", chunks, candidates, kill_after=3)
        )
        uninterrupted = run(self._stream(tmp_path / "b", chunks, candidates))

        assert interrupted["failovers"] == 1
        assert uninterrupted["failovers"] == 0
        assert interrupted["estimates"] == uninterrupted["estimates"]
        assert interrupted["total"] == uninterrupted["total"]
        assert interrupted["subset"] == uninterrupted["subset"]
        assert interrupted["top"] == uninterrupted["top"]

    def test_failover_remaps_routes_and_keeps_totals_exact(self, tmp_path):
        async def scenario():
            cluster = await _cluster(tmp_path)
            client = cluster.client
            try:
                await client.create("s", SPEC, size=64, seed=5, shards=3)
                await client.update_batch("s", [f"x{i % 11}" for i in range(900)])
                await client.flush("s")
                await client.checkpoint()
                info = await client.request("cluster_info")
                victim = info["cluster"]["sessions"][0]["members"][0]
                await cluster.servers[victim].stop()
                # Next read fails over inline and still answers exactly.
                total = await client.total("s")
                after = await client.request("cluster_info")
                # Ingest keeps working on the survivors.
                await client.update_batch("s", ["x0"] * 100)
                await client.flush("s")
                total2 = await client.total("s")
                return victim, total, after, total2
            finally:
                await cluster.close()

        victim, total, after, total2 = run(scenario())
        assert total.estimate == pytest.approx(900.0)
        assert total2.estimate == pytest.approx(1000.0)
        members = {m["member_id"]: m for m in after["cluster"]["members"]}
        assert members[victim]["healthy"] is False
        route = after["cluster"]["sessions"][0]
        assert victim not in route["members"]
        assert after["cluster"]["failovers"] == 1

    def test_health_loop_detects_a_dead_member(self, tmp_path):
        async def scenario():
            cluster = await _cluster(
                tmp_path, health_interval=0.05, health_failures=2
            )
            client = cluster.client
            try:
                await client.create("s", SPEC, size=64, seed=5, shards=3)
                await client.update_batch("s", [f"x{i % 7}" for i in range(700)])
                await client.flush("s")
                await client.checkpoint()
                info = await client.request("cluster_info")
                victim = info["cluster"]["sessions"][0]["members"][0]
                await cluster.servers[victim].stop()
                # The background loop — not a client op — must notice.
                for _ in range(200):
                    await asyncio.sleep(0.05)
                    state = await client.request("cluster_info")
                    members = {
                        m["member_id"]: m for m in state["cluster"]["members"]
                    }
                    if not members[victim]["healthy"]:
                        break
                else:
                    raise AssertionError("health loop never failed the member over")
                total = await client.total("s")
                return state, victim, total
            finally:
                await cluster.close()

        state, victim, total = run(scenario())
        assert state["cluster"]["failovers"] == 1
        assert victim not in state["cluster"]["sessions"][0]["members"]
        assert total.estimate == pytest.approx(700.0)

    def test_failover_without_checkpoint_is_a_typed_error(self, tmp_path):
        async def scenario():
            cluster = await _cluster(tmp_path)
            client = cluster.client
            try:
                await client.create("s", SPEC, size=16, seed=1, shards=3)
                await client.update_batch("s", list(range(50)))
                await client.flush("s")
                info = await client.request("cluster_info")
                victim = info["cluster"]["sessions"][0]["members"][0]
                # Simulate a hard crash before any checkpoint: disable the
                # victim's checkpointer (a graceful stop would write a
                # final manifest and defeat the premise), then stop it.
                cluster.servers[victim]._checkpointer = None
                await cluster.servers[victim].stop()
                with pytest.raises((MemberDownError, ClusterError)):
                    await client.total("s")
            finally:
                await cluster.close()

        run(scenario())

    def test_failover_refuses_a_newer_manifest_and_adopts_nothing(self, tmp_path):
        async def scenario():
            cluster = await _cluster(tmp_path)
            client = cluster.client
            try:
                await client.create("s", SPEC, size=16, seed=1, shards=3)
                await client.update_batch("s", list(range(50)))
                await client.flush("s")
                await client.checkpoint()
                info = await client.request("cluster_info")
                before = info["cluster"]["sessions"][0]["members"]
                victim = before[0]
                # Keep the stop from rewriting the manifest, then mark it
                # as written by a newer library.
                cluster.servers[victim]._checkpointer = None
                await cluster.servers[victim].stop()
                manifest_path = tmp_path / victim / MANIFEST_NAME
                manifest = json.loads(manifest_path.read_text())
                manifest["version"] = MANIFEST_VERSION + 1
                manifest_path.write_text(json.dumps(manifest))
                hosted = {
                    member_id: len(server.registry)
                    for member_id, server in cluster.servers.items()
                    if member_id != victim
                }
                with pytest.raises(SerializationError, match="newer"):
                    await cluster.router.fail_over(victim)
                after = (await client.request("cluster_info"))["cluster"]
                assert after["sessions"][0]["members"] == before
                assert after["sessions_rehydrated"] == 0
                assert hosted == {
                    member_id: len(cluster.servers[member_id].registry)
                    for member_id in hosted
                }
            finally:
                await cluster.close()

        run(scenario())


# ----------------------------------------------------------------------
# Administration and routing errors
# ----------------------------------------------------------------------
class TestClusterAdmin:
    def test_cluster_info_and_lifecycle(self, tmp_path):
        async def scenario():
            cluster = await _cluster(tmp_path)
            client = cluster.client
            try:
                pong = await client.ping()
                assert pong["members"] == {"total": 3, "alive": 3}

                await client.create("a", SPEC, size=16, seed=1)
                await client.create("b", SPEC, size=16, seed=1, shards=2)
                info = await client.request("cluster_info")
                sessions = {s["name"]: s for s in info["cluster"]["sessions"]}
                assert sessions["a"]["shards"] is None
                assert sessions["b"]["shards"] == 2
                assert len(sessions["b"]["members"]) == 2
                assert info["cluster"]["ring"] == {"replicas": 64, "seed": RING_SEED}

                listed = await client.list_sessions()
                assert sorted(s["name"] for s in listed) == ["a", "b"]

                described = await client.info("b")
                assert described["cluster"]["shards"] == 2

                with pytest.raises(InvalidParameterError):
                    await client.create("b", SPEC, size=16)

                await client.drop("b")
                with pytest.raises(SessionNotFoundError):
                    await client.total("b")
                # The member-side shard names are gone too: recreate works.
                await client.create("b", SPEC, size=16, seed=1, shards=2)
            finally:
                await cluster.close()

        run(scenario())

    def test_retired_parallel_backend_creates_nothing(self, tmp_path):
        """Server and router both refuse ``backend: "parallel"`` with a
        typed error envelope, and no session appears anywhere."""

        async def scenario():
            cluster = await _cluster(tmp_path, n=2)
            member = cluster.servers["m0"]
            direct = await TCPServeClient.connect(*member.address)
            try:
                for client, shards in ((direct, None), (cluster.client, None),
                                       (cluster.client, 2)):
                    with pytest.raises(InvalidParameterError, match="parallel"):
                        await client.request(
                            "create", session="p", spec=SPEC, size=16,
                            backend="parallel", shards=shards,
                        )
                    assert await client.list_sessions() == []
                for server in cluster.servers.values():
                    assert list(server.registry) == []
                # Both connections survived, and the name is still free.
                await cluster.client.create("p", SPEC, size=16, shards=2)
                await direct.create("p", SPEC, size=16, backend="sharded")
            finally:
                await direct.close()
                await cluster.close()

        run(scenario())

    def test_metrics_aggregates_members(self, tmp_path):
        async def scenario():
            cluster = await _cluster(tmp_path)
            client = cluster.client
            try:
                await client.create("s", SPEC, size=16, seed=1, shards=3)
                await client.update_batch("s", list(range(100)))
                await client.flush("s")
                metrics = await client.metrics()
                assert metrics["cluster"]["members_alive"] == 3
                assert metrics["cluster"]["sessions"] == 1
                applied = sum(
                    member["ingest"]["rows_applied"]
                    for member in metrics["members"].values()
                )
                assert applied == 100
            finally:
                await cluster.close()

        run(scenario())
