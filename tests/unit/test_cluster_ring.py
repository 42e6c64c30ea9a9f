"""Unit tests for the cluster tier's pure parts.

The consistent-hash ring (stability, determinism, balance, preference
order), the membership/liveness layer above it — including live
membership change (epochs, add/remove, ``ring_delta``) — the
shard-session math (scatter partitioning, the unbiased gather-merge,
ranking), the per-slot migration gates, and the ``join``/``decommission``
wire-op request validation.  All pure functions or in-process asyncio;
no sockets.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster import (
    ClusterMembership,
    ClusterRouter,
    HashRing,
    Member,
    SessionRoute,
    merge_shard_states,
    ranked_pairs,
    ring_delta,
    scatter_batch,
)
from repro.distributed.partition import stable_hash_64, stable_shard
from repro.errors import ClusterError, InvalidParameterError

KEYS = [("default", f"session-{i}") for i in range(10_000)]


# ----------------------------------------------------------------------
# HashRing
# ----------------------------------------------------------------------
class TestHashRing:
    def test_owner_is_deterministic_across_rebuilds(self):
        """Routing must survive router restarts: same inputs, same ring."""
        ring_a = HashRing(["m0", "m1", "m2"], seed=7)
        ring_b = HashRing(["m2", "m0", "m1"], seed=7)  # order must not matter
        assert [ring_a.owner(key) for key in KEYS[:500]] == [
            ring_b.owner(key) for key in KEYS[:500]
        ]

    def test_different_seed_routes_differently(self):
        ring_a = HashRing(["m0", "m1", "m2"], seed=0)
        ring_b = HashRing(["m0", "m1", "m2"], seed=1)
        assert any(
            ring_a.owner(key) != ring_b.owner(key) for key in KEYS[:200]
        )

    def test_adding_a_member_moves_few_keys_and_only_to_it(self):
        """Consistent hashing's whole point: growth moves ≈ K/(N+1) keys."""
        before = HashRing(["m0", "m1", "m2", "m3"])
        after = HashRing(["m0", "m1", "m2", "m3", "m4"])
        moved = [
            key for key in KEYS if before.owner(key) != after.owner(key)
        ]
        # Expectation is K/5 = 2000; allow generous slack for hash noise.
        assert len(moved) <= 0.35 * len(KEYS)
        # Every moved key moved TO the new member, never between old ones.
        assert all(after.owner(key) == "m4" for key in moved)

    def test_removing_a_member_moves_only_its_keys(self):
        before = HashRing(["m0", "m1", "m2", "m3", "m4"])
        after = HashRing(["m0", "m1", "m2", "m3"])
        for key in KEYS[:2000]:
            if before.owner(key) != "m4":
                assert after.owner(key) == before.owner(key)

    def test_load_is_roughly_balanced(self):
        ring = HashRing(["m0", "m1", "m2", "m3"])
        counts = {member: 0 for member in ring.members}
        for key in KEYS:
            counts[ring.owner(key)] += 1
        share = 1 / len(counts)
        for member, count in counts.items():
            assert 0.5 * share <= count / len(KEYS) <= 1.7 * share, (
                member,
                counts,
            )

    def test_preference_starts_at_owner_and_covers_all_members(self):
        ring = HashRing(["m0", "m1", "m2"])
        for key in KEYS[:100]:
            order = ring.preference(key)
            assert order[0] == ring.owner(key)
            assert sorted(order) == ["m0", "m1", "m2"]
        assert len(ring.preference(KEYS[0], n=2)) == 2

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            HashRing([])
        with pytest.raises(InvalidParameterError):
            HashRing(["m0"], replicas=0)


# ----------------------------------------------------------------------
# ClusterMembership
# ----------------------------------------------------------------------
class TestClusterMembership:
    def _membership(self):
        return ClusterMembership(
            [("m0", "127.0.0.1", 1), ("m1", "127.0.0.1", 2), ("m2", "127.0.0.1", 3)]
        )

    def test_route_skips_members_marked_down(self):
        membership = self._membership()
        key = ("default", "clicks")
        first = membership.route(key).member_id
        membership.mark_down(first)
        second = membership.route(key).member_id
        assert second != first
        # Succession follows ring preference order exactly.
        preference = membership.ring.preference(key)
        assert second == next(m for m in preference if m != first)
        # Recovery restores the original owner.
        membership.mark_up(first)
        assert membership.route(key).member_id == first

    def test_all_members_down_raises(self):
        membership = self._membership()
        for member in membership.members():
            membership.mark_down(member.member_id)
        with pytest.raises(ClusterError):
            membership.route(("default", "clicks"))

    def test_duplicate_member_ids_rejected(self):
        with pytest.raises(InvalidParameterError):
            ClusterMembership([("m0", "h", 1), ("m0", "h", 2)])

    def test_accepts_member_objects(self):
        membership = ClusterMembership([Member("m0", "127.0.0.1", 9)])
        assert membership.get("m0").port == 9
        with pytest.raises(ClusterError):
            membership.get("nope")


# ----------------------------------------------------------------------
# Golden placement: label hashes, shard indices and ring owners are part
# of every persisted cluster layout, so they must never drift.
# ----------------------------------------------------------------------
GOLDEN_LABELS = [
    0, 1, 1.0, True, None, -0.0, 0.0, "ad1", "", "é", 12345678901234567890,
    2.5, ("ads", "clicks"), (1, ("a", None)), (),
]
GOLDEN_HASHES = {
    0: [
        14780026797352252294, 13023464190936678762, 14112788809735234310,
        6642783930405202930, 10383637831379799427, 18337499228611523371,
        15225915708106785005, 7637014787574672639, 8617314766712860819,
        8267574197842064359, 17114781643531705949, 13108207371932593900,
        10248248627560121140, 3319850268172117103, 2300707079068865448,
    ],
    2: [
        4785763868307444063, 14325386013059409168, 2448416109770719244,
        16874987497680980774, 13631016196591114417, 1372114270697127535,
        13812298670774208666, 15860405409250581423, 11706368276022546460,
        12259766695997670670, 9123019438857345286, 10734591815431597258,
        8311474810570056951, 5296403328692628666, 16710165845789966698,
    ],
}
GOLDEN_SHARDS_OF_7 = {
    0: [5, 3, 6, 0, 0, 5, 2, 6, 2, 2, 4, 0, 4, 4, 2],
    2: [6, 6, 2, 1, 5, 4, 5, 6, 5, 2, 6, 5, 0, 3, 1],
}


class TestGoldenPlacement:
    @pytest.mark.parametrize("seed", [0, 2])
    def test_stable_hash_and_shard_values(self, seed):
        assert [stable_hash_64(label, seed=seed) for label in GOLDEN_LABELS] == (
            GOLDEN_HASHES[seed]
        )
        assert [stable_shard(label, 7, seed=seed) for label in GOLDEN_LABELS] == (
            GOLDEN_SHARDS_OF_7[seed]
        )

    def test_ring_owners(self):
        ring = HashRing(["m0", "m1", "m2"], seed=7)
        keys = [("default", f"s@shard{i}") for i in range(8)] + [("ads", "clicks")]
        assert [ring.owner(key) for key in keys] == [
            "m2", "m1", "m2", "m2", "m0", "m2", "m2", "m2", "m0",
        ]
        assert ring.preference(("ads", "clicks")) == ["m0", "m1", "m2"]
        ring = HashRing(["m0", "m1", "m2", "m3"], replicas=16, seed=0)
        assert [ring.owner(("t", f"k{i}")) for i in range(12)] == [
            "m3", "m1", "m1", "m1", "m1", "m1", "m2", "m1", "m1", "m2", "m2", "m3",
        ]


# ----------------------------------------------------------------------
# Scatter / gather math
# ----------------------------------------------------------------------
class TestScatterBatch:
    def test_partition_matches_stable_shard_and_keeps_order(self):
        items = [f"ad{i % 17}" for i in range(300)]
        weights = [float(i) for i in range(300)]
        ts = [0.5 * i for i in range(300)]
        slices = scatter_batch(items, weights, ts, 4, seed=3)
        rebuilt = []
        for shard, (s_items, s_weights, s_ts) in enumerate(slices):
            assert len(s_items) == len(s_weights) == len(s_ts)
            for item in s_items:
                assert stable_shard(item, 4, seed=3) == shard
            rebuilt.extend(zip(s_items, s_weights, s_ts))
        # No row lost or duplicated; within-shard order preserved by zip
        # alignment (weights/timestamps still attached to their item).
        assert sorted(rebuilt, key=lambda row: row[1]) == list(
            zip(items, weights, ts)
        )

    def test_optional_columns_stay_none(self):
        slices = scatter_batch(["a", "b"], None, None, 2)
        assert all(w is None and t is None for _, w, t in slices)

    def test_misaligned_columns_rejected(self):
        with pytest.raises(InvalidParameterError):
            scatter_batch(["a"], [1.0, 2.0], None, 2)
        with pytest.raises(InvalidParameterError):
            scatter_batch(["a"], None, [1.0, 2.0], 2)
        with pytest.raises(InvalidParameterError):
            scatter_batch(["a"], None, None, 0)


class TestGatherMerge:
    def test_merge_is_exact_disjoint_union(self):
        """capacity = union size ⇒ the unbiased reduction is the identity."""
        shard_states = [
            ({"a": 5.0, "b": 3.0}, 8.0),
            ({"c": 2.5}, 2.5),
            ({}, 0.0),  # empty shard must not break the merge
        ]
        merged = merge_shard_states(shard_states)
        assert merged.estimates() == {"a": 5.0, "b": 3.0, "c": 2.5}
        assert merged.total_weight == 10.5

    def test_ranked_pairs_orders_like_the_query_layer(self):
        merged = merge_shard_states([({"b": 2.0, "a": 2.0, "c": 5.0}, 9.0)])
        assert ranked_pairs(merged) == [("c", 5.0), ("a", 2.0), ("b", 2.0)]
        assert ranked_pairs(merged, k=1) == [("c", 5.0)]
        assert ranked_pairs(merged, threshold=3.0) == [("c", 5.0)]

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidParameterError):
            merge_shard_states([])


# ----------------------------------------------------------------------
# SessionRoute
# ----------------------------------------------------------------------
class TestSessionRoute:
    def test_single_route_has_one_slot(self):
        route = SessionRoute(tenant="t", name="s", members=["m0"])
        assert not route.sharded
        assert route.wire_name() == "s"
        assert route.shard_of("anything") == 0
        assert route.slots() == [(0, "s", "m0")]

    def test_sharded_route_names_and_hashing(self):
        route = SessionRoute(
            tenant="t", name="s", members=["m0", "m1", "m2"], shards=3, seed=5
        )
        assert [name for _, name, _ in route.slots()] == [
            "s@shard0",
            "s@shard1",
            "s@shard2",
        ]
        for item in ("a", "b", ("pair", 1), 42):
            assert route.shard_of(item) == stable_shard(item, 3, seed=5)
        assert route.ring_key(1) == ("t", "s@shard1")

    def test_slot_count_must_match_shards(self):
        with pytest.raises(InvalidParameterError):
            SessionRoute(tenant="t", name="s", members=["m0"], shards=2)
        with pytest.raises(InvalidParameterError):
            SessionRoute(tenant="t", name="s", members=["m0", "m1"])


# ----------------------------------------------------------------------
# Elastic membership: epochs, add/remove, ring_delta
# ----------------------------------------------------------------------
class TestMembershipElasticity:
    def _membership(self):
        return ClusterMembership(
            [("m0", "127.0.0.1", 1), ("m1", "127.0.0.1", 2), ("m2", "127.0.0.1", 3)]
        )

    def test_epoch_counts_membership_changes_only(self):
        """add/remove open a new ring generation; liveness flips do not."""
        membership = self._membership()
        assert membership.epoch == 0
        membership.mark_down("m1")
        membership.mark_up("m1")
        assert membership.epoch == 0  # liveness is within-generation
        membership.add_member(("m3", "127.0.0.1", 4))
        assert membership.epoch == 1
        membership.remove_member("m3")
        assert membership.epoch == 2

    def test_add_member_joins_healthy_and_owns_ring_arcs(self):
        membership = self._membership()
        membership.add_member(Member("m3", "127.0.0.1", 4))
        assert membership.get("m3").healthy
        owners = {membership.route(key).member_id for key in KEYS[:2000]}
        assert "m3" in owners  # the newcomer actually claims arcs

    def test_add_duplicate_member_rejected_without_epoch_bump(self):
        membership = self._membership()
        with pytest.raises(InvalidParameterError):
            membership.add_member(("m1", "127.0.0.1", 9))
        assert membership.epoch == 0

    def test_remove_member_hands_arcs_to_successors(self):
        membership = self._membership()
        before = {key: membership.route(key).member_id for key in KEYS[:1000]}
        membership.remove_member("m2")
        for key, old_owner in before.items():
            new_owner = membership.route(key).member_id
            assert new_owner != "m2"
            if old_owner != "m2":
                assert new_owner == old_owner  # survivors keep their keys

    def test_remove_guards(self):
        membership = ClusterMembership([("m0", "h", 1)])
        with pytest.raises(ClusterError):
            membership.remove_member("nope")  # unknown member
        with pytest.raises(ClusterError):
            membership.remove_member("m0")  # the last member

    def test_ring_delta_reports_exactly_the_moved_keys(self):
        before = HashRing(["m0", "m1", "m2"], seed=4)
        after = HashRing(["m0", "m1", "m2", "m3"], seed=4)
        sample = KEYS[:3000]
        delta = ring_delta(before, after, sample)
        assert delta  # a join always claims something at this sample size
        for key, (old_owner, new_owner) in delta.items():
            assert (old_owner, new_owner) == (before.owner(key), after.owner(key))
            assert new_owner == "m3"  # join movement only targets the joiner
        for key in sample:
            if key not in delta:
                assert before.owner(key) == after.owner(key)

    def test_ring_delta_of_identical_rings_is_empty(self):
        ring = HashRing(["m0", "m1"], seed=2)
        same = HashRing(["m1", "m0"], seed=2)  # order must not matter
        assert ring_delta(ring, same, KEYS[:500]) == {}


# ----------------------------------------------------------------------
# SessionRoute migration gates
# ----------------------------------------------------------------------
class TestSessionRouteGates:
    def _route(self):
        return SessionRoute(
            tenant="t", name="s", members=["m0", "m1", "m2"], shards=3
        )

    def test_pause_resume_cycle(self):
        route = self._route()
        assert not route.migrating(0)
        route.pause(0)
        assert route.migrating(0)
        assert not route.migrating(1)  # gates are per-slot
        route.resume(0)
        assert not route.migrating(0)

    def test_resume_without_pause_is_a_no_op(self):
        route = self._route()
        route.resume(1)
        assert not route.migrating(1)

    def test_wait_ready_parks_until_resume(self):
        async def scenario():
            route = self._route()
            route.pause(2)
            waiter = asyncio.ensure_future(route.wait_ready(2))
            await asyncio.sleep(0.01)
            assert not waiter.done()  # parked on the gate
            route.resume(2)
            await asyncio.wait_for(waiter, timeout=1.0)
            # Unpaused slots never block.
            await asyncio.wait_for(route.wait_ready(0), timeout=1.0)

        asyncio.run(scenario())

    def test_describe_exposes_epoch_and_migrating_slots(self):
        route = self._route()
        description = route.describe()
        assert description["epoch"] == 0
        assert description["migrating"] == []
        route.pause(1)
        route.epoch += 1
        description = route.describe()
        assert description["epoch"] == 1
        assert description["migrating"] == [1]


# ----------------------------------------------------------------------
# join / decommission wire-op request validation (no sockets: every
# rejection below happens before the router would touch the network)
# ----------------------------------------------------------------------
class TestJoinDecommissionValidation:
    def _router(self, n=3):
        return ClusterRouter(
            [(f"m{i}", "127.0.0.1", 40_000 + i) for i in range(n)]
        )

    def test_join_rejects_malformed_arguments(self):
        router = self._router()

        async def scenario():
            for member_id, host, port in [
                ("", "127.0.0.1", 4000),  # empty member id
                (None, "127.0.0.1", 4000),  # missing member id
                ("m9", "", 4000),  # empty host
                ("m9", "127.0.0.1", 0),  # port below the TCP range
                ("m9", "127.0.0.1", 65_536),  # port above the TCP range
                ("m9", "127.0.0.1", "4000"),  # stringly-typed port
                ("m9", "127.0.0.1", True),  # bool is not a port
            ]:
                with pytest.raises(InvalidParameterError):
                    await router.join(member_id, host, port)

        asyncio.run(scenario())
        assert router.membership.epoch == 0  # nothing entered the ring

    def test_op_join_coerces_json_float_ports(self):
        """JSON numbers may decode as floats; integral floats must pass
        port validation, non-integral ones must not."""
        router = self._router()

        async def scenario():
            # 70000.0 is integral ⇒ coerced to int ⇒ rejected as out of
            # range (not as a type error), proving the coercion ran.
            with pytest.raises(InvalidParameterError, match="70000"):
                await router._op_join(
                    {"member": "m9", "host": "h", "port": 70_000.0}
                )
            with pytest.raises(InvalidParameterError, match="4000.5"):
                await router._op_join(
                    {"member": "m9", "host": "h", "port": 4000.5}
                )

        asyncio.run(scenario())

    def test_op_decommission_requires_a_member_id(self):
        router = self._router()

        async def scenario():
            with pytest.raises(InvalidParameterError):
                await router._op_decommission({})
            with pytest.raises(InvalidParameterError):
                await router._op_decommission({"member": ""})

        asyncio.run(scenario())

    def test_decommission_rejects_unknown_and_down_members(self):
        router = self._router()

        async def scenario():
            with pytest.raises(ClusterError, match="unknown"):
                await router.decommission("ghost")
            router.membership.mark_down("m1")
            with pytest.raises(ClusterError, match="fail_over"):
                await router.decommission("m1")

        asyncio.run(scenario())

    def test_decommission_refuses_to_empty_the_ring(self):
        router = self._router(n=2)

        async def scenario():
            router.membership.mark_down("m1")
            with pytest.raises(ClusterError, match="no other healthy"):
                await router.decommission("m0")

        asyncio.run(scenario())

    def test_decommission_without_sessions_needs_no_shared_root(self):
        """Draining a member that hosts nothing is pure ring surgery —
        no frames move, so no shared checkpoint directory is needed."""
        router = self._router()

        async def scenario():
            return await router.decommission("m2")

        result = asyncio.run(scenario())
        assert result == {
            "decommissioned": True,
            "member": "m2",
            "sessions_moved": 0,
            "epoch": 1,
        }
        assert [m.member_id for m in router.membership.members()] == ["m0", "m1"]
