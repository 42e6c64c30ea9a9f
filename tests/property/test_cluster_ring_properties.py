"""Property-based tests (hypothesis) for the consistent-hash ring.

The ring is a pure function of ``(member set, replicas, seed)``, so its
contracts can be stated over arbitrary memberships and keys: ownership is
order- and construction-independent, removal re-homes exactly the removed
member's keys, and the preference walk is a permutation starting at the
owner.  The router's ``scatter_batch`` over wire values places every row
exactly where the per-row label hash does.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import HashRing, scatter_batch
from repro.distributed.partition import stable_shard
from repro.serve.protocol import decode_item, encode_item

member_sets = st.sets(
    st.text(alphabet="abcdefgh0123456789", min_size=1, max_size=8),
    min_size=1,
    max_size=8,
)
keys = st.lists(
    st.tuples(st.sampled_from(["default", "ads", "t1"]), st.integers(0, 10_000)),
    min_size=1,
    max_size=50,
)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
replica_counts = st.integers(min_value=1, max_value=64)


@settings(max_examples=50, deadline=None)
@given(members=member_sets, sample=keys, seed=seeds, replicas=replica_counts)
def test_owner_is_a_member_and_rebuild_invariant(members, sample, seed, replicas):
    """Ownership never leaves the member set and ignores insertion order."""
    ring = HashRing(members, replicas=replicas, seed=seed)
    rebuilt = HashRing(sorted(members, reverse=True), replicas=replicas, seed=seed)
    for key in sample:
        owner = ring.owner(key)
        assert owner in members
        assert rebuilt.owner(key) == owner


@settings(max_examples=50, deadline=None)
@given(members=member_sets, sample=keys, seed=seeds)
def test_removal_moves_only_the_removed_members_keys(members, sample, seed):
    """Keys owned by surviving members never change hands on shrink."""
    if len(members) < 2:
        return
    victim = sorted(members)[0]
    before = HashRing(members, seed=seed)
    after = HashRing(members - {victim}, seed=seed)
    for key in sample:
        owner = before.owner(key)
        if owner == victim:
            assert after.owner(key) != victim
        else:
            assert after.owner(key) == owner


@settings(max_examples=50, deadline=None)
@given(members=member_sets, seed=seeds)
def test_preference_is_a_permutation_starting_at_the_owner(members, seed):
    ring = HashRing(members, seed=seed)
    key = ("default", "probe")
    order = ring.preference(key)
    assert order[0] == ring.owner(key)
    assert sorted(order) == sorted(members)


#: Labels equal as dict keys but with distinct reprs, hence distinct
#: placements; drawn often so one batch mixes them.
TWINS = [1, 1.0, True, 0, 0.0, -0.0, False, (1,), (1.0,), (True,), (-0.0, None)]
#: Mixed labels in the wire domain: ints, floats, strs, ``None`` and
#: nested tuples (which travel as JSON arrays).
labels = st.one_of(
    st.sampled_from(TWINS),
    st.recursive(
        st.one_of(
            st.integers(-(2**70), 2**70),
            st.floats(allow_nan=False),
            st.text(max_size=6),
            st.none(),
            st.booleans(),
        ),
        lambda inner: st.lists(inner, max_size=3).map(tuple),
        max_leaves=6,
    ),
)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(labels, max_size=60),
    shards=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    columns=st.booleans(),
)
def test_scatter_over_wire_values_matches_per_row_placement(rows, shards, seed, columns):
    wire = json.loads(json.dumps([encode_item(label) for label in rows]))
    # Integer and float values both occur on the wire; neither is coerced.
    weights = [index if index % 2 else 1.5 * index for index in range(len(wire))]
    timestamps = [0.5 * index for index in range(len(wire))]
    if not columns:
        weights = timestamps = None
    slices = scatter_batch(wire, weights, timestamps, shards, seed=seed)
    assert len(slices) == shards
    expected = [
        stable_shard(decode_item(raw), shards, seed=seed) for raw in wire
    ]
    for shard, (items, shard_weights, shard_ts) in enumerate(slices):
        owned = [index for index, owner in enumerate(expected) if owner == shard]
        # Placement and within-shard order, with every value forwarded as is.
        assert len(items) == len(owned)
        assert all(item is wire[index] for item, index in zip(items, owned))
        if columns:
            assert len(shard_weights) == len(shard_ts) == len(owned)
            assert all(w is weights[i] for w, i in zip(shard_weights, owned))
            assert all(t is timestamps[i] for t, i in zip(shard_ts, owned))
        else:
            assert shard_weights is None and shard_ts is None
