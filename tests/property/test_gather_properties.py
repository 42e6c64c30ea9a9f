"""The cluster's disjoint-union gather against the core unbiased merge.

A key-sharded cluster read gathers every shard's ``(bins, total)`` and
answers ``top_k`` / ``heavy_hitters`` from their union.  The reference
path loads each shard into a ``from_bins`` snapshot and merges the
snapshots with :func:`~repro.core.merge.merge_many_unbiased` at union
capacity, where the unbiased reduction is the identity, then ranks by
``(-count, repr(label))``.  The plain union must give the same wire
bytes for any per-shard bin maps: labels repeated across shards (their
counts add), zero counts (dropped), int-valued counts (reported as
floats), every ``k`` and every heavy-hitter threshold.  A ``top_k``
pushed down to disjoint shards — each member's own top k, then the
ranked union — gives the full gather's bytes.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.router import merge_shard_states, ranked_pairs
from repro.core.merge import merge_many_unbiased
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.serve import protocol

labels = st.one_of(
    st.integers(min_value=-3, max_value=30),
    st.text(alphabet="abc", max_size=2),
    st.tuples(st.just("t"), st.integers(min_value=0, max_value=3)),
    st.booleans(),
    st.sampled_from([0.5, 1.0, 2.0]),
)
counts = st.one_of(
    st.just(0),
    st.just(0.0),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=2**60),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)
shard_states = st.lists(
    st.tuples(
        st.dictionaries(labels, counts, max_size=12),
        st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    ),
    min_size=1,
    max_size=5,
)


def reference_pairs(states, *, k=None, phi=None):
    """``from_bins`` snapshots, ``merge_many_unbiased``, then the old sort."""
    snapshots = [
        UnbiasedSpaceSaving.from_bins(
            max(1, len(bins)), bins, total_weight=total, seed=0
        )
        for bins, total in states
    ]
    union_capacity = max(1, sum(len(bins) for bins, _ in states))
    merged = merge_many_unbiased(snapshots, capacity=union_capacity, seed=0)
    threshold = None if phi is None else phi * merged.total_weight
    pairs = [
        (item, count)
        for item, count in merged.estimates().items()
        if threshold is None or (count >= threshold and count > 0)
    ]
    pairs.sort(key=lambda pair: (-pair[1], repr(pair[0])))
    return pairs if k is None else pairs[:k]


def wire(pairs) -> bytes:
    return protocol.encode_line({"pairs": protocol.encode_pairs(pairs)})


@settings(max_examples=200, deadline=None)
@given(states=shard_states, k=st.integers(min_value=0, max_value=70))
def test_top_k_gather_matches_the_unbiased_merge(states, k):
    bins, _ = merge_shard_states(states)
    union_size = len(bins)
    for size in {0, 1, k, union_size + 1}:
        assert wire(ranked_pairs(bins, k=size)) == wire(
            reference_pairs(states, k=size)
        )


@settings(max_examples=200, deadline=None)
@given(
    states=shard_states,
    phi=st.floats(min_value=1e-9, max_value=1.0, exclude_min=False),
)
def test_heavy_hitter_gather_matches_the_unbiased_merge(states, phi):
    bins, total = merge_shard_states(states)
    assert wire(ranked_pairs(bins, threshold=phi * total)) == wire(
        reference_pairs(states, phi=phi)
    )
    assert total == sum(float(shard_total) for _, shard_total in states)


def test_union_keeps_positive_counts_as_floats_and_adds_repeats():
    bins, total = merge_shard_states(
        [({"a": 2, "z": 0}, 2.0), ({"a": 1.5, "b": 3}, 4.5), ({}, 0.0)]
    )
    assert bins == {"a": 3.5, "b": 3.0}
    assert all(type(count) is float for count in bins.values())
    assert total == 6.5


@settings(max_examples=200, deadline=None)
@given(
    bins=st.dictionaries(labels, counts, max_size=40),
    num_shards=st.integers(min_value=1, max_value=5),
    owners=st.randoms(use_true_random=False),
    k=st.integers(min_value=0, max_value=50),
)
def test_top_k_pushed_down_to_disjoint_shards_matches_the_full_gather(
    bins, num_shards, owners, k
):
    """Each shard answers its own ``top_k(k)`` as a member does; the
    union of those answers, ranked, is the full gather's top k."""
    shard_bins = [{} for _ in range(num_shards)]
    for label, count in bins.items():
        shard_bins[owners.randrange(num_shards)][label] = count
    states = [(shard, float(sum(shard.values()))) for shard in shard_bins]
    full = ranked_pairs(merge_shard_states(states)[0], k=k)
    answers = []
    for shard in shard_bins:
        member = UnbiasedSpaceSaving.from_bins(
            max(1, len(shard)), shard, total_weight=sum(shard.values()), seed=0
        )
        # The member's answer as it crosses the wire.
        pairs = protocol.encode_pairs(dict(member.top_k(k)))
        answers.append((protocol.decode_pairs(pairs), 0.0))
    pushed = ranked_pairs(merge_shard_states(answers)[0], k=k)
    assert wire(pushed) == wire(full)
