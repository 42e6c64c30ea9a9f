"""Cross-mode invariants for the columnar kernel: one workload, four modes.

The columnar store is now the default under every execution mode — inline,
hash-sharded, windowed and served.  This suite pushes one seeded workload
through all four and asserts the invariants that must hold regardless of
mode:

* identical ``rows_processed`` and ``total_weight`` bookkeeping everywhere;
* in the *exact regime* (distinct items <= capacity, so no bin is ever
  contested) identical estimates and identical ``EstimateWithError`` values
  across all four modes;
* in the *churn regime* (distinct >> capacity) the exact stream total and
  the true top 10 (at least 9 of them) in every mode, the per-row
  ``update`` loop included, and bit-identical results between
  the mode pairs defined to be equivalent: inline vs served (batch
  boundaries preserved), in-process sharded vs served sharded (same
  routing, shard seeds and batch boundaries);
* at a registry scale of >= 1000 served sessions, per-session isolation —
  every session's estimates match an inline replica of its own workload,
  which would catch free-slot-recycling aliasing (a recycled slot leaking
  counts or labels across sketches sharing numpy buffers).
"""

from __future__ import annotations

import asyncio

import numpy as np

import repro
from repro.serve import SketchRegistry
from repro.streams.frequency import zipf_counts
from repro.streams.generators import exchangeable_stream

SEED = 20180618


def reference_workload(rng, *, universe, rows):
    """Zipf-flavoured integer stream, the shape the paper evaluates on."""
    raw = rng.zipf(1.3, size=rows * 3)
    return raw[raw <= universe][:rows].astype(np.int64)


def batches_of(items, size):
    return [items[start : start + size] for start in range(0, len(items), size)]


def drain_served(served_sessions, batch_lists):
    async def drive():
        for served, batches in zip(served_sessions, batch_lists):
            for batch in batches:
                assert served.offer_batch(batch)
        for served in served_sessions:
            await served.drain()

    asyncio.run(drive())


class TestExactRegimeAllModes:
    """distinct <= capacity: every mode must agree exactly, variance 0."""

    def test_four_modes_identical(self):
        rng = np.random.default_rng(SEED)
        items = reference_workload(rng, universe=48, rows=4000)
        batches = batches_of(items, 512)
        timestamps = [np.full(len(batch), 30.0) for batch in batches]

        inline = repro.build("unbiased_space_saving", size=64, seed=7)
        sharded = repro.build(
            "unbiased_space_saving", size=64, seed=7,
            backend="sharded", num_shards=4,
        )
        windowed = repro.build(
            "unbiased_space_saving", size=64, seed=7, window="tumbling:1h",
        )
        registry = SketchRegistry(coalesce=4)
        served = registry.create("exact", "unbiased_space_saving", size=64, seed=7)

        try:
            for position, batch in enumerate(batches):
                inline.update_batch(batch)
                sharded.update_batch(batch)
                windowed.update_batch(batch, timestamps=timestamps[position])
            drain_served([served], [batches])

            sessions = {
                "inline": inline,
                "sharded": sharded,
                "windowed": windowed,
                "served": served.session,
            }
            # The workload fits in capacity, so estimates are exact counts.
            expected = {
                int(item): float(count)
                for item, count in zip(*np.unique(items, return_counts=True))
            }
            half = {item for item in expected if item % 2 == 0}
            answers = {
                name: session.subset_sum(lambda item: item in half)
                for name, session in sessions.items()
            }
            for name, session in sessions.items():
                assert session.rows_processed == len(items), name
                assert session.total_weight == float(len(items)), name
                assert session.estimates() == expected, name
                assert answers[name] == answers["inline"], name
                assert answers[name].variance == 0.0, name
        finally:
            asyncio.run(registry.aclose_all())


class TestChurnRegimeAllModes:
    """distinct >> capacity: every mode keeps the exact total and the top 10."""

    def test_five_modes_keep_total_and_top_ten(self):
        model = zipf_counts(num_items=5000, exponent=1.1, total=60_000)
        items = np.asarray(
            exchangeable_stream(model, rng=np.random.default_rng(SEED)), dtype=np.int64
        )
        batches = batches_of(items, 5000)
        timestamps = np.linspace(0.0, 600.0, num=len(items), endpoint=False)
        true_top = {item for item, _ in model.sorted_items()[:10]}

        scalar = repro.build("unbiased_space_saving", size=256, seed=7)
        batched = repro.build("unbiased_space_saving", size=256, seed=7)
        sharded = repro.build(
            "unbiased_space_saving", size=256, seed=7, backend="sharded", num_shards=4,
        )
        windowed = repro.build(
            "unbiased_space_saving", size=256, seed=7, window="sliding:20m/1m",
        )
        registry = SketchRegistry(coalesce=4)
        served = registry.create("churn", "unbiased_space_saving", size=256, seed=7)
        try:
            for item in items.tolist():
                scalar.update(item)
            for batch, ts in zip(batches, batches_of(timestamps, 5000)):
                batched.update_batch(batch)
                sharded.update_batch(batch)
                windowed.update_batch(batch, timestamps=ts)
            drain_served([served], [batches])

            sessions = {
                "scalar": scalar,
                "batched": batched,
                "sharded": sharded,
                "windowed": windowed,
                "served": served.session,
            }
            for name, session in sessions.items():
                assert session.rows_processed == len(items), name
                assert session.total().estimate == float(len(items)), name
                assert len(set(session.top_k(10).groups) & true_top) >= 9, name
        finally:
            asyncio.run(registry.aclose_all())


class TestChurnRegimePairs:
    """distinct >> capacity: modes defined to be equivalent stay bit-exact."""

    def test_inline_equals_served_batchwise(self):
        rng = np.random.default_rng(SEED + 1)
        items = reference_workload(rng, universe=3000, rows=20000)
        batches = batches_of(items, 1000)

        inline = repro.build("unbiased_space_saving", size=32, seed=11)
        # coalesce=1 preserves the producer's batch boundaries, so the
        # served session must replay the identical draw sequence.
        registry = SketchRegistry(coalesce=1)
        served = registry.create("churn", "unbiased_space_saving", size=32, seed=11)
        try:
            for batch in batches:
                inline.update_batch(batch)
            drain_served([served], [batches])

            assert served.session.estimates() == inline.estimates()
            assert served.session.rows_processed == inline.rows_processed
            assert served.session.total_weight == inline.total_weight
            kept = set(list(inline.estimates())[:16])
            assert served.session.subset_sum(
                lambda item: item in kept
            ) == inline.subset_sum(lambda item: item in kept)
        finally:
            asyncio.run(registry.aclose_all())

    def test_sharded_equals_served_sharded(self):
        rng = np.random.default_rng(SEED + 2)
        items = reference_workload(rng, universe=3000, rows=20000)
        batches = batches_of(items, 1000)

        sharded = repro.build(
            "unbiased_space_saving", size=32, seed=13,
            backend="sharded", num_shards=4,
        )
        registry = SketchRegistry(coalesce=1)
        served = registry.create(
            "churn", "unbiased_space_saving", size=32, seed=13,
            backend="sharded", num_shards=4,
        )
        try:
            for batch in batches:
                sharded.update_batch(batch)
            drain_served([served], [batches])

            assert served.session.estimates() == sharded.estimates()
            assert served.session.rows_processed == sharded.rows_processed
            assert served.session.total_weight == sharded.total_weight
            kept = set(list(sharded.estimates())[:16])
            assert served.session.subset_sum(
                lambda item: item in kept
            ) == sharded.subset_sum(lambda item: item in kept)
        finally:
            asyncio.run(registry.aclose_all())


class TestRegistryScaleIsolation:
    """>= 1000 served columnar sessions: no cross-session state leakage."""

    NUM_SESSIONS = 1000

    def test_thousand_sessions_stay_isolated(self):
        # coalesce=1 keeps every session's batch boundaries identical to
        # the inline replica's, so estimates must match *bit for bit* (the
        # coalescing path is covered by TestExactRegimeAllModes above).
        registry = SketchRegistry(coalesce=1, queue_maxsize=16)
        rng = np.random.default_rng(SEED + 3)
        workloads = []
        served_sessions = []
        try:
            for index in range(self.NUM_SESSIONS):
                # Small capacity + distinct-heavy streams force constant
                # slot churn inside every session, the condition under
                # which a recycling bug would alias state across sessions.
                rows = rng.integers(0, 200, size=40) + index * 1000
                workloads.append(rows.astype(np.int64))
                served_sessions.append(
                    registry.create(
                        f"s{index}", "unbiased_space_saving",
                        size=8, seed=index,
                    )
                )
            drain_served(
                served_sessions,
                [batches_of(rows, 20) for rows in workloads],
            )
            for index, (served, rows) in enumerate(
                zip(served_sessions, workloads)
            ):
                replica = repro.build(
                    "unbiased_space_saving", size=8, seed=index
                )
                for batch in batches_of(rows, 20):
                    replica.update_batch(batch)
                assert served.session.estimates() == replica.estimates(), index
                assert served.session.total_weight == replica.total_weight, index
                # Every retained label must belong to this session's own
                # universe — an aliased slot would leak a foreign label.
                for label in served.session.estimates():
                    assert index * 1000 <= label < index * 1000 + 200, index
        finally:
            asyncio.run(registry.aclose_all())
