"""Unit tests for the BinStore implementations."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.base import HeapBinStore, StreamSummaryBinStore
from repro.core.columnar import ColumnarCounterStore, resolve_kernel_name
from repro.errors import (
    EmptySketchError,
    InvalidParameterError,
    UnsupportedUpdateError,
)

STORES = [StreamSummaryBinStore, HeapBinStore]


@pytest.mark.parametrize("store_cls", STORES)
class TestCommonBehaviour:
    def test_insert_get_len_contains(self, store_cls):
        store = store_cls()
        store.insert("a", 2)
        store.insert("b", 5)
        assert len(store) == 2
        assert "a" in store and "c" not in store
        assert store.get("a") == 2.0
        assert store.get("c", 9.0) == 9.0

    def test_duplicate_insert_rejected(self, store_cls):
        store = store_cls()
        store.insert("a", 1)
        with pytest.raises(InvalidParameterError):
            store.insert("a", 1)

    def test_increment_and_min_tracking(self, store_cls):
        store = store_cls()
        store.insert("a", 1)
        store.insert("b", 4)
        assert store.min_label() == "a"
        assert store.min_count() == 1.0
        store.increment("a", 10)
        assert store.min_label() == "b"
        assert store.min_count() == 4.0

    def test_remove_returns_count(self, store_cls):
        store = store_cls()
        store.insert("a", 3)
        assert store.remove("a") == 3.0
        assert len(store) == 0

    def test_relabel_keeps_count(self, store_cls):
        store = store_cls()
        store.insert("old", 6)
        store.relabel("old", "new")
        assert store.get("new") == 6.0
        assert "old" not in store

    def test_counts_snapshot(self, store_cls):
        store = store_cls()
        store.insert("a", 1)
        store.insert("b", 2)
        assert store.counts() == {"a": 1.0, "b": 2.0}

    def test_random_tie_breaking(self, store_cls):
        store = store_cls(rng=random.Random(3))
        for label in "abcdef":
            store.insert(label, 2)
        picks = {store.min_label() for _ in range(40)}
        assert picks <= set("abcdef")
        assert len(picks) > 1


class TestStreamSummaryStoreSpecifics:
    def test_rejects_fractional_counts(self):
        store = StreamSummaryBinStore()
        with pytest.raises(UnsupportedUpdateError):
            store.insert("a", 1.5)
        store.insert("b", 1)
        with pytest.raises(UnsupportedUpdateError):
            store.increment("b", 0.5)

    def test_invariant_check_passes(self):
        store = StreamSummaryBinStore()
        for index in range(20):
            store.insert(index, index % 5)
        store.check_invariants()


class TestHeapStoreSpecifics:
    def test_supports_fractional_counts(self):
        store = HeapBinStore()
        store.insert("a", 0.25)
        store.increment("a", 0.75)
        assert store.get("a") == pytest.approx(1.0)

    def test_min_on_empty_raises(self):
        with pytest.raises(EmptySketchError):
            HeapBinStore().min_count()

    def test_negative_insert_and_increment_rejected(self):
        store = HeapBinStore()
        with pytest.raises(InvalidParameterError):
            store.insert("a", -1.0)
        store.insert("b", 1.0)
        with pytest.raises(InvalidParameterError):
            store.increment("b", -0.5)

    def test_min_tracking_with_many_lazy_updates(self):
        rng = random.Random(11)
        store = HeapBinStore()
        reference = {}
        for index in range(200):
            label = f"item{index % 40}"
            if label in reference:
                delta = rng.random()
                store.increment(label, delta)
                reference[label] += delta
            else:
                value = rng.random() * 5
                store.insert(label, value)
                reference[label] = value
            expected_min = min(reference.values())
            assert store.min_count() == pytest.approx(expected_min)
            assert reference[store.min_label()] == pytest.approx(expected_min)


def make_columnar(capacity=8, *, seed=0, **kwargs) -> ColumnarCounterStore:
    generator = np.random.Generator(np.random.PCG64(seed))
    return ColumnarCounterStore(capacity, generator=generator, **kwargs)


class TestColumnarStoreSpecifics:
    """The struct-of-arrays store behind the default Space Saving path.

    Tie-breaking differs from the scalar stores by design: the minimum
    is (count, priority, slot)-lexicographic with priorities redrawn on
    every count change, rather than an rng pick at query time — so
    repeated min_label() calls are stable between updates, and the
    common random-tie-breaking test above does not apply.
    """

    def test_insert_get_len_contains(self):
        store = make_columnar()
        store.insert("a", 2)
        store.insert("b", 5)
        assert len(store) == 2
        assert "a" in store and "c" not in store
        assert store.get("a") == 2.0
        assert store.get("c", 9.0) == 9.0
        assert dict(store.items()) == {"a": 2.0, "b": 5.0}

    def test_duplicate_insert_and_bad_counts_rejected(self):
        store = make_columnar()
        store.insert("a", 1)
        with pytest.raises(InvalidParameterError):
            store.insert("a", 1)
        with pytest.raises(InvalidParameterError):
            store.insert("b", -1.0)
        with pytest.raises(InvalidParameterError):
            store.increment("a", -0.5)

    def test_capacity_is_enforced(self):
        store = make_columnar(capacity=2)
        store.insert("a", 1)
        store.insert("b", 1)
        with pytest.raises(InvalidParameterError):
            store.insert("c", 1)

    def test_increment_and_min_tracking(self):
        store = make_columnar()
        store.insert("a", 1)
        store.insert("b", 4)
        assert store.min_label() == "a"
        assert store.min_count() == 1.0
        store.increment("a", 10)
        assert store.min_label() == "b"
        assert store.min_count() == 4.0

    def test_min_on_empty_raises(self):
        with pytest.raises(EmptySketchError):
            make_columnar().min_count()

    def test_remove_recycles_the_slot(self):
        store = make_columnar(capacity=2)
        store.insert("a", 3)
        store.insert("b", 7)
        assert store.remove("a") == 3.0
        assert len(store) == 1 and "a" not in store
        # The freed slot is available again despite the store being
        # physically full before the removal.
        store.insert("c", 1)
        assert dict(store.items()) == {"b": 7.0, "c": 1.0}

    def test_relabel_keeps_count(self):
        store = make_columnar()
        store.insert("old", 6)
        store.relabel("old", "new")
        assert store.get("new") == 6.0
        assert "old" not in store
        with pytest.raises(InvalidParameterError):
            store.relabel("new", "new")

    def test_priorities_refresh_on_count_change(self):
        store = make_columnar()
        store.insert("a", 1)
        (_, _, before, _), = store.state_rows()
        store.increment("a", 1)
        (_, _, after, _), = store.state_rows()
        assert before != after

    def test_min_tie_breaks_by_priority_not_insertion_order(self):
        # Across seeds, ties at the same count must not always resolve
        # to the first-inserted label.
        picks = set()
        for seed in range(12):
            store = make_columnar(seed=seed)
            for label in "abcdef":
                store.insert(label, 2)
            picks.add(store.min_label())
        assert picks <= set("abcdef")
        assert len(picks) > 1

    def test_error_tracking_is_optional(self):
        untracked = make_columnar()
        untracked.insert("a", 1)
        assert untracked.acquisition_error("a") == 0.0
        tracked = make_columnar(track_errors=True)
        tracked.restore_bin("a", 5.0, 0.5, error=2.0)
        assert tracked.acquisition_error("a") == 2.0

    def test_restore_bin_rebuilds_exact_state(self):
        store = make_columnar()
        store.insert("a", 2)
        store.increment("a", 3)
        rows = store.state_rows()
        state = store.generator_state()
        clone = make_columnar()
        for item, count, priority, error in rows:
            clone.restore_bin(item, count, priority, error)
        clone.set_generator_state(state)
        assert clone.state_rows() == rows
        with pytest.raises(InvalidParameterError):
            clone.restore_bin("a", 1.0, 0.5)

    def test_apply_one_matches_apply_batch_of_one(self):
        one = make_columnar(capacity=2, seed=9)
        batch = make_columnar(capacity=2, seed=9)
        for item in ["x", "y", "z", "x", "w"]:
            one.apply_one(item, 1.0)
            batch.apply_batch(
                np.asarray([item], dtype=object),
                np.asarray([1.0]),
            )
            assert dict(one.items()) == dict(batch.items())

    def test_kernel_property_and_resolution(self, monkeypatch):
        # The default is asserted with REPRO_KERNEL unset, whatever the
        # environment running the suite selects.
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert make_columnar().kernel == "numpy"
        assert make_columnar(kernel="reference").kernel == "reference"
        with pytest.raises(InvalidParameterError):
            resolve_kernel_name("vulkan")
