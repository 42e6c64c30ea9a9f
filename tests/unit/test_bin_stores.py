"""Unit tests for the columnar counter store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.columnar import ColumnarCounterStore, resolve_kernel_name
from repro.errors import EmptySketchError, InvalidParameterError, SerializationError

STORES = [ColumnarCounterStore]


def make_store(store_cls=ColumnarCounterStore, capacity=8, *, seed=0, **kwargs):
    generator = np.random.Generator(np.random.PCG64(seed))
    return store_cls(capacity, generator=generator, **kwargs)


@pytest.mark.parametrize("store_cls", STORES)
class TestCommonBehaviour:
    def test_load_get_len(self, store_cls):
        store = make_store(store_cls)
        store.load(["a", "b"], [2, 5])
        assert len(store) == 2
        assert store.get("a") == 2.0
        assert store.get("c", 9.0) == 9.0

    def test_duplicate_labels_rejected(self, store_cls):
        store = make_store(store_cls)
        with pytest.raises(InvalidParameterError, match="distinct"):
            store.load(["a", "a"], [1, 1])
        assert len(store) == 0

    def test_increment_and_min_tracking(self, store_cls):
        store = make_store(store_cls)
        store.load(["a", "b"], [1, 4])
        assert store.min_count() == 1.0
        store.apply_one("a", 10.0)
        assert store.min_count() == 4.0
        assert store.get("a") == 11.0

    def test_counts_snapshot(self, store_cls):
        store = make_store(store_cls)
        store.load(["a", "b"], [1, 2])
        assert store.counts() == {"a": 1.0, "b": 2.0}
        assert dict(store.items()) == store.counts()

    def test_random_tie_breaking(self, store_cls):
        # Across seeds, a contest against six tied bins must not always
        # take the first-loaded label.
        taken = set()
        for seed in range(12):
            store = make_store(store_cls, capacity=6, seed=seed)
            store.load(list("abcdef"), [2] * 6)
            store.apply_one("z", 1.0, always_replace=True)
            taken |= set("abcdef") - set(store.counts())
        assert taken <= set("abcdef")
        assert len(taken) > 1


class TestColumnarStoreSpecifics:
    """The struct-of-arrays store behind both Space Saving sketches.

    The minimum is (count, priority, slot)-lexicographic with priorities
    redrawn on every count change, so ties break uniformly at random
    while the draws per operation stay constant.
    """

    def test_min_on_empty_raises(self):
        with pytest.raises(EmptySketchError):
            make_store().min_count()

    @pytest.mark.parametrize(
        "columns",
        [
            {"counts": [1.0]},
            {"counts": [1.0, 2.0], "priorities": [0.5]},
            {"counts": [1.0, 2.0], "errors": [0.0, 0.0, 0.0]},
        ],
        ids=["short-counts", "short-priorities", "long-errors"],
    )
    def test_load_rejects_misaligned_columns(self, columns):
        store = make_store(track_errors=True)
        with pytest.raises(InvalidParameterError, match="align"):
            store.load(["a", "b"], **columns)
        assert len(store) == 0

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_load_rejects_bad_counts(self, bad):
        store = make_store()
        with pytest.raises(InvalidParameterError, match="finite and non-negative"):
            store.load(["a", "b"], [1.0, bad])
        assert len(store) == 0

    def test_capacity_is_enforced(self):
        store = make_store(capacity=2)
        with pytest.raises(InvalidParameterError, match="capacity"):
            store.load(["a", "b", "c"], [1, 1, 1])
        store.load(["a", "b"], [1, 1])
        with pytest.raises(InvalidParameterError, match="empty"):
            store.load(["c"], [1])

    def test_load_draws_fresh_priorities_in_one_call(self):
        store = make_store(seed=4)
        store.load(["a", "b", "c"], [1, 2, 3])
        _, arrays = store.frame()
        expected = np.random.Generator(np.random.PCG64(4)).random(3)
        assert np.array_equal(arrays["priorities"], expected)

    def test_load_fills_the_remaining_slots_in_order(self):
        store = make_store(capacity=3)
        store.load(["a"], [5.0])
        store.apply_batch(["b", "c"], [1.0, 2.0])
        assert store.counts() == {"a": 5.0, "b": 1.0, "c": 2.0}

    def test_error_tracking_is_optional(self):
        untracked = make_store()
        untracked.load(["a"], [1.0])
        assert untracked.acquisition_error("a") == 0.0
        with pytest.raises(InvalidParameterError, match="acquisition errors"):
            make_store().load(["a"], [5.0], errors=[2.0])
        tracked = make_store(track_errors=True)
        tracked.load(["a"], [5.0], [0.5], [2.0])
        assert tracked.acquisition_error("a") == 2.0

    def test_priorities_refresh_on_count_change(self):
        store = make_store()
        store.load(["a"], [1.0])
        before = store.frame()[1]["priorities"][0]
        store.apply_one("a", 1.0)
        after = store.frame()[1]["priorities"][0]
        assert before != after

    def test_frame_round_trip_rebuilds_exact_state(self):
        store = make_store(track_errors=True)
        store.apply_batch(["a", "b", "a"], [2.0, 1.0, 3.0])
        store.apply_one("c", 1.5)
        meta, arrays = store.frame()
        clone = make_store(seed=99, track_errors=True)
        clone.load_frame(meta, arrays)
        clone_meta, clone_arrays = clone.frame()
        assert clone_meta == meta
        for name, column in arrays.items():
            assert np.array_equal(clone_arrays[name], column)

    def test_apply_one_matches_apply_batch_of_one(self):
        one = make_store(capacity=2, seed=9)
        batch = make_store(capacity=2, seed=9)
        for item in ["x", "y", "z", "x", "w"]:
            one.apply_one(item, 1.0)
            batch.apply_batch(
                np.asarray([item], dtype=object),
                np.asarray([1.0]),
            )
            assert dict(one.items()) == dict(batch.items())

    def test_kernel_resolution(self, monkeypatch):
        # The default is asserted with REPRO_KERNEL unset, whatever the
        # environment running the suite selects.
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_kernel_name(None) == "numpy"
        assert resolve_kernel_name("reference") == "reference"
        for unknown in ("vulkan", "numba"):
            with pytest.raises(InvalidParameterError):
                resolve_kernel_name(unknown)
            with pytest.raises(InvalidParameterError):
                make_store(kernel=unknown)


class TestBins:
    """Bin bookkeeping: lookups, snapshots and label lowering."""

    def test_empty_store_has_zero_length(self):
        store = make_store()
        assert len(store) == 0
        assert not store
        assert store.counts() == {}
        assert list(store.items()) == []

    def test_capacity_must_be_positive(self):
        for capacity in (0, -3):
            with pytest.raises(InvalidParameterError, match="capacity"):
                make_store(capacity=capacity)

    def test_get_returns_default_for_missing(self):
        store = make_store()
        assert store.get("missing") == 0.0
        assert store.get("missing", default=7.0) == 7.0

    def test_counts_snapshot_is_a_copy(self):
        store = make_store()
        store.load(["a"], [1.0])
        snapshot = store.counts()
        snapshot["a"] = 99.0
        snapshot["b"] = 1.0
        assert store.counts() == {"a": 1.0}

    def test_counts_follow_load_order(self):
        store = make_store()
        store.load(["c", "a", "b"], [3, 1, 2])
        assert list(store.counts()) == ["c", "a", "b"]
        assert store.frame()[0]["labels"] == ["c", "a", "b"]

    def test_load_of_no_bins_leaves_store_usable(self):
        store = make_store(capacity=2)
        store.load([], [])
        assert len(store) == 0
        store.apply_one("a", 1.0)
        assert store.counts() == {"a": 1.0}

    def test_load_lowers_numpy_scalar_labels(self):
        store = make_store()
        store.load(np.asarray([3, 4], dtype=np.int64), [1.0, 2.0])
        assert all(type(label) is int for label in store.counts())
        assert store.get(3) == 1.0

    def test_apply_lowers_numpy_scalar_labels(self):
        store = make_store()
        store.apply_one(np.int64(5), 1.0)
        store.apply_batch(np.asarray([6, 5], dtype=np.int64), [1.0, 2.0])
        assert store.counts() == {5: 3.0, 6: 1.0}
        assert all(type(label) is int for label in store.counts())

    def test_tuple_and_string_labels_share_a_store(self):
        store = make_store()
        store.load([("user", 1), "ad"], [1.0, 2.0])
        store.apply_batch([("user", 1), 7, "ad"], [1.0, 1.0, 1.0])
        assert store.counts() == {("user", 1): 2.0, "ad": 3.0, 7: 1.0}

    def test_float_label_is_not_truncated_by_int_batches(self):
        store = make_store()
        store.load([2, 3], [1.0, 1.0])
        store.apply_batch([2.5], [4.0])
        store.apply_batch(np.asarray([2, 3], dtype=np.int64), [1.0, 1.0])
        assert store.counts() == {2: 2.0, 3: 2.0, 2.5: 4.0}


class TestIncrements:
    """Row application on labels already held or with a free slot."""

    def test_apply_one_inserts_into_a_free_slot(self):
        store = make_store()
        assert store.apply_one("a", 2.0) == 0
        assert store.get("a") == 2.0
        assert len(store) == 1

    def test_apply_one_increments_a_present_label(self):
        store = make_store()
        store.load(["a", "b"], [1, 3])
        assert store.apply_one("a", 10.0) == 0
        assert store.counts() == {"a": 11.0, "b": 3.0}

    def test_fractional_weights_accumulate(self):
        store = make_store()
        store.apply_one("a", 0.25)
        store.apply_one("a", 0.75)
        assert store.get("a") == 1.0

    def test_increments_can_merge_counts(self):
        store = make_store()
        store.load(["a", "b"], [1, 2])
        store.apply_one("a", 1.0)
        assert store.get("a") == store.get("b") == 2.0
        assert store.min_count() == 2.0

    def test_present_only_batch_is_a_scatter_add(self):
        store = make_store()
        store.load(["x", "y", "z"], [1, 1, 1])
        assert store.apply_batch(["x", "z"], [2.0, 3.0]) == 0
        assert store.counts() == {"x": 3.0, "y": 1.0, "z": 4.0}

    def test_empty_batch_draws_nothing(self):
        store = make_store()
        store.load(["a"], [1.0])
        before = store.frame()[0]["kernel_rng_state"]
        assert store.apply_batch([], []) == 0
        assert store.frame()[0]["kernel_rng_state"] == before
        assert store.counts() == {"a": 1.0}

    def test_batch_fills_free_slots_before_contesting(self):
        store = make_store(capacity=3)
        store.load(["a"], [5.0])
        replaced = store.apply_batch(["b", "c", "d"], [1.0, 2.0, 4.0], always_replace=True)
        # b and c take the free slots; d contests the minimum, b at 1.0.
        assert replaced == 1
        assert store.counts() == {"a": 5.0, "c": 2.0, "d": 5.0}


class TestMinTracking:
    def test_min_count_is_the_smallest_bin(self):
        store = make_store()
        store.load(["a", "b", "c"], [5, 2, 9])
        assert store.min_count() == 2.0

    def test_min_updates_after_increment(self):
        store = make_store()
        store.load(["a", "b"], [1, 2])
        store.apply_one("a", 5.0)
        assert store.min_count() == 2.0

    def test_min_tracking_under_many_updates(self):
        rng = np.random.default_rng(11)
        store = make_store(capacity=40)
        reference = {}
        for index in range(200):
            label = f"item{index % 40}"
            delta = rng.random() * (1 if label in reference else 5)
            store.apply_one(label, delta)
            reference[label] = reference.get(label, 0.0) + delta
            assert store.min_count() == pytest.approx(min(reference.values()))
        assert store.counts() == pytest.approx(reference)

    def test_min_tie_breaks_by_priority_not_load_order(self):
        # Across seeds, a contest among tied bins must not always hit the
        # first-loaded label, and the loser is always one of the ties.
        lost = set()
        for seed in range(12):
            store = make_store(seed=seed)
            store.load(list("abcdefgh"), [2] * 6 + [3, 3])
            store.apply_one("z", 1.0, always_replace=True)
            lost |= set("abcdefgh") - set(store.counts())
        assert lost <= set("abcdef")
        assert len(lost) > 1


class TestContests:
    """Rows for a new label once every slot is taken."""

    def test_always_replace_takes_the_minimum_bin(self):
        store = make_store(capacity=2, track_errors=True)
        store.load(["a", "b"], [1.0, 5.0])
        assert store.apply_one("c", 1.0, always_replace=True) == 1
        assert store.counts() == {"b": 5.0, "c": 2.0}
        # The displaced count is the new label's acquisition error.
        assert store.acquisition_error("c") == 1.0
        assert store.acquisition_error("a") == 0.0

    def test_unbiased_contest_adds_weight_to_the_minimum(self):
        for seed in range(20):
            store = make_store(capacity=2, seed=seed)
            store.load(["a", "b"], [3.0, 5.0])
            replaced = store.apply_one("c", 1.0)
            counts = store.counts()
            assert sorted(counts.values()) == [4.0, 5.0]
            assert ("c" in counts) == bool(replaced)
            assert counts.get("c", counts.get("a")) == 4.0

    def test_unbiased_contest_accepts_with_probability_weight_over_count(self):
        # A weight-1 row against a count-3 minimum relabels the bin with
        # probability 1 / (3 + 1).
        trials = 4000
        accepted = 0
        for seed in range(trials):
            store = make_store(capacity=1, seed=seed)
            store.load(["a"], [3.0])
            accepted += store.apply_one("z", 1.0)
        share = accepted / trials
        stderr = (0.25 * 0.75 / trials) ** 0.5
        assert abs(share - 0.25) < 4 * stderr

    def test_free_slot_insert_clears_a_stale_error(self):
        store = make_store(capacity=2, track_errors=True)
        store.load(["a"], [4.0], errors=[3.0])
        store.apply_one("b", 1.0)
        assert store.acquisition_error("b") == 0.0
        assert store.acquisition_error("a") == 3.0

    def test_batch_replacement_count_bounds_the_relabels(self):
        # A newcomer may itself be displaced later in the same batch, so
        # the count can exceed the number of new labels that survive.
        for seed in range(10):
            store = make_store(capacity=4, seed=seed)
            store.load(list("abcd"), [1.0, 1.0, 2.0, 8.0])
            replaced = store.apply_batch(list("wxyz"), [3.0, 1.0, 5.0, 2.0])
            survivors = set(store.counts()) - set("abcd")
            assert survivors <= set("wxyz")
            assert len(survivors) <= replaced <= 4
            assert sum(store.counts().values()) == 12.0 + 11.0
        store = make_store(capacity=4)
        store.load(list("abcd"), [1.0, 1.0, 2.0, 8.0])
        assert store.apply_batch(list("wxyz"), [3.0, 1.0, 5.0, 2.0], always_replace=True) == 4

    @pytest.mark.parametrize("always_replace", [False, True], ids=["unbiased", "deterministic"])
    def test_reference_kernel_matches_numpy_kernel(self, always_replace):
        rng = np.random.default_rng(5)
        fast = make_store(capacity=16, seed=21, kernel="numpy", track_errors=True)
        reference = make_store(capacity=16, seed=21, kernel="reference", track_errors=True)
        for _ in range(30):
            unique = rng.choice(200, size=12, replace=False)
            weights = rng.integers(1, 5, size=12).astype(np.float64)
            assert fast.apply_batch(
                unique, weights, always_replace=always_replace
            ) == reference.apply_batch(unique, weights, always_replace=always_replace)
        fast_meta, fast_arrays = fast.frame()
        reference_meta, reference_arrays = reference.frame()
        assert fast_meta == reference_meta
        for name, column in fast_arrays.items():
            assert np.array_equal(reference_arrays[name], column)

    def test_apply_one_matches_batch_of_one_when_always_replacing(self):
        one = make_store(capacity=2, seed=9, track_errors=True)
        batch = make_store(capacity=2, seed=9, track_errors=True)
        for item in ["x", "y", "z", "x", "w", "v"]:
            one.apply_one(item, 2.0, always_replace=True)
            batch.apply_batch([item], [2.0], always_replace=True)
            assert one.counts() == batch.counts()
            assert one.acquisition_error(item) == batch.acquisition_error(item)


class TestFrames:
    def test_load_frame_rejects_invalid_bins_as_serialization_error(self):
        store = make_store(track_errors=True)
        store.load(["a", "b"], [1.0, 2.0])
        meta, arrays = store.frame()
        arrays["counts"] = np.asarray([1.0, -2.0])
        with pytest.raises(SerializationError, match="invalid bins"):
            make_store(track_errors=True).load_frame(meta, arrays)

    def test_restored_store_continues_identically(self):
        store = make_store(capacity=3, seed=2)
        store.apply_batch(["a", "b", "c"], [1.0, 2.0, 3.0])
        meta, arrays = store.frame()
        clone = make_store(capacity=3, seed=77)
        clone.load_frame(meta, arrays)
        for item in ["d", "a", "e", "f"]:
            assert store.apply_one(item, 1.5) == clone.apply_one(item, 1.5)
        assert clone.counts() == store.counts()
