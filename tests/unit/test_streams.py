"""Unit tests for frequency models, stream generators and pathological orderings."""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.streams.epochs import EpochPartition
from repro.streams.frequency import (
    FrequencyModel,
    geometric_counts,
    rescale_to_total,
    scaled_weibull_counts,
    uniform_counts,
    weibull_counts,
    zipf_counts,
)
from repro.streams.generators import (
    concatenate_streams,
    deterministic_round_robin_stream,
    exchangeable_stream,
    iid_stream,
    iterate_rows,
    rows_from_counts,
    stream_length,
)
from repro.streams.pathological import (
    adversarial_theorem11_stream,
    all_distinct_stream,
    periodic_burst_stream,
    sorted_stream,
    two_half_stream,
)


class TestFrequencyModel:
    def test_total_and_queries(self):
        model = FrequencyModel(counts={"a": 3, "b": 2})
        assert model.total == 5
        assert model.num_items == 2
        assert model.count("a") == 3
        assert model.count("missing") == 0
        assert model.subset_sum(lambda item: item == "b") == 2
        assert model.subset_total(["a", "b"]) == 5
        assert model.relative_frequency("a") == pytest.approx(0.6)

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidParameterError):
            FrequencyModel(counts={"a": -1})

    def test_sorted_items_and_skew(self):
        model = FrequencyModel(counts={"a": 1, "b": 10, "c": 5})
        assert [item for item, _ in model.sorted_items()] == ["b", "c", "a"]
        assert [item for item, _ in model.sorted_items(ascending=True)] == ["a", "c", "b"]
        skew = model.skew_summary()
        assert skew["mean"] > 0 and skew["cv"] > 0


class TestFrequencyFactories:
    def test_weibull_counts_properties(self):
        model = weibull_counts(num_items=100, scale=50, shape=0.5)
        assert model.num_items == 100
        assert all(count >= 1 for count in model.counts.values())
        # Heavier tail for smaller shape: the max/median ratio grows.
        heavy = weibull_counts(num_items=100, scale=50, shape=0.3)
        light = weibull_counts(num_items=100, scale=50, shape=1.0)
        heavy_ratio = max(heavy.counts.values()) / np.median(list(heavy.counts.values()))
        light_ratio = max(light.counts.values()) / np.median(list(light.counts.values()))
        assert heavy_ratio > light_ratio

    def test_weibull_grid_reproducible(self):
        first = weibull_counts(num_items=50, scale=100, shape=0.4)
        second = weibull_counts(num_items=50, scale=100, shape=0.4)
        assert first.counts == second.counts

    def test_weibull_random_draws(self):
        model = weibull_counts(
            num_items=50, scale=100, shape=0.4, grid=False, rng=np.random.default_rng(0)
        )
        assert model.num_items == 50

    def test_weibull_validation(self):
        with pytest.raises(InvalidParameterError):
            weibull_counts(num_items=10, scale=0, shape=0.5)

    def test_geometric_counts(self):
        model = geometric_counts(num_items=200, success_probability=0.05)
        assert model.num_items == 200
        assert all(count >= 1 for count in model.counts.values())
        with pytest.raises(InvalidParameterError):
            geometric_counts(success_probability=1.5)

    def test_zipf_counts(self):
        model = zipf_counts(num_items=100, exponent=1.2, total=10_000)
        assert model.total == pytest.approx(10_000, rel=0.1)
        with pytest.raises(InvalidParameterError):
            zipf_counts(num_items=100, exponent=1.2, total=10)

    def test_uniform_counts(self):
        model = uniform_counts(num_items=10, count=7)
        assert model.total == 70

    def test_scaled_weibull_counts_hits_target(self):
        model = scaled_weibull_counts(num_items=500, shape=0.3, target_total=50_000)
        assert model.total == pytest.approx(50_000, rel=0.05)
        assert min(model.counts.values()) >= 1
        with pytest.raises(InvalidParameterError):
            scaled_weibull_counts(num_items=100, shape=0.3, target_total=10)

    def test_rescale_to_total(self):
        model = uniform_counts(num_items=10, count=100)
        rescaled = rescale_to_total(model, 500)
        assert rescaled.total == pytest.approx(500, rel=0.05)
        with pytest.raises(InvalidParameterError):
            rescale_to_total(model, 5)


class TestGenerators:
    def test_rows_match_counts_for_every_order(self):
        model = FrequencyModel(counts={1: 3, 2: 2, 3: 1})
        for order in ("shuffled", "grouped", "sorted_ascending", "sorted_descending"):
            rows = rows_from_counts(model, order=order, rng=np.random.default_rng(0))
            assert Counter(iterate_rows(rows)) == {1: 3, 2: 2, 3: 1}

    def test_unknown_order_rejected(self):
        model = FrequencyModel(counts={1: 1})
        with pytest.raises(InvalidParameterError):
            rows_from_counts(model, order="bogus")

    def test_sorted_orders_are_sorted(self):
        model = FrequencyModel(counts={1: 5, 2: 1, 3: 3})
        ascending = list(iterate_rows(rows_from_counts(model, order="sorted_ascending")))
        assert ascending[0] == 2 and ascending[-1] == 1
        descending = list(iterate_rows(rows_from_counts(model, order="sorted_descending")))
        assert descending[0] == 1 and descending[-1] == 2

    def test_exchangeable_stream_is_permutation(self):
        model = FrequencyModel(counts={1: 4, 2: 2})
        stream = exchangeable_stream(model, rng=np.random.default_rng(1))
        assert Counter(iterate_rows(stream)) == {1: 4, 2: 2}

    def test_string_labels_supported(self):
        model = FrequencyModel(counts={"a": 2, "b": 1})
        rows = rows_from_counts(model, order="shuffled", rng=np.random.default_rng(2))
        assert Counter(rows) == {"a": 2, "b": 1}

    def test_iid_stream_length_and_support(self):
        model = FrequencyModel(counts={1: 90, 2: 10})
        stream = iid_stream(model, 500, rng=np.random.default_rng(3))
        assert stream_length(stream) == 500
        counts = Counter(iterate_rows(stream))
        assert counts[1] > counts[2]

    def test_iid_stream_validation(self):
        model = FrequencyModel(counts={1: 1})
        with pytest.raises(InvalidParameterError):
            iid_stream(model, -1)

    def test_round_robin_interleaves(self):
        model = FrequencyModel(counts={"a": 3, "b": 1})
        rows = deterministic_round_robin_stream(model)
        assert rows == ["a", "b", "a", "a"]

    def test_concatenate_streams(self):
        first = np.array([1, 2], dtype=np.int64)
        second = np.array([3], dtype=np.int64)
        combined = concatenate_streams(first, second)
        assert list(combined) == [1, 2, 3]
        assert concatenate_streams() == []
        mixed = concatenate_streams([1, 2], ["a"])
        assert mixed == [1, 2, "a"]


class TestPathologicalStreams:
    def test_two_half_stream_order_and_truth(self):
        first = FrequencyModel(counts={1: 3, 2: 2})
        second = FrequencyModel(counts={10: 4})
        stream, combined = two_half_stream(first, second, rng=np.random.default_rng(0))
        rows = list(iterate_rows(stream))
        assert set(rows[:5]) <= {1, 2}
        assert set(rows[5:]) == {10}
        assert combined.total == 9

    def test_two_half_requires_disjoint_labels(self):
        model = FrequencyModel(counts={1: 1})
        with pytest.raises(InvalidParameterError):
            two_half_stream(model, model)

    def test_sorted_stream_ascending(self):
        model = FrequencyModel(counts={1: 5, 2: 1})
        rows = list(iterate_rows(sorted_stream(model, ascending=True)))
        assert rows[0] == 2 and rows[-1] == 1

    def test_periodic_burst_stream(self):
        background = FrequencyModel(counts={f"bg{k}": 2 for k in range(10)})
        rows, combined = periodic_burst_stream(
            "burst", burst_size=5, num_bursts=3, background=background,
            rng=np.random.default_rng(1),
        )
        assert Counter(rows)["burst"] == 15
        assert combined.count("burst") == 15
        with pytest.raises(InvalidParameterError):
            periodic_burst_stream("bg0", 5, 3, background)

    def test_all_distinct_stream(self):
        rows, model = all_distinct_stream(100)
        assert stream_length(rows) == 100
        assert model.num_items == 100
        assert all(count == 1 for count in model.counts.values())
        with pytest.raises(InvalidParameterError):
            all_distinct_stream(0)

    def test_adversarial_theorem11_stream(self):
        model = FrequencyModel(counts={1: 3, 2: 2, 3: 1})
        rows, combined = adversarial_theorem11_stream(model, num_bins=3)
        assert len(rows) == 2 * model.total
        assert combined.total == 2 * model.total
        # Real items come first, sorted descending by count.
        assert rows[0] == 1

    def test_adversarial_requires_counts_below_threshold(self):
        model = FrequencyModel(counts={1: 100, 2: 1})
        with pytest.raises(InvalidParameterError):
            adversarial_theorem11_stream(model, num_bins=3)


class TestEpochPartition:
    def test_partition_sizes_and_membership(self):
        model = FrequencyModel(counts={k: k for k in range(1, 21)})
        partition = EpochPartition(model, num_epochs=5)
        assert partition.num_epochs == 5
        assert sum(partition.epoch_sizes()) == 20
        assert sum(partition.true_totals()) == model.total
        for epoch in range(5):
            for item in partition.members(epoch):
                assert partition.epoch_of(item) == epoch

    def test_ascending_partition_orders_by_frequency(self):
        model = FrequencyModel(counts={k: k for k in range(1, 11)})
        partition = EpochPartition(model, num_epochs=2, ascending=True)
        assert partition.true_total(0) < partition.true_total(1)

    def test_predicates_and_group_key(self):
        model = FrequencyModel(counts={k: 1 for k in range(1, 9)})
        partition = EpochPartition(model, num_epochs=4)
        predicate = partition.predicate(0)
        members = set(partition.members(0))
        assert all(predicate(item) for item in members)
        assert not predicate("not-an-item")
        key = partition.group_key()
        assert key(next(iter(members))) == 0

    def test_validation(self):
        model = FrequencyModel(counts={1: 1, 2: 1})
        with pytest.raises(InvalidParameterError):
            EpochPartition(model, num_epochs=0)
        with pytest.raises(InvalidParameterError):
            EpochPartition(model, num_epochs=3)
        partition = EpochPartition(model, num_epochs=2)
        with pytest.raises(InvalidParameterError):
            partition.predicate(7)


def _digest(stream) -> str:
    """A short digest of a stream's exact contents (dtype included)."""
    if isinstance(stream, np.ndarray):
        data = str(stream.dtype).encode() + stream.tobytes()
    else:
        data = repr(stream).encode()
    return hashlib.sha256(data).hexdigest()[:16]


#: Digests of every order of three models' rows, and of their
#: exchangeable stream, under ``default_rng(7)``.  Recorded from the
#: per-label expansion; the vectorized one must reproduce them exactly.
EXPANSION_DIGESTS = {
    "int": {
        "grouped": "d2647be89f33712d",
        "shuffled": "744f5df942a714b3",
        "sorted_ascending": "5586a7c9213361e2",
        "sorted_descending": "d2647be89f33712d",
        "exchangeable": "744f5df942a714b3",
    },
    "bool": {
        "grouped": "175a5e497ab3c365",
        "shuffled": "c13682d28235961a",
        "sorted_ascending": "cfd9c494d976f5af",
        "sorted_descending": "175a5e497ab3c365",
        "exchangeable": "c13682d28235961a",
    },
    "tuple": {
        "grouped": "0c8a6d4159f9323b",
        "shuffled": "5d34ff089815f1bc",
        "sorted_ascending": "aea7d2d860b1d10c",
        "sorted_descending": "31f3571c5df8201e",
        "exchangeable": "5d34ff089815f1bc",
    },
}

EXPANSION_MODELS = {
    "int": lambda: zipf_counts(num_items=50, exponent=1.1, total=2000),
    "bool": lambda: FrequencyModel(counts={True: 7, False: 3}),
    "tuple": lambda: FrequencyModel(
        counts={("a", 1): 4, ("b", 2): 9, ("c", 0): 1, ("a", 2): 2}
    ),
}


class TestExpansionIsPinned:
    @pytest.mark.parametrize("name", sorted(EXPANSION_MODELS))
    @pytest.mark.parametrize(
        "order", ["grouped", "shuffled", "sorted_ascending", "sorted_descending"]
    )
    def test_rows_from_counts(self, name, order):
        model = EXPANSION_MODELS[name]()
        rows = rows_from_counts(model, order=order, rng=np.random.default_rng(7))
        assert _digest(rows) == EXPANSION_DIGESTS[name][order]

    @pytest.mark.parametrize("name", sorted(EXPANSION_MODELS))
    def test_exchangeable_stream(self, name):
        model = EXPANSION_MODELS[name]()
        rows = exchangeable_stream(model, rng=np.random.default_rng(7))
        assert _digest(rows) == EXPANSION_DIGESTS[name]["exchangeable"]

    def test_integer_and_bool_labels_expand_to_int64(self):
        assert rows_from_counts(EXPANSION_MODELS["bool"](), order="grouped").tolist() == (
            [1] * 7 + [0] * 3
        )
        rows = rows_from_counts(EXPANSION_MODELS["tuple"](), order="grouped")
        assert isinstance(rows, list) and rows[:5] == [("a", 1)] * 4 + [("b", 2)]

    def test_factories_keep_python_int_counts(self):
        for model in (zipf_counts(num_items=20), weibull_counts(num_items=20)):
            assert all(type(count) is int for count in model.counts.values())

    def test_negative_count_names_the_first_offender(self):
        with pytest.raises(InvalidParameterError, match="'b'"):
            FrequencyModel(counts={"a": 1, "b": -2, "c": -1})
