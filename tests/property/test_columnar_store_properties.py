"""Property-based tests for the columnar counter store against a dict model."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.columnar import ColumnarCounterStore


def make_store(capacity, seed=0, **kwargs):
    generator = np.random.Generator(np.random.PCG64(seed))
    return ColumnarCounterStore(capacity, generator=generator, **kwargs)


@settings(max_examples=60, deadline=None)
@given(
    counts=st.dictionaries(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=50),
        min_size=1,
        max_size=40,
    )
)
def test_bulk_load_matches_dict_model(counts):
    """Loading arbitrary (label, count) pairs reproduces the dict exactly."""
    store = make_store(40)
    store.load(list(counts), list(counts.values()))
    assert store.counts() == counts
    assert store.min_count() == min(counts.values())
    assert len(store) == len(counts)


@settings(max_examples=60, deadline=None)
@given(
    counts=st.dictionaries(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=20),
        min_size=1,
        max_size=25,
    ),
    increments=st.lists(
        st.tuples(st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=10)),
        max_size=60,
    ),
)
def test_increments_match_dict_model(counts, increments):
    """Rows for labels already held add exactly and never relabel."""
    store = make_store(25)
    model = dict(counts)
    store.load(list(counts), list(counts.values()))
    for label, step in increments:
        if label in model:
            assert store.apply_one(label, float(step)) == 0
            model[label] += step
    assert store.counts() == model


@settings(max_examples=60, deadline=None)
@given(
    counts=st.dictionaries(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=1, max_value=20),
        min_size=1,
        max_size=25,
    ),
    batches=st.lists(
        st.dictionaries(
            st.integers(min_value=0, max_value=60),
            st.integers(min_value=1, max_value=10),
            max_size=15,
        ),
        max_size=8,
    ),
)
def test_present_batches_match_dict_model(counts, batches):
    """Batches of held labels are a scatter-add, through either label form."""
    store = make_store(25)
    model = dict(counts)
    store.load(list(counts), list(counts.values()))
    for position, batch in enumerate(batches):
        held = {label: step for label, step in batch.items() if label in model}
        unique = list(held)
        if position % 2:
            unique = np.asarray(unique, dtype=np.int64)
        assert store.apply_batch(unique, list(held.values())) == 0
        for label, step in held.items():
            model[label] += step
    assert store.counts() == model


@settings(max_examples=40, deadline=None)
@given(
    head=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=80),
    tail=st.lists(st.integers(min_value=0, max_value=30), max_size=40),
    capacity=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_frame_round_trip_continues_identically(head, tail, capacity, seed):
    """A store rebuilt from its frame is indistinguishable from the original."""
    store = make_store(capacity, seed, track_errors=True)
    for item in head:
        store.apply_one(item, 1.0)
    meta, arrays = store.frame()
    clone = make_store(capacity, seed + 1, track_errors=True)
    clone.load_frame(meta, arrays)
    assert clone.counts() == store.counts()
    for item in tail:
        assert clone.apply_one(item, 1.0) == store.apply_one(item, 1.0)
    assert clone.counts() == store.counts()
    for item in store.counts():
        assert clone.acquisition_error(item) == store.acquisition_error(item)


class ColumnarStoreMachine(RuleBasedStateMachine):
    """Stateful test: random interleavings of increments, inserts and contests.

    The model is the exact bin map.  Increments and free-slot inserts
    must match it exactly; a contest must move the minimum count ``m``
    to ``m + w`` and either keep the old label or hand the bin to the
    new one, and nothing else may change.
    """

    capacity = 6

    def __init__(self):
        super().__init__()
        self.store = make_store(self.capacity, seed=3, track_errors=True)
        self.model = {}
        self.next_label = 0

    def _new_label(self):
        label = self.next_label
        self.next_label += 1
        return label

    @rule(weight=st.integers(min_value=1, max_value=9), always_replace=st.booleans())
    def new_label(self, weight, always_replace):
        label = self._new_label()
        weight = float(weight)
        before = dict(self.model)
        replaced = self.store.apply_one(label, weight, always_replace=always_replace)
        after = self.store.counts()
        if len(before) < self.capacity:
            assert replaced == 0
            before[label] = weight
            assert after == before
            assert self.store.acquisition_error(label) == 0.0
        else:
            level = min(before.values())
            changed = {key for key in after if before.get(key) != after[key]}
            assert len(changed) == 1
            (winner,) = changed
            assert after[winner] == level + weight
            if replaced:
                assert winner == label
                (loser,) = set(before) - set(after)
                assert before[loser] == level
                assert self.store.acquisition_error(label) == level
            else:
                assert not always_replace
                assert set(after) == set(before)
                assert before[winner] == level
        self.model = after

    @precondition(lambda self: self.model)
    @rule(data=st.data(), step=st.integers(min_value=1, max_value=7))
    def increment(self, data, step):
        label = data.draw(st.sampled_from(sorted(self.model)))
        assert self.store.apply_one(label, float(step)) == 0
        self.model[label] += step

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def increment_batch(self, data):
        labels = data.draw(st.lists(st.sampled_from(sorted(self.model)), unique=True))
        steps = [float(index + 1) for index in range(len(labels))]
        assert self.store.apply_batch(labels, steps) == 0
        for label, step in zip(labels, steps):
            self.model[label] += step

    @invariant()
    def matches_model(self):
        assert self.store.counts() == self.model
        assert len(self.store) <= self.capacity
        if self.model:
            assert self.store.min_count() == min(self.model.values())


TestColumnarStoreStateful = ColumnarStoreMachine.TestCase
TestColumnarStoreStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
