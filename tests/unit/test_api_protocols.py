"""Protocol-layer conformance suite.

Asserts that every registered sketch spec builds an estimator satisfying
the protocols it declares, that the :func:`repro.api.capabilities`
inspector reflects configuration (tracked vs untracked hashed sketches),
that capability-typed entry points raise :class:`CapabilityError` instead
of ``AttributeError``, and that the one-release deprecation shims still
work while warning.

This module (together with ``test_build_facade.py``) is the CI
``deprecations`` job's test subset: it must pass under
``-W error::DeprecationWarning``, so nothing here may route through a
deprecated shim outside ``pytest.deprecated_call()``.
"""

from __future__ import annotations

import pytest

from repro.api import (
    CAPABILITY_PROTOCOLS,
    HEAVY_HITTERS,
    MERGE,
    POINT,
    SERIALIZE,
    SUBSET_SUM,
    HeavyHitterEstimator,
    Mergeable,
    PointEstimator,
    Serializable,
    SubsetSumEstimator as SubsetSumProtocol,
    available_specs,
    build,
    capabilities,
    get_spec,
    iter_specs,
    require_capability,
    supports,
)
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.core.variance import EstimateWithError
from repro.errors import CapabilityError, InvalidParameterError
from repro.frequent.count_sketch import CountSketch
from repro.frequent.countmin import CountMinSketch
from repro.io.registry import load_bytes
from repro.query.subset_sum import SubsetSumEstimator

SIZE = 64
SEED = 20180618

#: A duplicate-free workload every spec (including the unit-row family)
#: can ingest through scalar updates.
WORKLOAD = [f"item{i % 40}" for i in range(400)]


def built(name):
    session = build(name, size=SIZE, seed=SEED)
    session.extend(WORKLOAD)
    return session


# ----------------------------------------------------------------------
# Conformance: every registered spec satisfies what it declares
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", iter_specs(), ids=lambda spec: spec.name)
def test_spec_conformance(spec):
    session = built(spec.name)
    estimator = session.estimator
    observed = capabilities(estimator)
    assert spec.capabilities <= observed, (
        f"{spec.name} declares {sorted(spec.capabilities)} "
        f"but provides {sorted(observed)}"
    )
    # Structural protocol checks agree with the inspector.
    for name, protocol in CAPABILITY_PROTOCOLS.items():
        if name in observed:
            assert isinstance(estimator, protocol)


@pytest.mark.parametrize("spec", iter_specs(), ids=lambda spec: spec.name)
def test_declared_capabilities_are_exercisable(spec):
    """Each declared capability answers real queries with the right types."""
    estimator = built(spec.name).estimator
    caps = capabilities(estimator)
    if POINT in caps:
        estimates = estimator.estimates()
        assert estimates, "ingested estimator should retain items"
        item = next(iter(estimates))
        assert isinstance(estimator.estimate(item), float)
    if SUBSET_SUM in caps:
        predicate = lambda item: True  # noqa: E731
        total = estimator.subset_sum(predicate)
        assert isinstance(total, float)
        with_error = estimator.subset_sum_with_error(predicate)
        assert isinstance(with_error, EstimateWithError)
        assert with_error.variance >= 0.0
    if HEAVY_HITTERS in caps:
        hitters = estimator.heavy_hitters(0.02)
        assert isinstance(hitters, dict)
        ranked = estimator.top_k(3)
        assert len(ranked) <= 3
        assert all(isinstance(pair, tuple) and len(pair) == 2 for pair in ranked)
    if SERIALIZE in caps:
        restored = load_bytes(estimator.to_bytes())
        assert type(restored) is type(estimator)
        if POINT in caps:
            assert restored.estimates() == estimator.estimates()
    if MERGE in caps:
        other = built(spec.name).estimator
        merged = estimator.merge(other)
        assert merged is not None


# ----------------------------------------------------------------------
# The capabilities inspector
# ----------------------------------------------------------------------
def test_capabilities_structural_baseline():
    sketch = UnbiasedSpaceSaving(capacity=8, seed=0)
    assert capabilities(sketch) == frozenset(
        {POINT, SUBSET_SUM, HEAVY_HITTERS, MERGE, SERIALIZE}
    )
    assert isinstance(sketch, PointEstimator)
    assert isinstance(sketch, SubsetSumProtocol)
    assert isinstance(sketch, HeavyHitterEstimator)
    assert isinstance(sketch, Mergeable)
    assert isinstance(sketch, Serializable)


def test_capabilities_of_plain_objects():
    assert capabilities(42) == frozenset()
    assert capabilities({"a": 1.0}) == frozenset()


def test_configuration_refines_capabilities():
    tracked = CountMinSketch(width=32, depth=2, track_heavy_hitters=4)
    untracked = CountMinSketch(width=32, depth=2)
    assert {POINT, HEAVY_HITTERS} <= capabilities(tracked)
    assert POINT not in capabilities(untracked)
    assert HEAVY_HITTERS not in capabilities(untracked)
    assert SERIALIZE in capabilities(untracked)

    sketch = CountSketch(width=32, depth=3, seed=0)
    assert capabilities(sketch) == frozenset({SERIALIZE})
    assert capabilities(CountSketch(width=32, depth=3, seed=0, track_keys=4)) == (
        frozenset({SERIALIZE, POINT, HEAVY_HITTERS})
    )


def test_supports_and_require():
    sketch = UnbiasedSpaceSaving(capacity=4, seed=0)
    assert supports(sketch, SUBSET_SUM)
    require_capability(sketch, SUBSET_SUM)
    with pytest.raises(CapabilityError):
        supports(sketch, "telepathy")
    with pytest.raises(CapabilityError):
        require_capability(CountSketch(width=8, depth=2), POINT, operation="estimates")


@pytest.mark.parametrize("capability", sorted(CAPABILITY_PROTOCOLS))
@pytest.mark.parametrize(
    "name", [spec.name for spec in iter_specs()] + ["untracked_countmin"]
)
def test_supports_agrees_with_capabilities(name, capability):
    if name == "untracked_countmin":
        obj = CountMinSketch(width=16, depth=2)
    else:
        obj = built(name).estimator
    assert supports(obj, capability) == (capability in capabilities(obj))


# ----------------------------------------------------------------------
# CapabilityError surfaces
# ----------------------------------------------------------------------
def test_count_sketch_enumeration_requires_tracking():
    sketch = CountSketch(width=32, depth=3, seed=1)
    sketch.update("hot")
    with pytest.raises(CapabilityError):
        sketch.estimates()
    with pytest.raises(CapabilityError):
        sketch.heavy_hitters(0.1)
    # An explicit candidate set always works.
    assert set(sketch.estimates(candidates=["hot", "cold"])) == {"hot", "cold"}


def test_count_sketch_tracked_view():
    sketch = CountSketch(width=64, depth=5, seed=3, track_keys=4)
    rows = ["hot"] * 60 + ["warm"] * 30 + [f"cold{i}" for i in range(20)]
    sketch.extend(rows)
    view = sketch.estimates()
    assert "hot" in view and len(view) <= 4
    assert "hot" in sketch.heavy_hitters(0.3)
    assert sketch.top_k(1)[0][0] == "hot"


def test_countmin_heavy_hitters_error_is_backward_compatible():
    sketch = CountMinSketch(width=16, depth=2)
    sketch.update("a")
    with pytest.raises(CapabilityError):
        sketch.heavy_hitters(0.1)
    # CapabilityError remains catchable as the historical type.
    with pytest.raises(InvalidParameterError):
        sketch.heavy_hitters(0.1)
    with pytest.raises(CapabilityError):
        sketch.estimates()
    assert sketch.estimates(candidates=["a"]) == {"a": 1.0}


def test_countmin_heavy_hitters_matches_base_contract():
    sketch = CountMinSketch(width=128, depth=4, track_heavy_hitters=8, seed=3)
    sketch.extend(["hot"] * 200 + [f"c{i}" for i in range(100)])
    hitters = sketch.heavy_hitters(0.3)
    assert "hot" in hitters
    assert all(value > 0 for value in hitters.values())
    assert sketch.top_k(1)[0][0] == "hot"


# ----------------------------------------------------------------------
# SubsetSumEstimator capability handling (query layer)
# ----------------------------------------------------------------------
class _EstimatesForOnly:
    """A source exposing only the legacy estimates_for(items) shape."""

    def __init__(self, values):
        self._values = values

    def estimates_for(self, items):
        return {item: self._values.get(item, 0.0) for item in items}


def test_subset_sum_estimator_accepts_point_source_with_candidates():
    sketch = CountSketch(width=128, depth=5, seed=2)
    sketch.extend(["x"] * 30 + ["y"] * 10)
    estimator = SubsetSumEstimator(sketch, candidates=["x", "y", "z"])
    assert estimator.subset_sum(lambda item: item == "x") == pytest.approx(30.0, abs=10)
    result = estimator.subset_sum_with_error(lambda item: True)
    assert isinstance(result, EstimateWithError)


def test_subset_sum_estimator_accepts_estimates_for_only_source():
    source = _EstimatesForOnly({"a": 3.0, "b": 2.0})
    estimator = SubsetSumEstimator(source, candidates=["a", "b"])
    assert estimator.subset_sum(lambda item: True) == 5.0


def test_subset_sum_estimator_rejects_enumeration_without_candidates():
    sketch = CountSketch(width=16, depth=2, seed=0)
    estimator = SubsetSumEstimator(sketch)
    with pytest.raises(CapabilityError, match="candidates"):
        estimator.subset_sum(lambda item: True)
    with pytest.raises(CapabilityError):
        SubsetSumEstimator(_EstimatesForOnly({})).subset_sum(lambda item: True)


def test_subset_sum_estimator_invalid_source_stays_invalid_parameter():
    with pytest.raises(InvalidParameterError):
        SubsetSumEstimator(42).subset_sum(lambda item: True)


# ----------------------------------------------------------------------
# Mergeable retrofit
# ----------------------------------------------------------------------
def test_unbiased_space_saving_merge_method():
    left = UnbiasedSpaceSaving(capacity=16, seed=0).extend(["a"] * 10 + ["b"] * 5)
    right = UnbiasedSpaceSaving(capacity=16, seed=1).extend(["b"] * 7 + ["c"] * 3)
    merged = left.merge(right, seed=7)
    assert merged.total_estimate() == pytest.approx(25.0)
    # Inputs are untouched.
    assert left.total_estimate() == pytest.approx(15.0)
    assert right.total_estimate() == pytest.approx(10.0)


# ----------------------------------------------------------------------
# Informative __repr__ (satellite)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", iter_specs(), ids=lambda spec: spec.name)
def test_estimator_repr_is_informative(spec):
    estimator = built(spec.name).estimator
    text = repr(estimator)
    assert type(estimator).__name__ in text
    assert "=" in text  # at least one configured parameter


def test_session_repr_names_spec_and_backend():
    session = built("unbiased_space_saving")
    text = repr(session)
    assert "unbiased_space_saving" in text
    assert "inline" in text
    assert "rows_processed=400" in text


def test_ensemble_reprs():
    from repro.distributed.sharded import ShardedSketch

    sharded = ShardedSketch(8, 4, seed=0)
    assert "num_shards=4" in repr(sharded)


# ----------------------------------------------------------------------
# The one-release deprecation shims are gone: the old spellings now fail
# fast with AttributeError rather than silently diverging.
# ----------------------------------------------------------------------
def test_deprecated_shims_removed():
    assert not hasattr(UnbiasedSpaceSaving(capacity=8, seed=0), "update_stream")
    assert not hasattr(CountSketch(width=32, depth=3, seed=0), "estimates_for")


# ----------------------------------------------------------------------
# Registry wiring
# ----------------------------------------------------------------------
def test_available_specs_is_sorted_and_nonempty():
    names = available_specs()
    assert names == tuple(sorted(names))
    assert "unbiased_space_saving" in names


def test_get_spec_unknown_name_lists_registry():
    with pytest.raises(InvalidParameterError, match="unbiased_space_saving"):
        get_spec("not_a_sketch")


def test_specs_resolve_through_io_registry():
    """Serializable specs share class resolution with repro.io."""
    from repro.io.registry import registered_types

    io_types = registered_types()
    for spec in iter_specs():
        cls = spec.resolve()
        assert cls.__name__ == spec.type_name
        if spec.module is None:
            assert spec.type_name in io_types
