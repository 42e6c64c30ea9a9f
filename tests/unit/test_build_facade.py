"""``repro.build`` facade tests.

Covers: sessions for every registered spec, backend-transparent equality
(inline / sharded sessions equal to the hand-constructed sketches and
ensembles on a seeded workload), the normalized query
surface (EstimateWithError / QueryResult everywhere), construction
validation, and query-engine integration.

Part of the CI ``deprecations`` job subset: must pass under
``-W error::DeprecationWarning``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    QueryResult,
    StreamSession,
    available_specs,
    build,
    get_spec,
)
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.core.variance import EstimateWithError
from repro.distributed.sharded import ShardedSketch
from repro.errors import CapabilityError, InvalidParameterError
from repro.query.engine import SketchQueryEngine

SEED = 20180618
NUM_SHARDS = 4
CAPACITY = 64

#: Duplicate-free scalar workload ingestible by every spec.
SCALAR_WORKLOAD = [f"item{i % 50}" for i in range(500)]


# ----------------------------------------------------------------------
# Sessions for every registered spec
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", available_specs())
def test_build_produces_working_session(name):
    session = build(name, size=CAPACITY, seed=SEED)
    assert isinstance(session, StreamSession)
    assert session.spec_name == name
    assert session.backend == "inline"
    session.extend(SCALAR_WORKLOAD)
    assert session.rows_processed == len(SCALAR_WORKLOAD)
    # The declared capabilities drive the normalized surface.
    spec = get_spec(name)
    assert spec.capabilities <= session.capabilities
    assert isinstance(session.total(), EstimateWithError)
    point = session.estimate("item0")
    assert isinstance(point, EstimateWithError)
    if "subset_sum" in session.capabilities:
        result = session.subset_sum(lambda item: item.endswith("0"))
        assert isinstance(result, EstimateWithError)
    if "heavy_hitters" in session.capabilities:
        assert isinstance(session.heavy_hitters(0.01), QueryResult)
        ranked = session.top_k(3)
        assert isinstance(ranked, QueryResult)
        assert len(ranked.groups) <= 3


@pytest.mark.parametrize("name", ["misra_gries", "bottom_k", "deterministic_space_saving"])
def test_facade_equals_direct_construction(name):
    """Inline sessions are the hand-built sketch, state for state."""
    session = build(name, size=CAPACITY, seed=SEED)
    direct = get_spec(name).resolve()(CAPACITY, seed=SEED)
    session.extend(SCALAR_WORKLOAD)
    direct.extend(SCALAR_WORKLOAD)
    assert session.estimates() == direct.estimates()


# ----------------------------------------------------------------------
# Backend-transparent equality on a seeded workload (acceptance check)
# ----------------------------------------------------------------------
@pytest.fixture
def chunked_workload(batch_workload):
    chunk = len(batch_workload) // 3 + 1
    return [
        batch_workload[start : start + chunk]
        for start in range(0, len(batch_workload), chunk)
    ]


def _ingest_chunks(target, chunks):
    for chunk in chunks:
        target.update_batch(chunk)
    return target


def test_inline_session_equals_hand_built_sketch(chunked_workload):
    session = _ingest_chunks(
        build("unbiased_space_saving", size=CAPACITY, seed=SEED), chunked_workload
    )
    direct = _ingest_chunks(UnbiasedSpaceSaving(CAPACITY, seed=SEED), chunked_workload)
    assert session.estimates() == direct.estimates()
    assert session.total().estimate == direct.total_estimate()


def test_sharded_session_equals_hand_built_sharded(chunked_workload):
    session = _ingest_chunks(
        build(
            "unbiased_space_saving",
            size=CAPACITY,
            backend="sharded",
            num_shards=NUM_SHARDS,
            seed=SEED,
        ),
        chunked_workload,
    )
    direct = _ingest_chunks(
        ShardedSketch(CAPACITY, NUM_SHARDS, seed=SEED), chunked_workload
    )
    assert session.estimates() == direct.estimates()
    predicate = lambda item: item % 3 == 0  # noqa: E731
    assert session.subset_sum(predicate) == direct.subset_sum_with_error(predicate)
    assert session.merged(seed=7).estimates() == direct.merged(seed=7).estimates()


def test_numpy_batches_route_through_backends(chunked_workload):
    array_chunks = [np.asarray(chunk, dtype=np.int64) for chunk in chunked_workload]
    list_session = _ingest_chunks(
        build("unbiased_space_saving", size=CAPACITY, backend="sharded",
              num_shards=NUM_SHARDS, seed=SEED),
        chunked_workload,
    )
    array_session = _ingest_chunks(
        build("unbiased_space_saving", size=CAPACITY, backend="sharded",
              num_shards=NUM_SHARDS, seed=SEED),
        array_chunks,
    )
    assert list_session.estimates() == array_session.estimates()


# ----------------------------------------------------------------------
# Normalized query surface
# ----------------------------------------------------------------------
def test_every_read_path_is_normalized():
    session = build("unbiased_space_saving", size=16, seed=0)
    session.update_batch(["a"] * 30 + ["b"] * 10 + ["c"] * 5)
    assert isinstance(session.estimate("a"), EstimateWithError)
    assert isinstance(session.estimate("missing"), EstimateWithError)
    assert session.estimate("missing").estimate == 0.0
    assert isinstance(session.subset_sum(lambda item: item == "a"), EstimateWithError)
    assert isinstance(session.total(), EstimateWithError)
    hitters = session.heavy_hitters(0.5)
    assert isinstance(hitters, QueryResult) and hitters.is_grouped
    ranked = session.top_k(2)
    assert list(ranked.groups) == ["a", "b"]
    grouped = session.select_sum(group_by=lambda item: item)
    assert isinstance(grouped, QueryResult)
    scalar = session.select_sum(where=lambda item: item != "c")
    assert scalar.with_error.estimate == pytest.approx(40.0)


def test_point_estimates_carry_subset_variance():
    session = build("unbiased_space_saving", size=4, seed=0)
    session.update_batch(list(range(100)))  # force evictions -> min_count > 0
    point = session.estimate(0)
    assert point.variance > 0.0


def test_total_uses_exact_bookkeeping_not_tracked_view():
    """A hashed-sketch session must report the true ingested weight, not
    the sum of its bounded tracked view."""
    session = build("countmin", size=256, seed=0)
    session.update_batch([f"item{i}" for i in range(1000)])
    total = session.total()
    assert total.estimate == 1000.0
    assert total.variance == 0.0


def test_capabilities_of_session_reflect_estimator():
    """repro.capabilities(session) must not over-report the session's
    structural surface beyond what the wrapped estimator answers."""
    from repro.api import capabilities

    gated = build("countmin", size=64, seed=0, track_heavy_hitters=0)
    assert "point" not in capabilities(gated)
    assert "subset_sum" not in capabilities(gated)
    assert "heavy_hitters" not in capabilities(gated)
    full = build("unbiased_space_saving", size=8, seed=0)
    assert {"point", "subset_sum", "heavy_hitters"} <= capabilities(full)


def test_session_capability_errors():
    session = build("countmin", size=64, seed=0, track_heavy_hitters=0)
    session.update("a")
    with pytest.raises(CapabilityError):
        session.estimates()
    with pytest.raises(CapabilityError):
        session.heavy_hitters(0.1)
    with pytest.raises(CapabilityError):
        session.subset_sum(lambda item: True)
    with pytest.raises(CapabilityError):
        session.merged()
    with pytest.raises(CapabilityError):
        session.merge(session)


def test_session_merge_combines_mergeable_estimators():
    left = build("misra_gries", size=32, seed=0).extend(["a"] * 5 + ["b"] * 3)
    right = build("misra_gries", size=32, seed=0).extend(["a"] * 2 + ["c"] * 4)
    combined = left.merge(right)
    assert isinstance(combined, StreamSession)
    assert combined.estimate("a").estimate >= 5.0


def test_session_serialization_surface(tmp_path):
    session = build("unbiased_space_saving", size=16, seed=3)
    session.update_batch(["x", "y", "x"])
    from repro.io.registry import load_bytes

    restored = load_bytes(session.to_bytes())
    assert restored.estimates() == session.estimates()
    path = tmp_path / "session.sketch"
    session.save_checkpoint(path)
    assert path.exists()


def test_wrapping_requires_update_method():
    with pytest.raises(CapabilityError):
        StreamSession(object())


# ----------------------------------------------------------------------
# Construction validation
# ----------------------------------------------------------------------
def test_unknown_spec_and_backend_rejected():
    with pytest.raises(InvalidParameterError):
        build("no_such_sketch", size=8)
    with pytest.raises(InvalidParameterError):
        build("unbiased_space_saving", size=8, backend="quantum")


def test_inline_rejects_scale_out_arguments():
    with pytest.raises(InvalidParameterError):
        build("unbiased_space_saving", size=8, num_shards=4)
    with pytest.raises(InvalidParameterError):
        build("unbiased_space_saving", size=8, num_workers=2)


def test_retired_parallel_backend_is_a_typed_error():
    with pytest.raises(InvalidParameterError, match="parallel"):
        build("unbiased_space_saving", size=8, backend="parallel")
    with pytest.raises(InvalidParameterError, match="num_workers"):
        build("unbiased_space_saving", size=8, backend="sharded", num_workers=2)


def test_unknown_spec_parameters_rejected():
    with pytest.raises(InvalidParameterError, match="depht"):
        build("countmin", size=32, depht=3)


def test_scale_out_backend_requires_capability():
    for name in ("misra_gries", "countmin", "bottom_k"):
        with pytest.raises(CapabilityError):
            build(name, size=16, backend="sharded", num_shards=2)


def test_spec_parameters_apply_inline():
    session = build("countmin", size=32, depth=6, seed=0)
    assert session.estimator.depth == 6


def test_store_parameter_rejected():
    # The columnar store is the only counter store; store= is unknown.
    for spec in ("unbiased_space_saving", "deterministic_space_saving"):
        with pytest.raises(InvalidParameterError, match="store"):
            build(spec, size=8, store="heap", seed=0)


# ----------------------------------------------------------------------
# Query engine integration
# ----------------------------------------------------------------------
def test_query_engine_accepts_sessions(batch_workload):
    session = build("unbiased_space_saving", size=CAPACITY, seed=SEED)
    session.update_batch(batch_workload)
    engine_on_session = SketchQueryEngine(session)
    engine_on_sketch = SketchQueryEngine(session.estimator)
    predicate = lambda item: item % 2 == 0  # noqa: E731
    assert (
        engine_on_session.select_sum(where=predicate).with_error
        == engine_on_sketch.select_sum(where=predicate).with_error
    )


def test_query_engine_candidates_path():
    session = build("count_sketch", size=128, track_keys=0, seed=1)
    session.update_batch(["x"] * 40 + ["y"] * 10)
    engine = SketchQueryEngine(session.estimator, candidates=["x", "y"])
    result = engine.select_sum(where=lambda item: item == "x")
    assert result.value == pytest.approx(40.0, abs=15.0)
