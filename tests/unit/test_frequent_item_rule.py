"""One frequent-item read rule behind every ``top_k`` and ``heavy_hitters``.

Every estimator that advertises the heavy-hitter capability, each window
kind and the sharded ensemble answers ``top_k(k)`` as
``ranked_pairs(estimates, k=k)`` and ``heavy_hitters(phi)`` as
``ranked_pairs(estimates, threshold=phi * total)`` over its own estimates
and total, and refuses a bad ``k`` or ``phi`` with
:class:`~repro.errors.InvalidParameterError` on every path.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import HEAVY_HITTERS, build, iter_specs
from repro.core.base import ranked_pairs
from repro.core.deterministic_space_saving import DeterministicSpaceSaving
from repro.errors import InvalidParameterError
from repro.frequent.hierarchical import HierarchicalHeavyHitters
from repro.frequent.misra_gries import MisraGriesSketch

SIZE = 16
SEED = 20180618

#: Skewed labels in tied pairs (x00/x01 share a count, and so on), so both
#: the count order and the ``repr`` tie-break matter.
ROWS = [f"x{i:02d}" for i in range(40) for _ in range(max(1, 24 - 2 * (i // 2)))]
np.random.default_rng(SEED).shuffle(ROWS)
TIMESTAMPS = [0.5 * index for index in range(len(ROWS))]

KS = (0, 1, 5, 100)
PHIS = (0.01, 0.05, 0.2, 1.0)
BAD_KS = (-1, 2.7, True)
BAD_PHIS = (0, 1.5, math.nan, True)


def _inline(name):
    session = build(name, size=SIZE, seed=SEED)
    session.extend(ROWS)
    sketch = session.estimator
    return sketch, sketch.estimates, lambda: sketch.total_weight


def _windowed(window):
    session = build("unbiased_space_saving", size=SIZE, seed=SEED, window=window)
    session.update_batch(ROWS, timestamps=TIMESTAMPS)
    sketch = session.estimator
    if window.startswith("decay"):
        return sketch, sketch.estimates, lambda: sum(sketch.estimates().values())
    return sketch, sketch.estimates, sketch.total_estimate


def _sharded():
    session = build(
        "unbiased_space_saving", size=SIZE, seed=SEED, backend="sharded", num_shards=3
    )
    session.update_batch(ROWS)
    sketch = session.estimator
    return sketch, sketch.estimates, lambda: sketch.total_weight


CASES = {
    **{
        spec.name: (lambda name=spec.name: _inline(name))
        for spec in iter_specs()
        if HEAVY_HITTERS in spec.capabilities
    },
    "sliding": lambda: _windowed("sliding:2m/30s"),
    "tumbling": lambda: _windowed("tumbling:60s"),
    "decay": lambda: _windowed("decay:exp:0.01"),
    "sharded": _sharded,
}


@pytest.fixture(params=sorted(CASES), ids=str)
def case(request):
    return CASES[request.param]()


def test_top_k_is_the_ranked_estimates(case):
    sketch, estimates, _ = case
    for k in KS:
        assert sketch.top_k(k) == ranked_pairs(estimates(), k=k)


def test_heavy_hitters_are_the_ranked_estimates_above_phi_total(case):
    sketch, estimates, total = case
    for phi in PHIS:
        assert list(sketch.heavy_hitters(phi).items()) == ranked_pairs(
            estimates(), threshold=phi * total()
        )


@pytest.mark.parametrize("k", BAD_KS, ids=repr)
def test_bad_k_is_a_typed_error(case, k):
    sketch, _, _ = case
    with pytest.raises(InvalidParameterError, match="'k'"):
        sketch.top_k(k)


@pytest.mark.parametrize("phi", BAD_PHIS, ids=repr)
def test_bad_phi_is_a_typed_error(case, phi):
    sketch, _, _ = case
    with pytest.raises(InvalidParameterError, match="'phi'"):
        sketch.heavy_hitters(phi)


def test_inline_and_sharded_heavy_hitters_match_in_order():
    # Capacity above the distinct count keeps both answers exact, so the
    # one rule makes them the same mapping in the same order.
    inline = build("unbiased_space_saving", size=64, seed=SEED)
    sharded = build(
        "unbiased_space_saving", size=64, seed=SEED, backend="sharded", num_shards=3
    )
    for session in (inline, sharded):
        session.update_batch(ROWS)
    for phi in PHIS:
        left = inline.estimator.heavy_hitters(phi)
        right = sharded.estimator.heavy_hitters(phi)
        assert list(left.items()) == list(right.items())
    assert inline.estimator.top_k(10) == sharded.estimator.top_k(10)


@pytest.mark.parametrize("phi", BAD_PHIS, ids=repr)
def test_guaranteed_and_hierarchical_filters_check_phi(phi):
    dss = DeterministicSpaceSaving(SIZE, seed=SEED)
    misra_gries = MisraGriesSketch(SIZE)
    hierarchy = HierarchicalHeavyHitters(depth=2, capacity=SIZE, seed=SEED)
    for sketch in (dss, misra_gries):
        sketch.extend(ROWS)
        with pytest.raises(InvalidParameterError):
            sketch.guaranteed_heavy_hitters(phi)
    with pytest.raises(InvalidParameterError):
        hierarchy.hierarchical_heavy_hitters(phi)

