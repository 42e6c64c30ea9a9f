"""The sketch spec registry behind :func:`repro.build`.

A :class:`SketchSpec` describes one buildable estimator: the class it
resolves to, how a ``(size, seed, params)`` triple maps onto that class's
constructor, the capabilities a default-configured instance provides, and
which execution backends (``inline`` / ``sharded``) it can
run on.  Class resolution goes through the :mod:`repro.io` type registry
first — the same ``type name -> module`` map the serialization layer
dispatches on — so a spec'd type and a deserializable type are the same
notion wherever possible; non-serializable estimators carry an explicit
``module`` fallback.

>>> spec = get_spec("unbiased_space_saving")
>>> spec.type_name
'UnbiasedSpaceSaving'
>>> sorted(spec.backends)
['inline', 'sharded']
>>> "misra_gries" in available_specs()
True
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple, Type

from repro.api.protocols import HEAVY_HITTERS, MERGE, POINT, SERIALIZE, SUBSET_SUM
from repro.errors import InvalidParameterError, SerializationError

__all__ = [
    "SketchSpec",
    "register_spec",
    "get_spec",
    "available_specs",
    "iter_specs",
]

#: ``(cls, size, seed, params)`` -> estimator instance.  ``params`` is a
#: private mutable copy: factories pop what they consume and the builder
#: rejects leftovers so typos fail loudly.
SpecFactory = Callable[[Type, int, Optional[int], Dict[str, Any]], Any]


@dataclass(frozen=True)
class SketchSpec:
    """A buildable estimator type and its construction/capability contract.

    Attributes
    ----------
    name:
        The spec name accepted by :func:`repro.build`.
    type_name:
        The class name, resolved through the :mod:`repro.io` type registry
        (or ``module`` when the class is not serializable).
    summary:
        One-line description shown in error messages and docs.
    capabilities:
        Capability names a *default-configured* instance provides; the
        conformance suite asserts each built instance actually satisfies
        them.
    backends:
        Execution backends :func:`repro.build` accepts for this spec.
    module:
        Fallback module path for types outside the io registry.
    factory:
        Maps ``(cls, size, seed, params)`` to an instance.
    """

    name: str
    type_name: str
    summary: str
    capabilities: FrozenSet[str]
    factory: SpecFactory
    backends: Tuple[str, ...] = ("inline",)
    module: Optional[str] = None
    extra_params: Tuple[str, ...] = field(default=())

    def resolve(self) -> Type:
        """Import and return the estimator class for this spec."""
        if self.module is None:
            from repro.io.registry import resolve_sketch_type

            try:
                return resolve_sketch_type(self.type_name)
            except SerializationError as error:  # pragma: no cover - config bug
                raise InvalidParameterError(
                    f"spec {self.name!r} names unregistered type {self.type_name!r}"
                ) from error
        module = importlib.import_module(self.module)
        return getattr(module, self.type_name)

    def build_estimator(self, size: int, seed: Optional[int], params: Dict[str, Any]):
        """Construct one inline estimator, consuming ``params`` in place."""
        if size < 1:
            raise InvalidParameterError("size must be a positive integer")
        return self.factory(self.resolve(), int(size), seed, params)


_SPECS: Dict[str, SketchSpec] = {}


def register_spec(spec: SketchSpec) -> SketchSpec:
    """Add a spec to the registry (overwriting any previous same-named one)."""
    _SPECS[spec.name] = spec
    return spec


def get_spec(name: str) -> SketchSpec:
    """Look a spec up by name.

    Raises
    ------
    InvalidParameterError
        When no spec of that name is registered; the message lists the
        registered names.
    """
    spec = _SPECS.get(name)
    if spec is None:
        raise InvalidParameterError(
            f"unknown sketch spec {name!r}; registered specs: {available_specs()}"
        )
    return spec


def available_specs() -> Tuple[str, ...]:
    """The registered spec names, sorted."""
    return tuple(sorted(_SPECS))


def iter_specs() -> Tuple[SketchSpec, ...]:
    """All registered specs, sorted by name."""
    return tuple(_SPECS[name] for name in available_specs())


# ----------------------------------------------------------------------
# Built-in specs
# ----------------------------------------------------------------------
def _adaptive_uss_factory(cls, size, seed, params):
    return cls(
        size,
        seed=seed,
        max_capacity=params.pop("max_capacity", None),
        growth_trigger=params.pop("growth_trigger", None),
    )


def _capacity_factory(cls, size, seed, params):
    return cls(size, seed=seed)


def _lossy_factory(cls, size, seed, params):
    # ``size`` doubles as the bucket width; epsilon = 1/size unless given.
    return cls(params.pop("epsilon", 1.0 / size), capacity=size, seed=seed)


def _sticky_factory(cls, size, seed, params):
    return cls(
        params.pop("epsilon", 1.0 / size),
        params.pop("delta", 0.01),
        seed=seed,
    )


def _countmin_factory(cls, size, seed, params):
    # ``size`` is the row width; tracking defaults on so the built session
    # has the full point/heavy-hitter surface (pass 0 to disable).
    return cls(
        width=size,
        depth=params.pop("depth", 4),
        conservative=params.pop("conservative", False),
        track_heavy_hitters=params.pop("track_heavy_hitters", min(size, 64)),
        seed=seed,
    )


def _count_sketch_factory(cls, size, seed, params):
    return cls(
        width=size,
        depth=params.pop("depth", 5),
        seed=seed,
        track_keys=params.pop("track_keys", min(size, 64)),
    )


def _counting_sample_factory(cls, size, seed, params):
    return cls(params.pop("sampling_rate", 0.1), capacity=size, seed=seed)


def _sample_hold_factory(cls, size, seed, params):
    return cls(size, rate_decrease=params.pop("rate_decrease", 0.9), seed=seed)


register_spec(SketchSpec(
    name="unbiased_space_saving",
    type_name="UnbiasedSpaceSaving",
    summary="the paper's unbiased sketch: point + subset sum + heavy hitters",
    capabilities=frozenset({POINT, SUBSET_SUM, HEAVY_HITTERS, MERGE, SERIALIZE}),
    factory=_capacity_factory,
    backends=("inline", "sharded"),
))

register_spec(SketchSpec(
    name="adaptive_unbiased_space_saving",
    type_name="AdaptiveUnbiasedSpaceSaving",
    summary="unbiased space saving with on-the-fly capacity growth",
    capabilities=frozenset({POINT, SUBSET_SUM, HEAVY_HITTERS}),
    factory=_adaptive_uss_factory,
    module="repro.core.adaptive",
    extra_params=("max_capacity", "growth_trigger"),
))

register_spec(SketchSpec(
    name="deterministic_space_saving",
    type_name="DeterministicSpaceSaving",
    summary="classic Space Saving: biased subset sums, frequent-item baseline",
    capabilities=frozenset({POINT, HEAVY_HITTERS, SERIALIZE}),
    factory=_capacity_factory,
))

register_spec(SketchSpec(
    name="misra_gries",
    type_name="MisraGriesSketch",
    summary="decrement-based frequent items with mergeable summaries",
    capabilities=frozenset({POINT, HEAVY_HITTERS, MERGE, SERIALIZE}),
    factory=_capacity_factory,
))

register_spec(SketchSpec(
    name="lossy_counting",
    type_name="LossyCountingSketch",
    summary="bucketed frequent items with deterministic epsilon error",
    capabilities=frozenset({POINT, HEAVY_HITTERS, SERIALIZE}),
    factory=_lossy_factory,
    extra_params=("epsilon",),
))

register_spec(SketchSpec(
    name="sticky_sampling",
    type_name="StickySamplingSketch",
    summary="probabilistic frequent items with rate halving",
    capabilities=frozenset({POINT, HEAVY_HITTERS, SERIALIZE}),
    factory=_sticky_factory,
    extra_params=("epsilon", "delta"),
))

register_spec(SketchSpec(
    name="countmin",
    type_name="CountMinSketch",
    summary="additive-error point counts; enumerates via tracked top-k",
    capabilities=frozenset({POINT, HEAVY_HITTERS, SERIALIZE}),
    factory=_countmin_factory,
    extra_params=("depth", "conservative", "track_heavy_hitters"),
))

register_spec(SketchSpec(
    name="count_sketch",
    type_name="CountSketch",
    summary="signed/turnstile unbiased point counts; tracked-key enumeration",
    capabilities=frozenset({POINT, HEAVY_HITTERS, SERIALIZE}),
    factory=_count_sketch_factory,
    extra_params=("depth", "track_keys"),
))

register_spec(SketchSpec(
    name="bottom_k",
    type_name="BottomKSketch",
    summary="uniform item sample with exact per-item counts",
    capabilities=frozenset({POINT, SUBSET_SUM, HEAVY_HITTERS, SERIALIZE}),
    factory=_capacity_factory,
))

register_spec(SketchSpec(
    name="reservoir",
    type_name="ReservoirSampler",
    summary="uniform row sample (Algorithm R); unit-weight rows only",
    capabilities=frozenset({POINT, SUBSET_SUM, SERIALIZE}),
    factory=_capacity_factory,
))

register_spec(SketchSpec(
    name="counting_sample",
    type_name="CountingSampleSketch",
    summary="fixed-rate sample-and-hold (counting samples)",
    capabilities=frozenset({POINT, SUBSET_SUM, HEAVY_HITTERS}),
    factory=_counting_sample_factory,
    module="repro.samplehold.counting_samples",
    extra_params=("sampling_rate",),
))

register_spec(SketchSpec(
    name="adaptive_sample_and_hold",
    type_name="AdaptiveSampleAndHold",
    summary="sample-and-hold with rate decrease to a bounded footprint",
    capabilities=frozenset({POINT, SUBSET_SUM, HEAVY_HITTERS}),
    factory=_sample_hold_factory,
    module="repro.samplehold.adaptive",
    extra_params=("rate_decrease",),
))

register_spec(SketchSpec(
    name="step_sample_and_hold",
    type_name="StepSampleAndHold",
    summary="stepwise sample-and-hold keeping per-step counts",
    capabilities=frozenset({POINT, SUBSET_SUM, HEAVY_HITTERS}),
    factory=_sample_hold_factory,
    module="repro.samplehold.step",
    extra_params=("rate_decrease",),
))
