"""``repro.api`` — the unified estimator protocol and construction facade.

Three layers, one import:

* **Protocols** (:mod:`repro.api.protocols`) — runtime-checkable
  capability types (:class:`PointEstimator`, :class:`SubsetSumEstimator`,
  :class:`HeavyHitterEstimator`, :class:`Mergeable`, :class:`Serializable`)
  plus the :func:`capabilities` inspector.
* **Specs** (:mod:`repro.api.specs`) — the registry of buildable
  estimator types, sharing class resolution with the :mod:`repro.io`
  type registry.
* **Facade** (:mod:`repro.api.build` / :mod:`repro.api.session`) —
  :func:`build` produces a backend-transparent :class:`StreamSession`
  whose every read path returns :class:`EstimateWithError` or
  :class:`QueryResult`.

>>> from repro.api import build, capabilities
>>> session = build("unbiased_space_saving", size=16, seed=1)
>>> _ = session.extend(["x", "y", "x"])
>>> session.total().estimate
3.0
"""

from repro.api.build import BACKENDS, build
from repro.api.protocols import (
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
    SubsetSumEstimator,
    capabilities,
    require_capability,
    supports,
)
from repro.api.session import StreamSession
from repro.api.specs import (
    SketchSpec,
    available_specs,
    get_spec,
    iter_specs,
    register_spec,
)
from repro.core.variance import EstimateWithError
from repro.errors import CapabilityError
from repro.query.engine import QueryResult

__all__ = [
    "BACKENDS",
    "CAPABILITY_PROTOCOLS",
    "CapabilityError",
    "EstimateWithError",
    "HEAVY_HITTERS",
    "HeavyHitterEstimator",
    "MERGE",
    "Mergeable",
    "POINT",
    "PointEstimator",
    "QueryResult",
    "SERIALIZE",
    "SUBSET_SUM",
    "Serializable",
    "SketchSpec",
    "StreamSession",
    "SubsetSumEstimator",
    "available_specs",
    "build",
    "capabilities",
    "get_spec",
    "iter_specs",
    "register_spec",
    "require_capability",
    "supports",
]
