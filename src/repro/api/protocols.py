"""The unified estimator protocol layer.

The paper's central claim is that *one* sketch can serve the disaggregated
subset-sum, point and heavy-hitter queries previously answered by distinct
estimators.  This module gives that claim an API: five runtime-checkable
:class:`typing.Protocol` types describing the query capabilities an
estimator may offer, plus a :func:`capabilities` inspector that reports
which of them a concrete object actually provides.

Capabilities are *structural*: any object with the right methods conforms,
whether it lives in this package or not.  An object whose capabilities
depend on construction-time configuration (e.g. a CountMin sketch only
enumerates items when heavy-hitter tracking was enabled) can refine the
structural answer by implementing ``__capabilities__()`` — the inspector
intersects the structural set with whatever that hook returns.

>>> from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
>>> sketch = UnbiasedSpaceSaving(capacity=8, seed=0)
>>> sorted(capabilities(sketch))
['heavy_hitters', 'merge', 'point', 'serialize', 'subset_sum']
>>> supports(sketch, SUBSET_SUM)
True
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro._typing import Item, ItemPredicate
from repro.core.variance import EstimateWithError
from repro.errors import CapabilityError

__all__ = [
    "PointEstimator",
    "SubsetSumEstimator",
    "HeavyHitterEstimator",
    "Mergeable",
    "Serializable",
    "POINT",
    "SUBSET_SUM",
    "HEAVY_HITTERS",
    "MERGE",
    "SERIALIZE",
    "CAPABILITY_PROTOCOLS",
    "capabilities",
    "supports",
    "require_capability",
]


# ----------------------------------------------------------------------
# Protocols
# ----------------------------------------------------------------------
@runtime_checkable
class PointEstimator(Protocol):
    """Answers per-item frequency queries and enumerates retained items."""

    def estimate(self, item: Item) -> float:
        """Estimated aggregate weight of ``item`` (0 when not retained)."""
        ...

    def estimates(self) -> Mapping[Item, float]:
        """All retained items with their estimated counts."""
        ...


@runtime_checkable
class SubsetSumEstimator(Protocol):
    """Answers arbitrary after-the-fact subset sums, with an error model."""

    def subset_sum(self, predicate: ItemPredicate) -> float:
        """Estimate of the total weight of items matching ``predicate``."""
        ...

    def subset_sum_with_error(self, predicate: ItemPredicate) -> EstimateWithError:
        """The same estimate bundled with its estimated variance."""
        ...


@runtime_checkable
class HeavyHitterEstimator(Protocol):
    """Reports frequent items above a relative-frequency threshold.

    Implementations answer through the rule in :mod:`repro.core.base`
    (``ranked_pairs``, ``check_k``, ``check_phi``).
    """

    def heavy_hitters(self, phi: float) -> Dict[Item, float]:
        """Items whose estimated relative frequency is at least ``phi``."""
        ...

    def top_k(self, k: int) -> List[Tuple[Item, float]]:
        """The ``k`` items with the largest estimated counts."""
        ...


@runtime_checkable
class Mergeable(Protocol):
    """Can be combined with a same-typed summary of a disjoint stream."""

    def merge(self, other: Any) -> Any:
        """Return a summary of the union of both inputs' data."""
        ...


@runtime_checkable
class Serializable(Protocol):
    """Round-trips through the :mod:`repro.io` envelope format."""

    def to_bytes(self) -> bytes:
        """Serialize to a self-describing binary frame."""
        ...

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-compatible dict envelope."""
        ...


# ----------------------------------------------------------------------
# Capability names
# ----------------------------------------------------------------------
POINT = "point"
SUBSET_SUM = "subset_sum"
HEAVY_HITTERS = "heavy_hitters"
MERGE = "merge"
SERIALIZE = "serialize"

#: capability name -> protocol class, in a stable presentation order.
CAPABILITY_PROTOCOLS: Dict[str, type] = {
    POINT: PointEstimator,
    SUBSET_SUM: SubsetSumEstimator,
    HEAVY_HITTERS: HeavyHitterEstimator,
    MERGE: Mergeable,
    SERIALIZE: Serializable,
}


def capabilities(obj: Any) -> FrozenSet[str]:
    """The set of capability names ``obj`` provides.

    Structural protocol checks (method presence) form the baseline; when
    the object implements ``__capabilities__()`` the result is intersected
    with the names that hook returns, so configuration-dependent objects
    can *narrow* (never widen) their advertised surface.

    >>> capabilities({"a": 1.0})
    frozenset()
    >>> from repro.frequent.countmin import CountMinSketch
    >>> untracked = CountMinSketch(width=16, depth=2)
    >>> HEAVY_HITTERS in capabilities(untracked)  # no tracking configured
    False
    """
    structural = {
        name
        for name, protocol in CAPABILITY_PROTOCOLS.items()
        if isinstance(obj, protocol)
    }
    refine = getattr(obj, "__capabilities__", None)
    if callable(refine):
        structural &= set(refine())
    return frozenset(structural)


def supports(obj: Any, capability: str) -> bool:
    """Whether ``obj`` provides the named capability.

    Checks only that capability's protocol, then the ``__capabilities__``
    hook, so a query gate costs one structural check, not five.
    """
    if capability not in CAPABILITY_PROTOCOLS:
        raise CapabilityError(
            f"unknown capability {capability!r}; "
            f"known capabilities: {sorted(CAPABILITY_PROTOCOLS)}"
        )
    if not isinstance(obj, CAPABILITY_PROTOCOLS[capability]):
        return False
    refine = getattr(obj, "__capabilities__", None)
    return not callable(refine) or capability in refine()


def require_capability(obj: Any, capability: str, *, operation: str = "") -> None:
    """Raise :class:`~repro.errors.CapabilityError` unless ``obj`` supports it.

    Parameters
    ----------
    obj:
        The estimator being queried.
    capability:
        One of the names in :data:`CAPABILITY_PROTOCOLS`.
    operation:
        Optional description of the attempted operation for the message.
    """
    if supports(obj, capability):
        return
    prefix = f"{operation}: " if operation else ""
    raise CapabilityError(
        f"{prefix}{type(obj).__name__} does not provide the "
        f"{capability!r} capability (it provides {sorted(capabilities(obj)) or 'none'})"
    )
