"""Time-decayed aggregation with forward decay (§5.3 extension).

Many monitoring applications care more about recent activity than old
activity.  Forward decay (Cormode, Shkapenyuk, Srivastava and Xu, 2009)
achieves this without rescaling old counters: a row with timestamp ``t_j``
is ingested with weight ``g(t_j − L)`` for a fixed landmark ``L`` and a
non-decreasing function ``g``; at query time ``t`` the decayed count of an
item is

    Σ_j g(t_j − L) / g(t − L)

so only a single division by ``g(t − L)`` is needed at query time.  Because
the ingested weights are positive reals, the sketch underneath is an
Unbiased Space Saving instance with the heap-backed store, and every decayed
subset sum inherits the unbiasedness of the underlying sketch (the decay is
a deterministic reweighting of the stream).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

from repro._typing import Item, ItemPredicate
from repro.core.base import check_k, ranked_pairs
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.core.variance import EstimateWithError
from repro.errors import InvalidParameterError

__all__ = [
    "exponential_decay",
    "polynomial_decay",
    "ForwardDecaySketch",
]


def exponential_decay(rate: float) -> Callable[[float], float]:
    """Forward-decay weight function ``g(a) = exp(rate · a)``.

    ``rate`` is the decay rate per unit of stream time; the effective decayed
    weight of a row aged ``d`` time units at query time is ``exp(−rate · d)``.
    """
    if rate < 0:
        raise InvalidParameterError("decay rate must be non-negative")

    def g(age: float) -> float:
        return math.exp(rate * age)

    return g


def polynomial_decay(exponent: float) -> Callable[[float], float]:
    """Forward-decay weight function ``g(a) = max(a, 0)^exponent``."""
    if exponent < 0:
        raise InvalidParameterError("decay exponent must be non-negative")

    def g(age: float) -> float:
        return max(age, 0.0) ** exponent

    return g


class ForwardDecaySketch:
    """Time-decayed Unbiased Space Saving via forward decay.

    Parameters
    ----------
    capacity:
        Number of bins in the underlying sketch.
    decay:
        The non-decreasing weight function ``g``; use
        :func:`exponential_decay` or :func:`polynomial_decay`.
    landmark:
        The landmark time ``L``; rows must not be older than the landmark.
    seed:
        Seed for the underlying sketch's randomness.

    Example
    -------
    >>> sketch = ForwardDecaySketch(capacity=4, decay=exponential_decay(0.1), seed=0)
    >>> sketch.update("a", timestamp=1.0)
    >>> sketch.update("b", timestamp=10.0)
    >>> sketch.decayed_estimate("b", at_time=10.0) > sketch.decayed_estimate("a", at_time=10.0)
    True
    """

    def __init__(
        self,
        capacity: int,
        *,
        decay: Callable[[float], float],
        landmark: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        self._decay = decay
        self._landmark = float(landmark)
        self._sketch = UnbiasedSpaceSaving(capacity, seed=seed)
        self._latest_timestamp = float(landmark)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Bin budget of the underlying sketch."""
        return self._sketch.capacity

    @property
    def landmark(self) -> float:
        """The forward-decay landmark time ``L``."""
        return self._landmark

    @property
    def latest_timestamp(self) -> float:
        """Largest timestamp ingested so far."""
        return self._latest_timestamp

    def update(self, item: Item, timestamp: float, weight: float = 1.0) -> None:
        """Ingest one row observed at ``timestamp`` with base weight ``weight``."""
        if timestamp < self._landmark:
            raise InvalidParameterError(
                f"timestamp {timestamp} precedes the landmark {self._landmark}"
            )
        if weight <= 0:
            raise InvalidParameterError("weights must be positive")
        decayed_weight = weight * self._decay(timestamp - self._landmark)
        if decayed_weight <= 0:
            raise InvalidParameterError(
                "decay function produced a non-positive ingest weight; "
                "polynomial decay requires timestamps strictly after the landmark"
            )
        self._sketch.update(item, decayed_weight)
        self._latest_timestamp = max(self._latest_timestamp, timestamp)

    def extend(self, rows) -> "ForwardDecaySketch":
        """Consume an iterable of ``(item, timestamp)`` or ``(item, timestamp, weight)``."""
        for row in rows:
            if len(row) == 2:
                item, timestamp = row
                self.update(item, timestamp)
            else:
                item, timestamp, weight = row
                self.update(item, timestamp, weight)
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _normalizer(self, at_time: Optional[float]) -> float:
        query_time = self._latest_timestamp if at_time is None else float(at_time)
        if query_time < self._landmark:
            raise InvalidParameterError("query time precedes the landmark")
        normalizer = self._decay(query_time - self._landmark)
        if normalizer <= 0:
            raise InvalidParameterError("decay normalizer must be positive at query time")
        return normalizer

    def decayed_estimate(self, item: Item, at_time: Optional[float] = None) -> float:
        """Decayed count estimate for one item at ``at_time`` (default: latest)."""
        return self._sketch.estimate(item) / self._normalizer(at_time)

    def decayed_estimates(self, at_time: Optional[float] = None) -> Dict[Item, float]:
        """Decayed estimates for every retained item."""
        normalizer = self._normalizer(at_time)
        return {
            item: count / normalizer for item, count in self._sketch.estimates().items()
        }

    def decayed_subset_sum(
        self, predicate: ItemPredicate, at_time: Optional[float] = None
    ) -> float:
        """Unbiased decayed subset sum at ``at_time``."""
        normalizer = self._normalizer(at_time)
        return self._sketch.subset_sum(predicate) / normalizer

    def decayed_subset_sum_with_error(
        self, predicate: ItemPredicate, at_time: Optional[float] = None
    ) -> EstimateWithError:
        """Decayed subset sum with the scaled equation-5 variance estimate."""
        normalizer = self._normalizer(at_time)
        raw = self._sketch.subset_sum_with_error(predicate)
        return EstimateWithError(
            estimate=raw.estimate / normalizer,
            variance=raw.variance / (normalizer * normalizer),
        )

    def top_k(self, k: int, at_time: Optional[float] = None) -> Tuple[Tuple[Item, float], ...]:
        """The ``k`` items with the largest decayed estimates."""
        return tuple(ranked_pairs(self.decayed_estimates(at_time), k=check_k(k)))

    @property
    def underlying_sketch(self) -> UnbiasedSpaceSaving:
        """The wrapped Unbiased Space Saving instance (undecayed weights)."""
        return self._sketch
