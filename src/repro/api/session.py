"""The backend-transparent stream session facade.

A :class:`StreamSession` wraps any protocol-conforming estimator — an
inline sketch or a hash-partitioned
:class:`~repro.distributed.sharded.ShardedSketch` — behind one ingestion
surface (``update`` / ``update_batch`` / ``extend``) and one *normalized*
query surface: every read path returns a
:class:`~repro.core.variance.EstimateWithError` or a
:class:`~repro.query.engine.QueryResult`, never a bare float from one
class and a dataclass from another.  Queries the wrapped estimator cannot
answer raise :class:`~repro.errors.CapabilityError` instead of
``AttributeError``.

Sessions are normally produced by :func:`repro.build`, but wrapping an
existing estimator directly is supported:

>>> from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
>>> session = StreamSession(UnbiasedSpaceSaving(capacity=8, seed=0))
>>> _ = session.extend(["a", "b", "a", "c"])
>>> session.estimate("a").estimate
2.0
>>> session.subset_sum(lambda item: item != "b").estimate
3.0
>>> session.heavy_hitters(0.5).groups
{'a': 2.0}
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Optional

from repro._typing import Item, ItemPredicate
from repro.api.protocols import (
    HEAVY_HITTERS,
    MERGE,
    POINT,
    SERIALIZE,
    SUBSET_SUM,
    capabilities,
    require_capability,
)
from repro.core.batching import iter_weighted_rows
from repro.core.variance import EstimateWithError
from repro.errors import CapabilityError
from repro.query.engine import QueryResult

__all__ = ["StreamSession"]


class StreamSession:
    """One ingestion + query surface over any estimator, any backend.

    Parameters
    ----------
    estimator:
        The wrapped estimator.  Must provide ``update(item, weight)``;
        everything else is optional and gated by capability.
    spec_name:
        The spec the estimator was built from (``None`` for ad-hoc wraps).
    backend:
        The execution backend label: ``"inline"`` or ``"sharded"``.
        Sessions checkpointed under the retired ``"parallel"`` label
        restore as ``"sharded"``, the class their frames load as.
    """

    def __init__(
        self,
        estimator: Any,
        *,
        spec_name: Optional[str] = None,
        backend: str = "inline",
        window: Optional[str] = None,
    ) -> None:
        if not callable(getattr(estimator, "update", None)):
            raise CapabilityError(
                f"{type(estimator).__name__} has no update() method; "
                "a StreamSession needs an ingestible estimator"
            )
        self._estimator = estimator
        self._spec_name = spec_name
        self._backend = "sharded" if backend == "parallel" else backend
        if window is None and callable(getattr(estimator, "window_policy", None)):
            window = estimator.window_policy().describe()
        self._window = window

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def estimator(self) -> Any:
        """The wrapped estimator (escape hatch to the full class surface)."""
        return self._estimator

    @property
    def spec_name(self) -> Optional[str]:
        """Name of the spec this session was built from, when known."""
        return self._spec_name

    @property
    def backend(self) -> str:
        """The execution backend label."""
        return self._backend

    @property
    def window(self) -> Optional[str]:
        """The window policy spec string (``None`` for all-time sessions)."""
        return self._window

    def _require_windowed(self, operation: str) -> None:
        if self._window is None:
            raise CapabilityError(
                f"{operation}: this session is not windowed; build one with "
                "repro.build(spec, window='tumbling:60s' | 'sliding:5m/30s' "
                "| 'decay:exp:0.01', ...) to ingest timestamped rows"
            )

    @property
    def capabilities(self) -> FrozenSet[str]:
        """Capability names of the wrapped estimator."""
        return capabilities(self._estimator)

    def __capabilities__(self) -> FrozenSet[str]:
        """Gate the session's structural surface by the wrapped estimator.

        The session defines every query method, so without this hook
        ``repro.capabilities(session)`` would report capabilities the
        underlying estimator cannot actually answer.
        """
        return capabilities(self._estimator)

    @property
    def rows_processed(self) -> int:
        """Raw rows ingested (0 when the estimator does not track them)."""
        return int(getattr(self._estimator, "rows_processed", 0))

    @property
    def total_weight(self) -> float:
        """Total ingested weight (0 when the estimator does not track it)."""
        return float(getattr(self._estimator, "total_weight", 0.0))

    def describe(self) -> Dict[str, Any]:
        """A JSON-safe description of the session (spec, backend, progress).

        This is the session's self-describing metadata surface: the serve
        layer publishes it as the ``info`` op and persists it in
        checkpoint manifests, so everything here must stay plain data.
        """
        return {
            "spec": self._spec_name,
            "backend": self._backend,
            "window": self._window,
            "estimator": type(self._estimator).__name__,
            "rows_processed": self.rows_processed,
            "total_weight": self.total_weight,
            "capabilities": sorted(self.capabilities),
        }

    def __repr__(self) -> str:
        spec = self._spec_name if self._spec_name else type(self._estimator).__name__
        window = f"window={self._window!r}, " if self._window is not None else ""
        return (
            f"StreamSession(spec={spec!r}, backend={self._backend!r}, {window}"
            f"rows_processed={self.rows_processed}, "
            f"capabilities={sorted(self.capabilities)})"
        )

    def __len__(self) -> int:
        return len(self.estimates())

    def __contains__(self, item: Item) -> bool:
        return item in self.estimates()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(
        self,
        item: Item,
        weight: float = 1.0,
        timestamp: Optional[float] = None,
    ) -> "StreamSession":
        """Ingest one raw row.

        ``timestamp`` (stream-time seconds) is accepted by windowed
        sessions only; all-time sessions raise
        :class:`~repro.errors.CapabilityError` when one is passed.
        """
        if timestamp is None:
            self._estimator.update(item, weight)
        else:
            self._require_windowed("update(timestamp=...)")
            self._estimator.update(item, weight, timestamp=timestamp)
        return self

    def update_batch(
        self,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
        timestamps: Optional[Iterable[float]] = None,
    ) -> "StreamSession":
        """Ingest a batch, using the estimator's fast path when it has one.

        Estimators without ``update_batch`` fall back to a scalar loop, so
        every session accepts batches regardless of backend or class.
        ``timestamps`` (aligned with ``items``) routes each row to its
        window on windowed sessions, and is rejected elsewhere.
        """
        if timestamps is not None:
            self._require_windowed("update_batch(timestamps=...)")
            self._estimator.update_batch(items, weights, timestamps=timestamps)
            return self
        batch = getattr(self._estimator, "update_batch", None)
        if callable(batch):
            batch(items, weights)
            return self
        if weights is None:
            for item in items:
                self._estimator.update(item)
        else:
            for item, weight in zip(items, weights):
                self._estimator.update(item, float(weight))
        return self

    def extend(self, rows: Iterable) -> "StreamSession":
        """Consume a stream of rows (bare items or ``(item, weight)`` pairs).

        A 2-tuple row is treated as weighted only when its item is not
        itself a number (so composite numeric keys stay keys — see
        :func:`repro.core.batching.iter_weighted_rows`); weighted streams
        of *numeric* items should use :meth:`update` /
        :meth:`update_batch`, which take weights explicitly.  Windowed
        sessions additionally accept the ``(item, weight, timestamp)``
        triples emitted by the timestamped generators in
        :mod:`repro.streams.generators`.
        """
        if self._window is not None:
            self._estimator.extend(rows)
            return self
        for item, weight in iter_weighted_rows(rows):
            self._estimator.update(item, weight)
        return self

    # ------------------------------------------------------------------
    # Normalized queries
    # ------------------------------------------------------------------
    def estimate(self, item: Item) -> EstimateWithError:
        """Point estimate for one item, with uncertainty when available.

        When the estimator carries a subset-sum error model the variance of
        the singleton subset ``{item}`` is attached; otherwise the variance
        is reported as zero.
        """
        point = getattr(self._estimator, "estimate", None)
        if not callable(point):
            raise CapabilityError(
                f"{type(self._estimator).__name__} cannot answer point queries"
            )
        if SUBSET_SUM in self.capabilities:
            try:
                matches = frozenset((item,)).__contains__
            except TypeError:  # unhashable: no bin can equal it
                matches = lambda candidate: candidate == item  # noqa: E731
            return self._estimator.subset_sum_with_error(matches)
        return EstimateWithError(estimate=float(point(item)), variance=0.0)

    def estimates(self) -> Dict[Item, float]:
        """All retained items with their estimated counts."""
        require_capability(self._estimator, POINT, operation="estimates")
        return dict(self._estimator.estimates())

    def subset_sum(self, predicate: ItemPredicate) -> EstimateWithError:
        """Subset sum under an arbitrary predicate, with its error model."""
        require_capability(self._estimator, SUBSET_SUM, operation="subset_sum")
        return self._estimator.subset_sum_with_error(predicate)

    # Protocol-parity alias so a session is itself a SubsetSumEstimator
    # source (e.g. for SketchQueryEngine).
    def subset_sum_with_error(self, predicate: ItemPredicate) -> EstimateWithError:
        """Alias of :meth:`subset_sum` (normalized surface parity)."""
        return self.subset_sum(predicate)

    def total(self) -> EstimateWithError:
        """Estimate of the grand total ingested weight.

        Unbiased Space Saving (and its ensembles) preserve the total
        exactly via ``total_estimate``; estimators without it but with
        exact ``total_weight`` bookkeeping (everything built by
        :func:`repro.build`) report that counter, zero variance.  Only
        sources tracking neither fall back to the all-items subset sum —
        never to summing a bounded tracked view, which would undercount.
        """
        exact_total = getattr(self._estimator, "total_estimate", None)
        if callable(exact_total):
            return EstimateWithError(estimate=float(exact_total()), variance=0.0)
        total_weight = getattr(self._estimator, "total_weight", None)
        if total_weight is not None:
            return EstimateWithError(estimate=float(total_weight), variance=0.0)
        if SUBSET_SUM in self.capabilities:
            return self._estimator.subset_sum_with_error(lambda item: True)
        return EstimateWithError(
            estimate=float(sum(self.estimates().values())), variance=0.0
        )

    def heavy_hitters(self, phi: float) -> QueryResult:
        """Items at or above relative frequency ``phi``, as a grouped result."""
        require_capability(self._estimator, HEAVY_HITTERS, operation="heavy_hitters")
        return QueryResult(groups=dict(self._estimator.heavy_hitters(phi)))

    def top_k(self, k: int) -> QueryResult:
        """The ``k`` largest estimates, as a grouped result in rank order."""
        require_capability(self._estimator, HEAVY_HITTERS, operation="top_k")
        return QueryResult(groups=dict(self._estimator.top_k(k)))

    def select_sum(
        self,
        *,
        where: Optional[ItemPredicate] = None,
        group_by=None,
    ) -> QueryResult:
        """Run one SQL-ish aggregation through the query engine."""
        from repro.query.engine import SketchQueryEngine

        return SketchQueryEngine(self).select_sum(where=where, group_by=group_by)

    # ------------------------------------------------------------------
    # Ensemble and lifecycle operations
    # ------------------------------------------------------------------
    def merged(self, capacity: Optional[int] = None, *, seed: Optional[int] = None):
        """Collapse the session's state into one inline sketch.

        Meaningful for the sharded backend (merge the shards)
        and for windowed sessions (merge the in-horizon panes — the §5.5
        hand-off); plain inline sessions have no ``merged()`` reduction
        and raise :class:`~repro.errors.CapabilityError`.
        """
        merge = getattr(self._estimator, "merged", None)
        if not callable(merge):
            raise CapabilityError(
                f"{type(self._estimator).__name__} has no merged() reduction; "
                "merged() applies to sharded and windowed sessions"
            )
        return merge(capacity, seed=seed)

    def merge(self, other: "StreamSession | Any") -> "StreamSession":
        """Merge with another session (or raw estimator) of the same type."""
        require_capability(self._estimator, MERGE, operation="merge")
        peer = other.estimator if isinstance(other, StreamSession) else other
        merged = self._estimator.merge(peer)
        return StreamSession(merged, spec_name=self._spec_name, backend=self._backend)

    def to_bytes(self) -> bytes:
        """Serialize the underlying estimator to a binary frame."""
        require_capability(self._estimator, SERIALIZE, operation="to_bytes")
        return self._estimator.to_bytes()

    def save_checkpoint(self, path) -> None:
        """Atomically checkpoint the underlying estimator to ``path``."""
        require_capability(self._estimator, SERIALIZE, operation="save_checkpoint")
        self._estimator.save_checkpoint(path)

