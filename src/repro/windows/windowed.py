"""Tumbling and sliding window sketches over a ring of per-window panes.

Time-sensitive monitoring workloads ("what is trending *now*?") need
queries over the recent stream, not over all time.  The paper's
mergeability theorem (§5.5, Theorem 2) makes that cheap: keep one small
sketch *pane* per window of stream time, and a query over the last ``k``
windows is just a merge of ``k`` panes — *window merge = sketch merge*.

Two classes implement the pattern:

* :class:`TumblingWindowSketch` — non-overlapping windows of width ``w``;
  queries answer over the active window by default (the last ``retain``
  windows are kept for ``last=k`` queries).
* :class:`SlidingWindowSketch` — a horizon ``H`` advanced in panes of
  width ``p``; queries answer over the ``H / p`` in-horizon panes.

Both route each timestamped row to the pane covering its timestamp,
expire panes that fall out of the horizon as time advances, and answer
point / subset-sum / heavy-hitter queries from a merged view of the live
panes that is cached until the next update or pane rotation.  Panes are
built from any registered spec with the ``point`` capability
(:mod:`repro.api.specs`) — Unbiased Space Saving by default, in which
case every windowed subset sum inherits the paper's unbiasedness (each
pane is unbiased for its window's rows, and sums of independent unbiased
estimates are unbiased; per-pane variances add).

Rows may arrive late: a timestamp landing in any still-retained pane is
routed to it, and only rows older than the horizon are rejected.  Rows
with no timestamp land in the most recent window.
"""

from __future__ import annotations

import numbers
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro._typing import Item, ItemPredicate
from repro.api.protocols import HEAVY_HITTERS, POINT, SERIALIZE, SUBSET_SUM
from repro.api.specs import get_spec
from repro.core.base import check_k, check_phi, ranked_pairs
from repro.core.batching import _row_order_sum, as_sequence, int_column, iter_weighted_rows
from repro.core.merge import combine_estimates, merge_many_unbiased
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.core.variance import EstimateWithError
from repro.errors import CapabilityError, InvalidParameterError
from repro.io.serializable import SerializableSketch

__all__ = [
    "TumblingWindowSketch",
    "SlidingWindowSketch",
    "iter_timestamped_rows",
]

#: What the ring calls on every pane, beyond the 'point' capability.
_PANE_CONTRACT = ("update", "update_batch", "estimates", "total_weight")


def iter_timestamped_rows(rows: Iterable) -> Iterable[Tuple[Item, float, Optional[float]]]:
    """Normalize a stream into ``(item, weight, timestamp-or-None)`` triples.

    A 3-element tuple/list whose last two elements are real numbers is an
    ``(item, weight, timestamp)`` row — the shape emitted by the
    timestamped generators in :mod:`repro.streams.generators`.  Anything
    else follows the :func:`repro.core.batching.iter_weighted_rows`
    heuristic (bare item, or ``(item, weight)`` pair) with no timestamp.
    3-element *composite keys* of numbers cannot ride through this
    heuristic; ingest those via ``update(item, ...)`` directly.
    """
    for row in rows:
        if (
            isinstance(row, (tuple, list))
            and len(row) == 3
            and isinstance(row[1], numbers.Real)
            and isinstance(row[2], numbers.Real)
        ):
            yield row[0], float(row[1]), float(row[2])
        else:
            for item, weight in iter_weighted_rows((row,)):
                yield item, weight, None


class _PaneRingSketch(SerializableSketch):
    """Shared machinery: the pane ring, routing, expiry and merged views.

    Concrete subclasses fix how many panes the horizon spans
    (``num_panes``) and the default query scope (``_default_last``).
    """

    def __init__(
        self,
        size: int,
        *,
        pane_seconds: float,
        num_panes: int,
        spec: str = "unbiased_space_saving",
        seed: Optional[int] = None,
        origin: float = 0.0,
        **spec_params,
    ) -> None:
        if size < 1:
            raise InvalidParameterError("size must be a positive integer")
        sketch_spec = get_spec(spec)
        pane_type = sketch_spec.resolve()
        missing = [name for name in _PANE_CONTRACT if not hasattr(pane_type, name)]
        if POINT not in sketch_spec.capabilities or missing:
            raise CapabilityError(
                f"spec {spec!r} cannot be a windowed pane: panes need the "
                f"'point' capability and {', '.join(_PANE_CONTRACT)}"
                + (f"; it lacks {', '.join(missing)}" if missing else "")
            )
        unknown = set(spec_params) - set(sketch_spec.extra_params)
        if unknown:
            raise InvalidParameterError(
                f"unknown parameters for spec {spec!r}: {sorted(unknown)}; "
                f"accepted extras: {sorted(sketch_spec.extra_params)}"
            )
        self._size = int(size)
        self._spec_name = spec
        self._spec_params = dict(spec_params)
        self._spec_capabilities = sketch_spec.capabilities
        self._seed = seed
        self._origin = float(origin)
        self._pane_seconds = float(pane_seconds)
        self._num_panes = int(num_panes)
        #: window index -> pane sketch, only in-horizon indices present.
        self._panes: Dict[int, Any] = {}
        self._active_index: Optional[int] = None
        self._latest_timestamp: Optional[float] = None
        self._rows_processed = 0
        self._total_weight = 0.0
        self._expired_panes = 0
        self._version = 0
        self._view_cache: Dict[Optional[int], Tuple[int, "_WindowView"]] = {}

    #: Default query scope: ``None`` = every retained pane.
    _default_last: Optional[int] = None

    # ------------------------------------------------------------------
    # Topology / introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Per-pane size parameter (bin capacity for the Space Saving family)."""
        return self._size

    @property
    def spec(self) -> str:
        """Name of the pane spec (see :func:`repro.available_specs`)."""
        return self._spec_name

    @property
    def origin(self) -> float:
        """Stream-time origin; window ``i`` covers ``[origin + i*p, origin + (i+1)*p)``."""
        return self._origin

    @property
    def pane_seconds(self) -> float:
        """Width of one pane in stream-time seconds."""
        return self._pane_seconds

    @property
    def num_panes(self) -> int:
        """Number of panes the horizon spans (the ring size)."""
        return self._num_panes

    @property
    def horizon_seconds(self) -> float:
        """Total stream time covered by the retained panes."""
        return self._pane_seconds * self._num_panes

    @property
    def active_window_index(self) -> Optional[int]:
        """Index of the most recent window (``None`` before any row)."""
        return self._active_index

    @property
    def latest_timestamp(self) -> Optional[float]:
        """Largest timestamp ingested so far (``None`` before any row)."""
        return self._latest_timestamp

    @property
    def rows_processed(self) -> int:
        """Raw rows ingested over the sketch's lifetime (expired rows included)."""
        return self._rows_processed

    @property
    def total_weight(self) -> float:
        """Total weight ingested over the sketch's lifetime."""
        return self._total_weight

    @property
    def expired_panes(self) -> int:
        """How many panes have been expired out of the horizon so far."""
        return self._expired_panes

    def window_bounds(self, index: int) -> Tuple[float, float]:
        """The ``[start, end)`` stream-time interval of window ``index``."""
        start = self._origin + index * self._pane_seconds
        return start, start + self._pane_seconds

    def window_panes(self, last: Optional[int] = None) -> List[Tuple[int, Any]]:
        """The live ``(window_index, pane)`` pairs, oldest first.

        ``last=k`` restricts to the ``k`` most recent *windows* (empty
        windows own no pane, so fewer than ``k`` panes may return).
        """
        scope = self._scope(last)
        if self._active_index is None:
            return []
        floor_index = self._active_index - scope + 1 if scope is not None else None
        return [
            (index, pane)
            for index, pane in sorted(self._panes.items())
            if floor_index is None or index >= floor_index
        ]

    def __capabilities__(self) -> frozenset:
        caps = {POINT, HEAVY_HITTERS}
        if SUBSET_SUM in self._spec_capabilities:
            caps.add(SUBSET_SUM)
        if SERIALIZE in self._spec_capabilities:
            # The ring serializes by serializing its panes, so it is only
            # as serializable as the spec they are built from.
            caps.add(SERIALIZE)
        return frozenset(caps)

    def __len__(self) -> int:
        return len(self.estimates())

    def __contains__(self, item: Item) -> bool:
        return item in self.estimates()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(size={self._size}, spec={self._spec_name!r}, "
            f"window={self.window_policy().describe()!r}, "
            f"live_panes={len(self._panes)}, "
            f"active_window={self._active_index}, "
            f"rows_processed={self._rows_processed})"
        )

    def window_policy(self):
        """The :class:`~repro.windows.policy.WindowPolicy` this sketch implements."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Pane routing
    # ------------------------------------------------------------------
    def _window_index(self, timestamp: float) -> int:
        if timestamp < self._origin:
            raise InvalidParameterError(
                f"timestamp {timestamp} precedes the window origin {self._origin}"
            )
        return int((timestamp - self._origin) // self._pane_seconds)

    def _build_pane(self, index: int):
        pane_seed = None if self._seed is None else self._seed + index
        params = dict(self._spec_params)
        return get_spec(self._spec_name).build_estimator(self._size, pane_seed, params)

    def _advance_to(self, index: int) -> None:
        """Make ``index`` the active window, expiring panes behind the horizon.

        Bumps the view version itself: rotation changes the query scope
        (and may delete panes) even when the row that caused it is
        subsequently rejected by its pane, so cached views must not
        survive it.
        """
        if self._active_index is not None and index <= self._active_index:
            return
        self._active_index = index
        self._version += 1
        floor_index = index - self._num_panes
        for stale in [i for i in self._panes if i <= floor_index]:
            del self._panes[stale]
            self._expired_panes += 1

    def _pane_for_index(self, index: int):
        if self._active_index is None or index > self._active_index:
            self._advance_to(index)
        elif index <= self._active_index - self._num_panes:
            oldest_start, _ = self.window_bounds(self._active_index - self._num_panes + 1)
            raise InvalidParameterError(
                f"window {index} has expired: rows older than the horizon "
                f"(stream time < {oldest_start:g}) can no longer be ingested"
            )
        pane = self._panes.get(index)
        if pane is None:
            pane = self._panes[index] = self._build_pane(index)
        return pane

    def _route(self, timestamp: Optional[float]):
        """The pane a row with ``timestamp`` belongs to (creating it if needed)."""
        if timestamp is None:
            if self._active_index is None:
                return self._pane_for_index(0)
            return self._pane_for_index(self._active_index)
        index = self._window_index(float(timestamp))
        pane = self._pane_for_index(index)
        if self._latest_timestamp is None or timestamp > self._latest_timestamp:
            self._latest_timestamp = float(timestamp)
        return pane

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(
        self, item: Item, weight: float = 1.0, timestamp: Optional[float] = None
    ) -> None:
        """Ingest one raw row observed at ``timestamp``.

        ``timestamp=None`` routes the row to the most recent window.  A
        row whose *weight* the pane spec rejects still advances stream
        time first (its timestamp was observed, so rotation and expiry
        proceed); only the rejected row itself is not ingested.
        """
        pane = self._route(timestamp)
        pane.update(item, weight)
        self._rows_processed += 1
        self._total_weight += float(weight)
        self._version += 1

    def update_batch(
        self,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
        timestamps: Optional[Iterable[float]] = None,
    ) -> "_PaneRingSketch":
        """Batched ingestion, routed per pane.

        With ``timestamps`` the batch is partitioned by window index (a
        vectorized grouping; numpy labels and lists of plain ints slice by
        fancy indexing, see :func:`~repro.core.batching.int_column`) and
        each slice goes through the owning pane's own ``update_batch``
        fast path, in ascending window order — i.e. the batch behaves like
        a timestamp-ordered
        replay: panes rotate between slices exactly as they would row by
        row, and a batch spanning more than the horizon simply expires its
        oldest panes before it finishes.  Rows stale relative to data seen
        *before* the batch are rejected up front (nothing ingested); any
        other mid-batch failure (e.g. a weight the pane spec rejects)
        leaves the already-applied window groups ingested and accounted
        for — exactly the state a timestamp-ordered replay reaches before
        the bad row.
        """
        if timestamps is None:
            item_list = as_sequence(items)
            weight_list = None if weights is None else as_sequence(weights)
            pane = self._route(None)
            pane.update_batch(item_list, weight_list)
            row_count = len(item_list)
            self._rows_processed += row_count
            self._total_weight += (
                float(row_count)
                if weight_list is None
                else _row_order_sum(np.asarray(weight_list, dtype=np.float64))
            )
            self._version += 1
            return self

        ts = np.asarray(as_sequence(timestamps), dtype=np.float64)
        if np.any(ts < self._origin):
            raise InvalidParameterError(
                f"timestamps must not precede the window origin {self._origin}"
            )
        # Lists of plain ints route as the int64 column they equal, so each
        # pane slice is one fancy index instead of a per-row gather.
        item_list = None if isinstance(items, np.ndarray) else as_sequence(items)
        item_array = items if item_list is None else int_column(item_list)
        batch_len = len(item_array) if item_array is not None else len(item_list)
        if batch_len != int(ts.size):
            raise InvalidParameterError(
                f"items and timestamps must align: got {batch_len} items "
                f"and {int(ts.size)} timestamps"
            )
        indices = ((ts - self._origin) // self._pane_seconds).astype(np.int64)
        if indices.size == 0:
            return self
        if (
            self._active_index is not None
            and int(indices.min()) <= self._active_index - self._num_panes
        ):
            raise InvalidParameterError(
                "batch contains rows older than the window horizon; "
                "nothing was ingested"
            )
        weight_array = None
        if weights is not None:
            weight_array = np.asarray(as_sequence(weights), dtype=np.float64)
            if len(weight_array) != batch_len:
                raise InvalidParameterError(
                    f"items and weights must align: got {batch_len} items "
                    f"and {len(weight_array)} weights"
                )
        order = np.argsort(indices, kind="stable")
        sorted_indices = indices[order]
        boundaries = np.flatnonzero(np.diff(sorted_indices)) + 1
        groups = np.split(order, boundaries)
        for group in groups:
            index = int(indices[group[0]])
            pane = self._pane_for_index(index)
            if item_array is not None:
                slice_items = item_array[group]
            else:
                slice_items = [item_list[position] for position in group]
            slice_weights = None if weight_array is None else weight_array[group]
            pane.update_batch(slice_items, slice_weights)
            # Account per group, so a failure in a later group leaves the
            # ingested prefix consistently booked and cache-invalidated.
            newest = float(ts[group].max())
            if self._latest_timestamp is None or newest > self._latest_timestamp:
                self._latest_timestamp = newest
            self._rows_processed += int(group.size)
            self._total_weight += (
                _row_order_sum(slice_weights)
                if slice_weights is not None
                else float(group.size)
            )
            self._version += 1
        return self

    def extend(self, rows: Iterable) -> "_PaneRingSketch":
        """Consume a stream of rows.

        Rows may be bare items, ``(item, weight)`` pairs, or the
        timestamped ``(item, weight, timestamp)`` triples emitted by
        :mod:`repro.streams.generators` — see :func:`iter_timestamped_rows`.
        """
        for item, weight, timestamp in iter_timestamped_rows(rows):
            self.update(item, weight, timestamp)
        return self

    # ------------------------------------------------------------------
    # The cached merged view
    # ------------------------------------------------------------------
    def _scope(self, last: Optional[int]) -> Optional[int]:
        if last is None:
            return self._default_last
        if last < 1:
            raise InvalidParameterError("last must be a positive window count")
        return int(last)

    def _view(self, last: Optional[int] = None) -> "_WindowView":
        scope = self._scope(last)
        cached = self._view_cache.get(scope)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        panes = [pane for _, pane in self.window_panes(scope)]
        # The view keeps every combined bin, so no reduction noise is
        # added at query time; merged() applies the real capacity-m
        # reduction (Theorem 2) for hand-off.
        view = _WindowView(
            bins=combine_estimates(panes),
            total_weight=float(sum(pane.total_weight for pane in panes)),
            panes=tuple(panes),
        )
        self._view_cache[scope] = (self._version, view)
        return view

    # ------------------------------------------------------------------
    # Queries (over the last ``last`` windows; default = the query scope
    # of the concrete class — the horizon for sliding windows, the active
    # window for tumbling windows)
    # ------------------------------------------------------------------
    def estimate(self, item: Item, last: Optional[int] = None) -> float:
        """Estimated weight of ``item`` within the window scope."""
        return self._view(last).bins.get(item, 0.0)

    def estimates(self, last: Optional[int] = None) -> Dict[Item, float]:
        """All retained items with their in-scope estimated counts."""
        return dict(self._view(last).bins)

    def subset_sum(self, predicate: ItemPredicate, last: Optional[int] = None) -> float:
        """Subset sum over the window scope (unbiased for unbiased panes)."""
        return float(
            sum(count for item, count in self._view(last).bins.items() if predicate(item))
        )

    def subset_sum_with_error(
        self, predicate: ItemPredicate, last: Optional[int] = None
    ) -> EstimateWithError:
        """Windowed subset sum with its error model.

        Panes summarize disjoint slices of stream time with independent
        randomness, so the window variance is the sum of the per-pane
        variances (zero where a pane spec carries no error model).
        """
        view = self._view(last)
        estimate = 0.0
        variance = 0.0
        for pane in view.panes:
            with_error = getattr(pane, "subset_sum_with_error", None)
            if callable(with_error):
                result = with_error(predicate)
                estimate += result.estimate
                variance += result.variance
            else:
                estimate += float(
                    sum(c for item, c in pane.estimates().items() if predicate(item))
                )
        return EstimateWithError(estimate=estimate, variance=variance)

    def heavy_hitters(self, phi: float, last: Optional[int] = None) -> Dict[Item, float]:
        """Items at or above relative frequency ``phi`` *within the window scope*."""
        fraction = check_phi(phi)
        view = self._view(last)
        return dict(ranked_pairs(view.bins, threshold=fraction * view.total_weight))

    def top_k(self, k: int, last: Optional[int] = None) -> List[Tuple[Item, float]]:
        """The ``k`` largest in-scope estimates, rank order."""
        return ranked_pairs(self._view(last).bins, k=check_k(k))

    def total_estimate(self, last: Optional[int] = None) -> float:
        """Total weight ingested into the in-scope windows."""
        return self._view(last).total_weight

    def merged(
        self,
        capacity: Optional[int] = None,
        *,
        seed: Optional[int] = None,
        last: Optional[int] = None,
    ) -> UnbiasedSpaceSaving:
        """Collapse the in-scope panes into one capacity-``m`` unbiased sketch.

        This is the §5.5 reduction for hand-off (checkpoint the window,
        ship it to a reducer): unlike the lossless query view it *does*
        shrink to ``capacity`` bins (default: the pane size), trading a
        little sampling noise for bounded size.  Requires Unbiased Space
        Saving panes.
        """
        panes = [pane for _, pane in self.window_panes(self._scope(last))]
        target = int(capacity) if capacity is not None else self._size
        merge_seed = seed if seed is not None else self._seed
        if not panes:
            return UnbiasedSpaceSaving(target, seed=merge_seed)
        if not all(isinstance(pane, UnbiasedSpaceSaving) for pane in panes):
            raise CapabilityError(
                f"merged() requires Unbiased Space Saving panes; "
                f"spec {self._spec_name!r} panes cannot be merged unbiasedly"
            )
        return merge_many_unbiased(panes, capacity=target, seed=merge_seed)

    # ------------------------------------------------------------------
    # Serialization (repro.io contract)
    # ------------------------------------------------------------------
    def _policy_meta(self) -> Dict[str, Any]:
        raise NotImplementedError

    def _serial_state(self):
        if SERIALIZE not in self._spec_capabilities:
            from repro.errors import SerializationError

            raise SerializationError(
                f"panes of spec {self._spec_name!r} are not serializable, "
                f"so this windowed sketch cannot be serialized"
            )
        indices = sorted(self._panes)
        meta = {
            "size": self._size,
            "spec": self._spec_name,
            "spec_params": dict(self._spec_params),
            "seed": self._seed,
            "origin": self._origin,
            "active_index": self._active_index,
            "latest_timestamp": self._latest_timestamp,
            "rows_processed": self._rows_processed,
            "total_weight": self._total_weight,
            "expired_panes": self._expired_panes,
            "pane_indices": indices,
            "policy": self._policy_meta(),
        }
        arrays = {
            f"pane_{index}": np.frombuffer(self._panes[index].to_bytes(), dtype=np.uint8)
            for index in indices
        }
        return meta, arrays

    @classmethod
    def _restore_common(cls, sketch: "_PaneRingSketch", meta, arrays) -> "_PaneRingSketch":
        from repro.io.registry import load_bytes

        sketch._panes = {
            int(index): load_bytes(arrays[f"pane_{index}"].tobytes())
            for index in meta["pane_indices"]
        }
        active = meta["active_index"]
        sketch._active_index = None if active is None else int(active)
        latest = meta["latest_timestamp"]
        sketch._latest_timestamp = None if latest is None else float(latest)
        sketch._rows_processed = int(meta["rows_processed"])
        sketch._total_weight = float(meta["total_weight"])
        sketch._expired_panes = int(meta["expired_panes"])
        return sketch


class _WindowView:
    """An immutable merged snapshot of the in-scope panes."""

    __slots__ = ("bins", "total_weight", "panes")

    def __init__(self, *, bins: Dict[Item, float], total_weight: float, panes: Tuple):
        self.bins = bins
        self.total_weight = total_weight
        self.panes = panes


class TumblingWindowSketch(_PaneRingSketch):
    """Non-overlapping fixed-width windows; queries answer the active window.

    Parameters
    ----------
    size:
        Per-pane size parameter (bin capacity for the Space Saving family).
    width:
        Window width — seconds, or a duration string like ``"60s"`` /
        ``"5m"``.
    spec:
        Pane spec name (default ``"unbiased_space_saving"``).
    retain:
        How many recent windows to keep (default 1).  ``retain=k`` lets
        queries reach back with ``last=k`` — e.g. "this window vs the
        previous one".
    seed:
        Base seed; window ``i``'s pane is seeded ``seed + i``.
    origin:
        Stream time where window 0 starts (default 0.0).

    Example
    -------
    >>> sketch = TumblingWindowSketch(8, width="10s", seed=0)
    >>> sketch.update("a", timestamp=1.0)
    >>> sketch.update("a", timestamp=12.0)   # rotates into window 1
    >>> sketch.estimate("a")                 # active window only
    1.0
    >>> sketch.active_window_index
    1
    """

    _default_last = 1

    def __init__(
        self,
        size: int,
        *,
        width,
        spec: str = "unbiased_space_saving",
        retain: int = 1,
        seed: Optional[int] = None,
        origin: float = 0.0,
        **spec_params,
    ) -> None:
        from repro.windows.policy import parse_duration

        if retain < 1:
            raise InvalidParameterError("retain must be a positive window count")
        super().__init__(
            size,
            pane_seconds=parse_duration(width),
            num_panes=int(retain),
            spec=spec,
            seed=seed,
            origin=origin,
            **spec_params,
        )

    @property
    def width_seconds(self) -> float:
        """The tumbling window width in seconds."""
        return self._pane_seconds

    def window_policy(self):
        from repro.windows.policy import TumblingWindowPolicy

        return TumblingWindowPolicy(self._pane_seconds, self._num_panes)

    def _policy_meta(self):
        return {"kind": "tumbling", "width": self._pane_seconds, "retain": self._num_panes}

    @classmethod
    def _from_serial_state(cls, meta, arrays):
        policy = meta["policy"]
        sketch = cls(
            int(meta["size"]),
            width=float(policy["width"]),
            spec=meta["spec"],
            retain=int(policy["retain"]),
            seed=meta["seed"],
            origin=float(meta["origin"]),
            **meta["spec_params"],
        )
        return cls._restore_common(sketch, meta, arrays)


class SlidingWindowSketch(_PaneRingSketch):
    """A query horizon advanced in fixed panes; queries cover the horizon.

    Parameters
    ----------
    size:
        Per-pane size parameter.
    horizon:
        Query horizon — seconds or a duration string (``"5m"``).  Queries
        answer over rows whose window is within the horizon.
    pane:
        Pane width; the horizon must be an exact multiple of it.  The
        ring keeps ``horizon / pane`` panes.
    spec, seed, origin:
        As for :class:`TumblingWindowSketch`.

    Example
    -------
    >>> sketch = SlidingWindowSketch(8, horizon="30s", pane="10s", seed=0)
    >>> _ = sketch.extend([("a", 1.0, 5.0), ("b", 1.0, 15.0), ("a", 1.0, 25.0)])
    >>> sketch.estimate("a")                      # both in-horizon panes
    2.0
    >>> sketch.update("c", timestamp=35.0)        # expires the pane at t<10
    >>> sorted(sketch.estimates())
    ['a', 'b', 'c']
    >>> sketch.estimate("a")                      # the t=5 row has expired
    1.0
    """

    def __init__(
        self,
        size: int,
        *,
        horizon,
        pane,
        spec: str = "unbiased_space_saving",
        seed: Optional[int] = None,
        origin: float = 0.0,
        **spec_params,
    ) -> None:
        from repro.windows.policy import SlidingWindowPolicy, parse_duration

        policy = SlidingWindowPolicy(parse_duration(horizon), parse_duration(pane))
        super().__init__(
            size,
            pane_seconds=policy.pane_seconds,
            num_panes=policy.num_panes,
            spec=spec,
            seed=seed,
            origin=origin,
            **spec_params,
        )

    def window_policy(self):
        from repro.windows.policy import SlidingWindowPolicy

        return SlidingWindowPolicy(self.horizon_seconds, self._pane_seconds)

    def _policy_meta(self):
        return {
            "kind": "sliding",
            "horizon": self.horizon_seconds,
            "pane": self._pane_seconds,
        }

    @classmethod
    def _from_serial_state(cls, meta, arrays):
        policy = meta["policy"]
        sketch = cls(
            int(meta["size"]),
            horizon=float(policy["horizon"]),
            pane=float(policy["pane"]),
            spec=meta["spec"],
            seed=meta["seed"],
            origin=float(meta["origin"]),
            **meta["spec_params"],
        )
        return cls._restore_common(sketch, meta, arrays)
