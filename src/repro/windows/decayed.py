"""Time-decayed Unbiased Space Saving by forward decay (§5.3 extension).

Forward decay (Cormode, Shkapenyuk, Srivastava and Xu, 2009) favours
recent activity without rescaling old counters: a row with timestamp
``t`` is ingested with weight ``w · g(t − L)`` for a landmark ``L`` and
the non-decreasing ``g`` of a :class:`~repro.windows.policy.DecayPolicy`,
and a query at time ``t`` divides by ``g(t − L)``.  The decay is a
deterministic reweighting of the stream, so the Unbiased Space Saving
sketch underneath keeps every decayed subset sum unbiased.

:class:`DecayedWindowSketch` answers behind the surface of the pane ring
classes (``update(item, weight=1.0, timestamp=None)``, ``estimates()``,
``subset_sum_with_error()``, ``heavy_hitters()``), so
``repro.build(spec, window="decay:exp:0.01")`` sessions are drop-in
interchangeable with tumbling/sliding ones: same ingestion calls, same
query names, continuous down-weighting instead of hard expiry.

Landmark re-basing
------------------
Exponential decay ``g(a) = exp(rate · a)`` leaves the float range once
``rate · (t − L)`` passes ~709: 8.2 days of stream at rate 0.001.  Before
a batch would push ``rate · (t − L)`` past :data:`REBASE_EXPONENT`, the
landmark moves to the batch's newest timestamp ``L′`` and every bin and
the total are divided by ``g(L′ − L)``.  The contest depends only on
ratios of weight to count, so the common scale leaves the sketch's
distribution unchanged.  Because ``g`` of a negative age is below 1,
exponential decay accepts rows older than the landmark; polynomial decay
``max(t − L, 0) ** p`` never re-bases and needs ``t ≥ L``.

Checkpoints carry no code — only the policy string, the landmark and the
underlying Unbiased Space Saving frame.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro._typing import Item, ItemPredicate
from repro.api.protocols import HEAVY_HITTERS, POINT, SERIALIZE, SUBSET_SUM
from repro.core.base import check_k, check_phi, ranked_pairs
from repro.core.batching import as_sequence
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.core.variance import EstimateWithError
from repro.errors import InvalidParameterError
from repro.io.serializable import SerializableSketch

__all__ = ["DecayedWindowSketch"]

#: Exponential decay re-bases the landmark before ``rate · (t − L)``
#: exceeds this, keeping bins below e**64 and the Eq. 5 variance,
#: which squares N̂_min, below e**128.
REBASE_EXPONENT = 64.0


def _column(values, count: int, default: float, name: str) -> np.ndarray:
    """``values`` as a float64 column of ``count`` rows (``default`` if None)."""
    if values is None:
        return np.full(count, default, dtype=np.float64)
    column = np.asarray(as_sequence(values), dtype=np.float64)
    if column.shape != (count,):
        raise InvalidParameterError(
            f"{name} has {column.size} entries for {count} items"
        )
    return column


class DecayedWindowSketch(SerializableSketch):
    """Continuously time-decayed counts behind the windowed-session surface.

    Parameters
    ----------
    size:
        Bin capacity of the underlying Unbiased Space Saving sketch.
    policy:
        A :class:`~repro.windows.policy.DecayPolicy` (or its spec string,
        e.g. ``"decay:exp:0.01"``).
    landmark:
        Initial forward-decay landmark time ``L``.  Exponential decay
        moves it forward as the stream advances; polynomial decay keeps
        it and refuses rows before it.
    seed:
        Seed for the underlying sketch.

    Example
    -------
    >>> sketch = DecayedWindowSketch(8, policy="decay:exp:0.1", seed=0)
    >>> sketch.update("old", timestamp=1.0)
    >>> sketch.update("new", timestamp=20.0)
    >>> sketch.estimate("new") > sketch.estimate("old")
    True
    """

    def __init__(
        self,
        size: int,
        *,
        policy,
        landmark: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        from repro.windows.policy import DecayPolicy, parse_window_policy

        parsed = parse_window_policy(policy)
        if not isinstance(parsed, DecayPolicy):
            raise InvalidParameterError(
                f"DecayedWindowSketch needs a decay policy; got {parsed.describe()!r}"
            )
        if not math.isfinite(landmark):
            raise InvalidParameterError(f"landmark must be finite; got {landmark!r}")
        self._policy = parsed
        self._seed = seed
        self._sketch = UnbiasedSpaceSaving(size, seed=seed)
        self._landmark = float(landmark)
        self._latest_timestamp = float(landmark)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Bin capacity of the underlying sketch."""
        return self._sketch.capacity

    @property
    def landmark(self) -> float:
        """The current forward-decay landmark time ``L``."""
        return self._landmark

    @property
    def latest_timestamp(self) -> float:
        """Largest timestamp ingested so far (the default query time)."""
        return self._latest_timestamp

    @property
    def rows_processed(self) -> int:
        """Raw rows ingested."""
        return self._sketch.rows_processed

    @property
    def total_weight(self) -> float:
        """Total *decayed* ingest weight held by the underlying sketch.

        Forward decay stores ``weight * g(t - L)`` per row, so this is the
        exact un-normalized decayed stream total at the current landmark —
        divide by ``g(now - L)`` (what :meth:`total_estimate` does) for
        the decayed total at query time.
        """
        return self._sketch.total_weight

    def window_policy(self):
        """The :class:`~repro.windows.policy.DecayPolicy` in force."""
        return self._policy

    def __capabilities__(self) -> frozenset:
        return frozenset({POINT, SUBSET_SUM, HEAVY_HITTERS, SERIALIZE})

    def __len__(self) -> int:
        return len(self.estimates())

    def __contains__(self, item: Item) -> bool:
        return item in self.estimates()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(size={self.size}, "
            f"window={self._policy.describe()!r}, "
            f"latest_timestamp={self.latest_timestamp:g}, "
            f"rows_processed={self.rows_processed})"
        )

    # ------------------------------------------------------------------
    # Ingestion (windowed-session surface)
    # ------------------------------------------------------------------
    def update(
        self, item: Item, weight: float = 1.0, timestamp: Optional[float] = None
    ) -> None:
        """Ingest one row; ``timestamp=None`` means "now" (the latest seen).

        The row is decayed and checked as a one-row batch; the kernel's
        scalar apply is draw-for-draw identical to a one-row batch apply.
        """
        timestamps = None if timestamp is None else [timestamp]
        decayed, newest = self._decay(1, [weight], timestamps)
        self._sketch.update(item, float(decayed[0]))
        self._latest_timestamp = max(self._latest_timestamp, newest)

    def update_batch(
        self,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
        timestamps: Optional[Iterable[float]] = None,
    ) -> "DecayedWindowSketch":
        """Ingest rows with ingest weight ``weight * g(timestamp - landmark)``.

        The weights are decayed in one vectorized pass, then the underlying
        sketch's collapse path applies (a collapsed decayed batch is still
        a valid weighted stream, so unbiasedness is preserved).  Missing
        timestamps mean "now".

        Raises
        ------
        InvalidParameterError
            If a timestamp is not finite, precedes the landmark under
            polynomial decay, or a row's decayed weight is not positive
            and finite.  A refused batch leaves the sketch unchanged.
        """
        item_list = as_sequence(items)
        if len(item_list) == 0:
            return self
        decayed, newest = self._decay(len(item_list), weights, timestamps)
        self._sketch.update_batch(item_list, decayed)
        self._latest_timestamp = max(self._latest_timestamp, newest)
        return self

    def _decay(self, count: int, weights, timestamps) -> Tuple[np.ndarray, float]:
        """Checked ingest weights of ``count`` rows and their newest timestamp.

        Re-bases the landmark first when the rows would push exponential
        decay past :data:`REBASE_EXPONENT`; every check runs before that,
        so a refused row changes nothing.
        """
        ts = _column(timestamps, count, self._latest_timestamp, "timestamps")
        base = _column(weights, count, 1.0, "weights")
        if not np.isfinite(ts).all():
            raise InvalidParameterError("decay timestamps must be finite")
        policy = self._policy
        newest = float(ts.max())
        landmark = self._landmark
        if policy.kind == "poly":
            if ts.min() < landmark:
                raise InvalidParameterError(
                    f"polynomial decay needs timestamps at or after the "
                    f"landmark {landmark:g}"
                )
        elif policy.rate * (newest - landmark) > REBASE_EXPONENT:
            landmark = newest
        with np.errstate(over="ignore"):
            decayed = base * policy.g(ts - landmark)
        # One finite sum bounds every collapsed per-item sum as well.
        if not (np.isfinite(decayed.sum()) and decayed.min() > 0):
            raise InvalidParameterError(
                "decayed ingest weights must be positive and finite: a weight "
                "is not positive, a row is too old for the float range, or "
                "polynomial decay met a row at the landmark"
            )
        if landmark != self._landmark:
            self._sketch.scale(float(policy.g(self._landmark - landmark)))
            self._landmark = landmark
        return decayed, newest

    def extend(self, rows: Iterable) -> "DecayedWindowSketch":
        """Consume bare items, ``(item, weight)`` pairs or timestamped triples."""
        from repro.windows.windowed import iter_timestamped_rows

        for item, weight, timestamp in iter_timestamped_rows(rows):
            self.update(item, weight, timestamp)
        return self

    # ------------------------------------------------------------------
    # Queries (decayed at the latest timestamp unless ``at_time`` given)
    # ------------------------------------------------------------------
    def _normalizer(self, at_time: Optional[float]) -> float:
        query_time = self._latest_timestamp if at_time is None else float(at_time)
        if self._policy.kind == "poly" and query_time < self._landmark:
            raise InvalidParameterError("query time precedes the landmark")
        if not self._sketch.rows_processed and math.isfinite(query_time):
            return 1.0  # an empty sketch answers 0, even where g is 0
        with np.errstate(over="ignore"):
            normalizer = float(self._policy.g(query_time - self._landmark))
        if not 0 < normalizer < math.inf:
            raise InvalidParameterError(
                f"decay normalizer at query time {query_time:g} is "
                f"{normalizer:g}; it must be positive and finite"
            )
        return normalizer

    def estimate(self, item: Item, at_time: Optional[float] = None) -> float:
        """Decayed count estimate for one item."""
        return self._sketch.estimate(item) / self._normalizer(at_time)

    def estimates(self, at_time: Optional[float] = None) -> Dict[Item, float]:
        """Decayed estimates for every retained item."""
        normalizer = self._normalizer(at_time)
        return {
            item: count / normalizer for item, count in self._sketch.estimates().items()
        }

    def subset_sum(
        self, predicate: ItemPredicate, at_time: Optional[float] = None
    ) -> float:
        """Unbiased decayed subset sum."""
        return self._sketch.subset_sum(predicate) / self._normalizer(at_time)

    def subset_sum_with_error(
        self, predicate: ItemPredicate, at_time: Optional[float] = None
    ) -> EstimateWithError:
        """Decayed subset sum with the scaled equation-5 variance."""
        normalizer = self._normalizer(at_time)
        raw = self._sketch.subset_sum_with_error(predicate)
        return EstimateWithError(
            estimate=raw.estimate / normalizer,
            variance=raw.variance / (normalizer * normalizer),
        )

    def heavy_hitters(
        self, phi: float, at_time: Optional[float] = None
    ) -> Dict[Item, float]:
        """Items at or above decayed relative frequency ``phi``."""
        fraction = check_phi(phi)
        decayed = self.estimates(at_time)
        return dict(ranked_pairs(decayed, threshold=fraction * sum(decayed.values())))

    def top_k(
        self, k: int, at_time: Optional[float] = None
    ) -> List[Tuple[Item, float]]:
        """The ``k`` items with the largest decayed estimates."""
        return ranked_pairs(self.estimates(at_time), k=check_k(k))

    def total_estimate(self, at_time: Optional[float] = None) -> float:
        """Exact decayed stream total (the preserved total, normalized)."""
        return self._sketch.total_estimate() / self._normalizer(at_time)

    # ------------------------------------------------------------------
    # Serialization (repro.io contract)
    # ------------------------------------------------------------------
    def _serial_state(self):
        frame = self._sketch.to_bytes()
        meta = {
            "size": self.size,
            "policy": self._policy.describe(),
            "landmark": self.landmark,
            "latest_timestamp": self.latest_timestamp,
            "seed": self._seed,
        }
        return meta, {"sketch": np.frombuffer(frame, dtype=np.uint8)}

    @classmethod
    def _from_serial_state(cls, meta, arrays):
        sketch = cls(
            int(meta["size"]),
            policy=meta["policy"],
            landmark=float(meta["landmark"]),
            seed=meta["seed"],
        )
        sketch._sketch = UnbiasedSpaceSaving.from_bytes(arrays["sketch"].tobytes())
        sketch._latest_timestamp = float(meta["latest_timestamp"])
        return sketch
