"""Forward decay refit behind the :class:`~repro.windows.policy.WindowPolicy` surface.

:class:`~repro.core.decay.ForwardDecaySketch` (the §5.3 extension)
predates the windows subsystem and speaks its own dialect —
``update(item, timestamp, weight)``, ``decayed_estimate(item, at_time)``.
:class:`DecayedWindowSketch` refits it behind the same surface the pane
ring classes expose (``update(item, weight=1.0, timestamp=None)``,
``estimates()``, ``subset_sum_with_error()``, ``heavy_hitters()``), so
``repro.build(spec, window="decay:exp:0.01")`` sessions are drop-in
interchangeable with tumbling/sliding ones: same ingestion calls, same
query names, continuous down-weighting instead of hard expiry.

Unlike the raw decay sketch, the adapter is *serializable*: the decay
function is reconstructed from the policy string (``"decay:exp:0.01"``),
so checkpoints carry no code — only the policy, the landmark and the
underlying Unbiased Space Saving state.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro._typing import Item, ItemPredicate
from repro.api.protocols import HEAVY_HITTERS, POINT, SERIALIZE, SUBSET_SUM
from repro.core.base import check_phi, ranked_pairs
from repro.core.decay import ForwardDecaySketch
from repro.core.variance import EstimateWithError
from repro.errors import InvalidParameterError
from repro.io.serializable import SerializableSketch

__all__ = ["DecayedWindowSketch"]


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
        Forward-decay landmark time ``L``; rows must not precede it.
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
        self._policy = parsed
        self._decay = parsed.decay_function()
        self._seed = seed
        self._sketch = ForwardDecaySketch(
            size, decay=self._decay, landmark=landmark, seed=seed
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Bin capacity of the underlying sketch."""
        return self._sketch.capacity

    @property
    def landmark(self) -> float:
        """The forward-decay landmark time ``L``."""
        return self._sketch.landmark

    @property
    def latest_timestamp(self) -> float:
        """Largest timestamp ingested so far (the default query time)."""
        return self._sketch.latest_timestamp

    @property
    def rows_processed(self) -> int:
        """Raw rows ingested."""
        return self._sketch.underlying_sketch.rows_processed

    @property
    def total_weight(self) -> float:
        """Total *decayed* ingest weight held by the underlying sketch.

        Forward decay stores ``weight * g(t - L)`` per row, so this is the
        exact un-normalized decayed stream total — divide by
        ``g(now - L)`` (what :meth:`total_estimate` does) for the decayed
        total at query time.
        """
        return self._sketch.underlying_sketch.total_weight

    @property
    def underlying_sketch(self) -> ForwardDecaySketch:
        """The wrapped :class:`ForwardDecaySketch` (full decay-native surface)."""
        return self._sketch

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
        """Ingest one row; ``timestamp=None`` means "now" (the latest seen)."""
        at = self.latest_timestamp if timestamp is None else float(timestamp)
        self._sketch.update(item, timestamp=at, weight=weight)

    def update_batch(
        self,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
        timestamps: Optional[Iterable[float]] = None,
    ) -> "DecayedWindowSketch":
        """Batched ingestion: decay the weights vectorized, then bulk-update.

        Each row's ingest weight is ``weight * g(timestamp - landmark)``,
        computed in one vectorized pass (``np.exp`` / ``np.power`` from
        the policy, matching :func:`repro.core.decay.exponential_decay` /
        :func:`polynomial_decay` pointwise), after which the underlying
        sketch's own ``update_batch`` collapse path applies — a collapsed
        decayed batch is still a valid weighted stream, so unbiasedness is
        preserved.
        """
        item_list = items if isinstance(items, (list, np.ndarray)) else list(items)
        count = len(item_list)
        if count == 0:
            return self
        if timestamps is None:
            ts = np.full(count, self.latest_timestamp, dtype=np.float64)
        else:
            ts = np.asarray(
                timestamps if isinstance(timestamps, np.ndarray) else list(timestamps),
                dtype=np.float64,
            )
        if np.any(ts < self.landmark):
            raise InvalidParameterError(
                f"timestamps must not precede the landmark {self.landmark}"
            )
        base = (
            np.ones(count, dtype=np.float64)
            if weights is None
            else np.asarray(
                weights if isinstance(weights, np.ndarray) else list(weights),
                dtype=np.float64,
            )
        )
        ages = ts - self.landmark
        if self._policy.kind == "exp":
            factors = np.exp(self._policy.rate * ages)
        else:
            factors = np.power(np.maximum(ages, 0.0), self._policy.rate)
        decayed = base * factors
        if np.any(decayed <= 0):
            raise InvalidParameterError(
                "decay produced a non-positive ingest weight; polynomial decay "
                "requires timestamps strictly after the landmark"
            )
        self._sketch.underlying_sketch.update_batch(item_list, decayed)
        newest = float(ts.max())
        if newest > self._sketch.latest_timestamp:
            self._sketch._latest_timestamp = newest
        return self

    def extend(self, rows: Iterable) -> "DecayedWindowSketch":
        """Consume bare items, ``(item, weight)`` pairs or timestamped triples."""
        from repro.windows.windowed import iter_timestamped_rows

        for item, weight, timestamp in iter_timestamped_rows(rows):
            self.update(item, weight, timestamp)
        return self

    # ------------------------------------------------------------------
    # Queries (decayed at the latest timestamp unless ``at_time`` given)
    # ------------------------------------------------------------------
    def estimate(self, item: Item, at_time: Optional[float] = None) -> float:
        """Decayed count estimate for one item."""
        return self._sketch.decayed_estimate(item, at_time=at_time)

    def estimates(self, at_time: Optional[float] = None) -> Dict[Item, float]:
        """Decayed estimates for every retained item."""
        return self._sketch.decayed_estimates(at_time=at_time)

    def subset_sum(
        self, predicate: ItemPredicate, at_time: Optional[float] = None
    ) -> float:
        """Unbiased decayed subset sum."""
        return self._sketch.decayed_subset_sum(predicate, at_time=at_time)

    def subset_sum_with_error(
        self, predicate: ItemPredicate, at_time: Optional[float] = None
    ) -> EstimateWithError:
        """Decayed subset sum with the scaled equation-5 variance."""
        return self._sketch.decayed_subset_sum_with_error(predicate, at_time=at_time)

    def heavy_hitters(
        self, phi: float, at_time: Optional[float] = None
    ) -> Dict[Item, float]:
        """Items at or above decayed relative frequency ``phi``."""
        fraction = check_phi(phi)
        decayed = self._sketch.decayed_estimates(at_time=at_time)
        return dict(ranked_pairs(decayed, threshold=fraction * sum(decayed.values())))

    def top_k(
        self, k: int, at_time: Optional[float] = None
    ) -> List[Tuple[Item, float]]:
        """The ``k`` items with the largest decayed estimates."""
        return list(self._sketch.top_k(k, at_time=at_time))

    def total_estimate(self, at_time: Optional[float] = None) -> float:
        """Exact decayed stream total (the preserved total, normalized)."""
        return self._sketch.decayed_subset_sum(lambda item: True, at_time=at_time)

    # ------------------------------------------------------------------
    # Serialization (repro.io contract)
    # ------------------------------------------------------------------
    def _serial_state(self):
        frame = self._sketch.underlying_sketch.to_bytes()
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
        from repro.core.unbiased_space_saving import UnbiasedSpaceSaving

        sketch = cls(
            int(meta["size"]),
            policy=meta["policy"],
            landmark=float(meta["landmark"]),
            seed=meta["seed"],
        )
        sketch._sketch._sketch = UnbiasedSpaceSaving.from_bytes(
            arrays["sketch"].tobytes()
        )
        sketch._sketch._latest_timestamp = float(meta["latest_timestamp"])
        return sketch
