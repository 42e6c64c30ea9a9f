"""Reservoir sampling.

Two reservoir samplers are provided:

* :class:`SingleItemReservoir` — a size-1 reservoir.  The paper's analysis
  (§6.2) observes that the label of each Space Saving bin is exactly a size-1
  reservoir sample of the rows routed to that bin, which is why the tail
  bins' labels end up distributed proportionally to item frequency.  Having
  the primitive as its own tested class both documents that connection and
  lets the property tests exercise it directly.
* :class:`ReservoirSampler` — the classic Algorithm R size-``k`` uniform row
  sample, used as the "uniform row sampling" reference design in a few
  ablation benchmarks.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Generic, Iterable, List, Optional, TypeVar

import numpy as np

from repro._typing import Item, ItemPredicate
from repro.core.variance import EstimateWithError
from repro.errors import InvalidParameterError, UnsupportedUpdateError
from repro.io.codec import decode_item, encode_item, generator_from_state
from repro.io.serializable import SerializableSketch

__all__ = ["SingleItemReservoir", "ReservoirSampler"]

T = TypeVar("T")


class SingleItemReservoir(Generic[T]):
    """Size-1 reservoir: each offered row ends up selected with equal probability.

    After ``n`` calls to :meth:`offer`, each row has probability ``1/n`` of
    being the retained value — the mechanism by which a Space Saving bin's
    label becomes a uniform draw from the rows that hit the bin.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        self._rng = np.random.default_rng(rng)
        self._value: Optional[T] = None
        self._offers = 0

    @property
    def offers(self) -> int:
        """How many rows have been offered."""
        return self._offers

    @property
    def value(self) -> Optional[T]:
        """The currently retained row (``None`` before the first offer)."""
        return self._value

    def offer(self, row: T) -> bool:
        """Offer one row; returns ``True`` when the row was retained."""
        self._offers += 1
        if self._rng.random() * self._offers < 1.0:
            self._value = row
            return True
        return False


class ReservoirSampler(Generic[T], SerializableSketch):
    """Uniform without-replacement sample of ``k`` rows (Algorithm R).

    Every row of the stream has an equal chance ``k / n`` of appearing in the
    final sample.  For the disaggregated subset sum problem this corresponds
    to uniform *row* sampling: the per-item estimate scales the sampled row
    count by ``n / k``.
    """

    def __init__(self, capacity: int, *, seed: Optional[int] = None) -> None:
        if capacity < 1:
            raise InvalidParameterError("capacity must be a positive integer")
        self._capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._reservoir: List[T] = []
        self._rows_processed = 0

    @property
    def capacity(self) -> int:
        """The sample size ``k``."""
        return self._capacity

    @property
    def rows_processed(self) -> int:
        """Number of rows offered so far."""
        return self._rows_processed

    def offer(self, row: T) -> None:
        """Offer one row to the reservoir."""
        self._rows_processed += 1
        if len(self._reservoir) < self._capacity:
            self._reservoir.append(row)
            return
        # floor(U·n) is uniform on 0..n-1 up to float rounding (< 2^-53).
        position = int(self._rng.random() * self._rows_processed)
        if position < self._capacity:
            self._reservoir[position] = row

    def update(self, item: Item, weight: float = 1.0) -> None:
        """Protocol-conformant ingestion: offer one unit-weight row.

        Reservoir sampling is defined on rows, not weighted items, so only
        ``weight == 1`` is accepted.
        """
        if weight != 1:
            raise UnsupportedUpdateError(
                "ReservoirSampler samples unit-weight rows; "
                "weighted updates need a PPS design (see repro.sampling.varopt)"
            )
        self.offer(item)

    def extend(self, rows: Iterable[T]) -> "ReservoirSampler":
        """Offer every row from an iterable."""
        for row in rows:
            self.offer(row)
        return self

    def sample(self) -> List[T]:
        """The current reservoir contents (a uniform sample of offered rows)."""
        return list(self._reservoir)

    def __len__(self) -> int:
        return len(self._reservoir)

    # -- disaggregated estimation helpers ---------------------------------
    def scale_factor(self) -> float:
        """Expansion factor ``n / k`` applied to sampled row counts."""
        if not self._reservoir:
            return 0.0
        return self._rows_processed / len(self._reservoir)

    def item_estimates(self) -> Dict[Item, float]:
        """Estimated per-item row counts from the uniform row sample."""
        counts = Counter(self._reservoir)
        scale = self.scale_factor()
        return {item: count * scale for item, count in counts.items()}

    def estimate(self, item: Item) -> float:
        """Estimated row count for one item (0 when absent from the sample)."""
        return self.item_estimates().get(item, 0.0)

    def estimates(self) -> Dict[Item, float]:
        """Protocol-conformant alias of :meth:`item_estimates`."""
        return self.item_estimates()

    def subset_sum(self, predicate: ItemPredicate) -> float:
        """Estimate of the number of rows whose item matches ``predicate``."""
        return float(
            sum(value for item, value in self.item_estimates().items() if predicate(item))
        )

    def subset_sum_with_error(self, predicate: ItemPredicate) -> EstimateWithError:
        """Subset sum with the Bernoulli-approximation variance estimate.

        Each of the ``C_S`` sampled rows matching the predicate contributes
        the scale factor ``n/k``; approximating the without-replacement
        draw as Bernoulli sampling with ``π = k/n`` gives
        ``Var ≈ C_S · (n/k)² · π(1−π)``, the standard uniform-row-sampling
        plug-in (exact enough for the ablation comparisons this sampler
        backs).
        """
        scale = self.scale_factor()
        if scale <= 0:
            return EstimateWithError(estimate=0.0, variance=0.0)
        counts = Counter(self._reservoir)
        matched = sum(count for item, count in counts.items() if predicate(item))
        pi = min(1.0, 1.0 / scale)
        variance = matched * scale * scale * pi * (1.0 - pi)
        return EstimateWithError(estimate=matched * scale, variance=variance)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(capacity={self._capacity}, "
            f"sampled={len(self._reservoir)}, rows_processed={self._rows_processed})"
        )

    # ------------------------------------------------------------------
    # Serialization (repro.io contract)
    # ------------------------------------------------------------------
    def _serial_state(self):
        meta = {
            "capacity": self._capacity,
            "rows_processed": self._rows_processed,
            "reservoir": [encode_item(row) for row in self._reservoir],
            "rng_state": self._rng.bit_generator.state,
        }
        return meta, {}

    @classmethod
    def _from_serial_state(cls, meta, arrays):
        sampler = cls(int(meta["capacity"]))
        sampler._reservoir = [decode_item(row) for row in meta["reservoir"]]
        sampler._rows_processed = int(meta["rows_processed"])
        sampler._rng = generator_from_state(meta["rng_state"])
        return sampler
