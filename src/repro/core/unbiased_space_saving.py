"""Unbiased Space Saving — the paper's core contribution.

The sketch is a one-line modification of Deterministic Space Saving
(Algorithm 1 of the paper): when an arriving item is not already in the
sketch, the minimum bin's counter is always incremented, but its *label* is
replaced with the new item only with probability

    p = w / (N̂_min + w)

(``1 / (N̂_min + 1)`` for unit weights).  Theorem 1 shows this makes every
per-item count estimate exactly unbiased, which in turn makes arbitrary
subset sums unbiased — the property Deterministic Space Saving lacks.  At
the same time, Theorems 3 and 10 show the sketch retains strong frequent-item
guarantees: on i.i.d. streams every frequent item is eventually kept with
probability 1 and its relative frequency estimate is strongly consistent,
and on arbitrary streams the inclusion probability of an item is never worse
than that of a uniform random sample of the same size.

The class below also provides the variance estimator and Normal confidence
intervals of §6.4-6.5 so that a caller can attach uncertainty to any subset
sum it reports.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro._typing import Item, ItemPredicate
from repro.core.base import FrequentItemSketch, SubsetSumSketch
from repro.core.batching import collapse_batch, collapse_batch_arrays
from repro.core.columnar import ColumnarCounterStore
from repro.core.variance import EstimateWithError, subset_variance_estimate
from repro.errors import InvalidParameterError, UnsupportedUpdateError
from repro.io.codec import rng_state_from_jsonable, rng_state_to_jsonable
from repro.io.serializable import SerializableSketch

__all__ = ["SpaceSaving", "UnbiasedSpaceSaving"]


class SpaceSaving(FrequentItemSketch, SerializableSketch):
    """The Space Saving core shared by the unbiased and deterministic sketches.

    Holds ``m`` labeled counters in the float-native columnar store of
    :mod:`repro.core.columnar`, whose priority discipline breaks ties among
    minimum bins uniformly at random.  An arriving item that labels a bin
    increments it; any other item increments a minimum bin and takes over
    its label under the contest rule :attr:`always_replace` — always for
    Deterministic Space Saving, with probability ``w / (N̂_min + w)`` for
    Unbiased Space Saving (Algorithm 1).  That rule and
    :attr:`track_errors` are the only differences between the two.

    Parameters
    ----------
    capacity:
        Number of bins ``m``.
    seed:
        Seed for the generator behind label contests and tie-breaks.
        Fixing the seed makes a run fully reproducible.
    """

    #: Whether a newcomer always takes over the minimum bin's label.
    always_replace = False
    #: Whether the store keeps per-bin acquisition errors.
    track_errors = False

    def __init__(self, capacity: int, *, seed: Optional[int] = None) -> None:
        super().__init__(capacity, seed=seed)
        self._store = ColumnarCounterStore(
            self._capacity,
            generator=np.random.Generator(np.random.PCG64(seed)),
            track_errors=self.track_errors,
        )
        #: label replacements performed (framed by the unbiased sketch only)
        self._label_replacements = 0

    def _weight_error(self) -> UnsupportedUpdateError:
        return UnsupportedUpdateError(
            f"{type(self).__name__} requires positive weights (finite); "
            "see repro.core.weighted for signed updates"
        )

    def _checked_weights(self, collapsed) -> np.ndarray:
        """A non-empty weight column as float64, refused unless every
        weight is finite and positive."""
        collapsed = np.ascontiguousarray(collapsed, dtype=np.float64)
        # min() <= 0 alone would let NaN through (NaN comparisons are all
        # false), and +inf would collide with the store's free-slot
        # sentinel — require finite positive weights explicitly.
        if not np.isfinite(collapsed).all() or collapsed.min() <= 0:
            raise self._weight_error()
        return collapsed

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, item: Item, weight: float = 1.0) -> None:
        """Process one raw row for ``item``; ``weight`` must be positive.

        Positive real-valued weights follow the randomized pairwise PPS
        reduction of §5.3: the minimum bin is incremented by ``weight``
        and, under the unbiased rule, relabeled with probability
        ``weight / (N̂_min + weight)``, which preserves unbiasedness.
        """
        if weight <= 0 or not np.isfinite(weight):
            raise self._weight_error()
        self._record_update(weight)
        self._label_replacements += self._store.apply_one(
            item, float(weight), always_replace=self.always_replace
        )

    def update_batch(
        self,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
    ) -> "SpaceSaving":
        """Batched ingestion: collapse duplicates, then apply weighted updates.

        The collapsed ``(item, summed weight)`` pairs are applied in the
        kernel's phased order (present scatter-add, inserts, then
        min-replacement contests — see :mod:`repro.core.columnar`), which
        preserves unbiasedness and the deterministic over-count bound but
        is not draw-for-draw identical to a per-row :meth:`update` loop.
        Collapsing preserves unbiasedness because a weighted update *is*
        the §5.3 pairwise PPS reduction of the collapsed rows.
        ``rows_processed`` still counts raw rows.
        """
        if isinstance(items, np.ndarray) and items.dtype != object:
            unique, collapsed, row_count, total = collapse_batch_arrays(items, weights)
        else:
            unique, collapsed, row_count, total = collapse_batch(items, weights)
        return self._ingest_collapsed(unique, collapsed, row_count, total)

    def _ingest_collapsed(
        self,
        unique,
        collapsed,
        row_count: int,
        total: float,
    ) -> "SpaceSaving":
        """Apply an already-collapsed batch (one weighted pair per item).

        Backs :meth:`update_batch` and the sharded executor, which collapses
        globally before routing and must not pay a second collapse per shard.
        ``unique`` / ``collapsed`` are aligned lists or numpy arrays.
        """
        if len(unique) == 0:
            return self
        collapsed = self._checked_weights(collapsed)
        self._label_replacements += self._store.apply_batch(
            unique, collapsed, always_replace=self.always_replace
        )
        self._rows_processed += row_count
        self._total_weight += total
        return self

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def estimate(self, item: Item) -> float:
        """Estimated total weight of ``item`` (0 when absent)."""
        return self._store.get(item, 0.0)

    def estimates(self) -> Dict[Item, float]:
        return self._store.counts()

    @property
    def min_count(self) -> float:
        """The minimum bin count ``N̂_min`` (0 while the sketch is not full)."""
        if len(self._store) < self._capacity or len(self._store) == 0:
            return 0.0
        return self._store.min_count()

    # ------------------------------------------------------------------
    # Serialization (repro.io contract)
    # ------------------------------------------------------------------
    def _serial_state(self):
        meta, arrays = self._store.frame()
        meta.update({
            "capacity": self._capacity,
            # Readers of earlier versions select their store from these.
            "store": "columnar",
            "active_store": "columnar",
            "rows_processed": self._rows_processed,
            "total_weight": self._total_weight,
            "rng_state": rng_state_to_jsonable(self._rng.getstate()),
        })
        return meta, arrays

    @classmethod
    def _from_serial_state(cls, meta, arrays):
        sketch = cls(int(meta["capacity"]))
        sketch._store.load_frame(meta, arrays)
        sketch._rows_processed = int(meta["rows_processed"])
        sketch._total_weight = float(meta["total_weight"])
        sketch._rng.setstate(rng_state_from_jsonable(meta["rng_state"]))
        return sketch


class UnbiasedSpaceSaving(SpaceSaving, SubsetSumSketch):
    """Unbiased Space Saving sketch (Algorithm 1 with ``p = 1/(N̂_min + 1)``).

    The :class:`SpaceSaving` core with the randomized contest rule, plus
    the §6.4/6.5 variance and confidence intervals and the §5.5 merge.

    Parameters
    ----------
    capacity:
        Number of bins ``m``.
    seed:
        Seed for the internal random generator used for the randomized label
        replacement and for breaking ties among minimum bins.  Fixing the
        seed makes a run fully reproducible.

    Example
    -------
    >>> sketch = UnbiasedSpaceSaving(capacity=3, seed=7)
    >>> _ = sketch.extend(["ad1", "ad1", "ad2", "ad3", "ad1"])
    >>> sketch.rows_processed
    5
    >>> round(sum(sketch.estimates().values()), 6)
    5.0
    """

    # ------------------------------------------------------------------
    # Alternative constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_bins(
        cls,
        capacity: int,
        bins: Dict[Item, float],
        *,
        rows_processed: int = 0,
        total_weight: Optional[float] = None,
        seed: Optional[int] = None,
    ) -> "UnbiasedSpaceSaving":
        """Build a sketch directly from ``(label, count)`` bins.

        Used by the merge and distributed layers, which first reduce a
        combined set of bins down to ``capacity`` (preserving expectations)
        and then need a live sketch that can keep ingesting rows.  Counts may
        be real-valued (Horvitz-Thompson adjusted); zero counts are dropped
        and the rest load in one bulk call with fresh tie-break priorities.

        Raises
        ------
        InvalidParameterError
            If more bins than ``capacity`` are supplied, or a count is
            negative or not finite.
        """
        if len(bins) > capacity:
            raise InvalidParameterError(
                f"cannot place {len(bins)} bins into a capacity-{capacity} sketch"
            )
        sketch = cls(capacity, seed=seed)
        # "!= 0" rather than "> 0" keeps NaN and negative counts for the
        # loader to refuse.
        sketch._store.load(
            [label for label, count in bins.items() if count != 0],
            [count for count in bins.values() if count != 0],
        )
        sketch._rows_processed = int(rows_processed)
        if total_weight is None:
            total_weight = float(sum(bins.values()))
        sketch._total_weight = float(total_weight)
        return sketch

    @property
    def label_replacements(self) -> int:
        """How many times a minimum bin's label has been replaced."""
        return self._label_replacements

    def is_saturated(self) -> bool:
        """Whether the sketch has filled all of its bins."""
        return len(self._store) >= self._capacity

    # ------------------------------------------------------------------
    # Subset sum estimation with uncertainty (§6.4 / §6.5)
    # ------------------------------------------------------------------
    def subset_sum_with_error(self, predicate: ItemPredicate) -> EstimateWithError:
        """Subset sum estimate with the equation-5 variance estimate attached."""
        retained = self.estimates()
        estimate = 0.0
        in_subset = 0
        for item, count in retained.items():
            if predicate(item):
                estimate += count
                in_subset += 1
        variance = subset_variance_estimate(self.min_count, in_subset)
        return EstimateWithError(estimate=estimate, variance=variance)

    def subset_sum_confidence_interval(
        self, predicate: ItemPredicate, confidence: float = 0.95
    ) -> Tuple[float, float]:
        """Normal confidence interval for a subset sum (§6.5)."""
        return self.subset_sum_with_error(predicate).confidence_interval(confidence)

    def total_estimate(self) -> float:
        """Estimate of the total weight; exact by construction.

        Every row increments exactly one counter by its weight, so the sum
        of all retained counters always equals the total ingested weight.
        This is one advantage over priority sampling noted in §7.
        """
        return float(sum(count for _, count in self._store.items()))

    # ------------------------------------------------------------------
    # Merging (Theorem 2 / §5.5)
    # ------------------------------------------------------------------
    def merge(
        self,
        other: "UnbiasedSpaceSaving",
        *,
        capacity: Optional[int] = None,
        method: str = "pps",
        seed: Optional[int] = None,
    ) -> "UnbiasedSpaceSaving":
        """Merge with another unbiased sketch into a new unbiased sketch.

        Method form of :func:`repro.core.merge.merge_unbiased`, provided so
        the sketch satisfies the :class:`repro.api.Mergeable` protocol.
        Neither input is mutated; the merged sketch remains unbiased for
        all subset sums over the combined data (Theorem 2).
        """
        from repro.core.merge import merge_many_unbiased

        return merge_many_unbiased(
            [self, other], capacity=capacity, method=method, seed=seed
        )

    # ------------------------------------------------------------------
    # Serialization: the core frame plus the replacement counter
    # ------------------------------------------------------------------
    def _serial_state(self):
        meta, arrays = super()._serial_state()
        meta["label_replacements"] = self._label_replacements
        # Keep the key order, and so the bytes, of earlier frames.
        meta["rng_state"] = meta.pop("rng_state")
        return meta, arrays

    @classmethod
    def _from_serial_state(cls, meta, arrays):
        sketch = super()._from_serial_state(meta, arrays)
        sketch._label_replacements = int(meta["label_replacements"])
        return sketch

    # ------------------------------------------------------------------
    # Introspection used by the merge / evaluation layers
    # ------------------------------------------------------------------
    def bins(self) -> List[Tuple[Item, float]]:
        """Return the retained ``(label, count)`` pairs as a list."""
        return list(self._store.items())

    def approximate_inclusion_probability(self, count: float) -> float:
        """Approximate probability that an item of true count ``count`` is retained.

        In the i.i.d. regime the sketch behaves like a thresholded PPS sample
        with threshold ``N̂_min`` (§6.2): items with ``count >= N̂_min`` are
        retained with probability (approaching) 1 and smaller items with
        probability ``count / N̂_min``.
        """
        if count < 0:
            raise InvalidParameterError("count must be non-negative")
        min_count = self.min_count
        if min_count <= 0:
            return 1.0
        return min(1.0, count / min_count)
