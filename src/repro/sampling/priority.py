"""Priority sampling (Duffield, Lund and Thorup 2007).

Priority sampling is the state-of-the-art subset sum estimator on
*pre-aggregated* data and the main baseline of the paper's experiments
(figures 3-6).  Each item with value ``n_i`` receives a random priority
``R_i = U_i / n_i`` with ``U_i ~ Uniform(0, 1)``; the ``k`` items with the
smallest priorities form the sample, and the threshold ``τ`` is the
``(k+1)``-th smallest priority.  Sampled items receive the adjusted value
``max(n_i, τ)``, which is unbiased for ``n_i``, and subset sums of adjusted
values are unbiased for the true subset sums.

Both a batch constructor (from a dict of pre-aggregated counts) and a
streaming sampler (one pass over ``(item, value)`` pairs keeping a bounded
heap) are provided; the streaming form is what a production system would run
after the expensive pre-aggregation step the paper contrasts against.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro._typing import Item, ItemPredicate
from repro.core.batching import collapse_batch
from repro.core.variance import EstimateWithError
from repro.errors import EmptySketchError, InvalidParameterError
from repro.io.codec import decode_item, encode_item, generator_from_state
from repro.io.serializable import SerializableSketch
from repro.sampling.horvitz_thompson import SampledItem, WeightedSample

__all__ = ["PrioritySample", "StreamingPrioritySampler"]


class PrioritySample(SerializableSketch):
    """A priority sample drawn from pre-aggregated ``item -> value`` data.

    Parameters
    ----------
    values:
        Pre-aggregated per-item values (the expensive aggregation the paper's
        sketch avoids).
    sample_size:
        Number of retained items ``k``.
    rng:
        The ``np.random.Generator`` supplying the uniform variates; pass a
        seeded one for reproducible draws.

    Example
    -------
    >>> values = {f"item{i}": float(i + 1) for i in range(100)}
    >>> sample = PrioritySample(values, sample_size=20, rng=np.random.default_rng(0))
    >>> len(sample)
    20
    """

    def __init__(
        self,
        values: Dict[Item, float],
        sample_size: int,
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if sample_size < 1:
            raise InvalidParameterError("sample_size must be at least 1")
        if not values:
            raise EmptySketchError("cannot draw a priority sample from no data")
        for item, value in values.items():
            if value < 0:
                raise InvalidParameterError(f"negative value for {item!r}")
        self._rng = np.random.default_rng(rng)
        self._sample_size = sample_size
        self._values = dict(values)
        self._threshold, self._sampled = self._draw()

    def _draw(self) -> Tuple[float, Dict[Item, float]]:
        """Assign priorities (the positive values take one uniform each,
        in order, from one ``rng.random(n)`` call) and keep the ``k`` smallest."""
        items = [item for item, value in self._values.items() if value > 0]
        values = np.array([self._values[item] for item in items], dtype=np.float64)
        priorities = self._rng.random(len(items)) / values
        order = np.argsort(priorities, kind="stable")
        if len(items) > self._sample_size:
            threshold_priority = float(priorities[order[self._sample_size]])
            # tau in the estimator is 1 / threshold-priority scaled form:
            # adjusted value = max(n_i, 1 / R_(k+1)).
            threshold = 1.0 / threshold_priority if threshold_priority > 0 else float("inf")
        else:
            threshold = 0.0
        kept = order[: self._sample_size].tolist()
        return threshold, {items[i]: self._values[items[i]] for i in kept}

    @classmethod
    def from_rows(
        cls,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
        *,
        sample_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> "PrioritySample":
        """Draw a priority sample directly from disaggregated rows.

        The rows are first pre-aggregated with
        :func:`repro.core.batching.collapse_batch` (priority sampling is
        defined on per-item values), then sampled as usual.  This is the
        batch-ingestion entry point for the priority layer.
        """
        unique, collapsed, _, __ = collapse_batch(items, weights)
        return cls(dict(zip(unique, collapsed)), sample_size, rng=rng)

    # -- properties -------------------------------------------------------
    @property
    def threshold(self) -> float:
        """The value-scale threshold ``1 / R_(k+1)`` (0 when nothing was dropped)."""
        return self._threshold

    @property
    def sample_size(self) -> int:
        """The configured sample size ``k``."""
        return self._sample_size

    def __len__(self) -> int:
        return len(self._sampled)

    def __contains__(self, item: Item) -> bool:
        return item in self._sampled

    # -- estimation -------------------------------------------------------
    def adjusted_value(self, item: Item) -> float:
        """Unbiased per-item estimate ``max(n_i, τ)`` (0 when not sampled)."""
        value = self._sampled.get(item)
        if value is None:
            return 0.0
        return max(value, self._threshold)

    def estimates(self) -> Dict[Item, float]:
        """Adjusted values for every sampled item."""
        return {item: self.adjusted_value(item) for item in self._sampled}

    def subset_sum(self, predicate: ItemPredicate) -> float:
        """Unbiased subset sum estimate over the sampled items."""
        return float(
            sum(self.adjusted_value(item) for item in self._sampled if predicate(item))
        )

    def total_estimate(self) -> float:
        """Estimate of the grand total.

        Unlike Unbiased Space Saving, priority sampling does not preserve the
        total exactly; §7 of the paper points to this extra variability as a
        reason the sketch can beat it.
        """
        return float(sum(self.adjusted_value(item) for item in self._sampled))

    def subset_sum_with_error(self, predicate: ItemPredicate) -> EstimateWithError:
        """Subset sum with the pseudo-inclusion-probability variance estimate."""
        return self.as_weighted_sample().subset_sum_with_error(predicate)

    def pseudo_inclusion_probability(self, item: Item) -> float:
        """``min(1, n_i / τ)`` — the Bernoulli probability priority sampling emulates."""
        value = self._values.get(item, 0.0)
        if value <= 0:
            return 0.0
        if self._threshold <= 0:
            return 1.0
        return min(1.0, value / self._threshold)

    def as_weighted_sample(self) -> WeightedSample:
        """View the priority sample as a generic Horvitz-Thompson sample."""
        sample = WeightedSample()
        for item, value in self._sampled.items():
            pi = self.pseudo_inclusion_probability(item)
            sample.add(SampledItem(item, value, max(pi, 1e-12)))
        return sample

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(sample_size={self._sample_size}, "
            f"sampled={len(self._sampled)}, threshold={self._threshold:g}, "
            f"universe={len(self._values)})"
        )

    # ------------------------------------------------------------------
    # Serialization (repro.io contract)
    # ------------------------------------------------------------------
    def _serial_state(self):
        meta = {
            "sample_size": self._sample_size,
            "threshold": self._threshold,
            "value_labels": [encode_item(item) for item in self._values],
            "sampled_labels": [encode_item(item) for item in self._sampled],
            "rng_state": self._rng.bit_generator.state,
        }
        arrays = {
            "values": np.asarray(list(self._values.values()), dtype=np.float64),
            "sampled_values": np.asarray(list(self._sampled.values()), dtype=np.float64),
        }
        return meta, arrays

    @classmethod
    def _from_serial_state(cls, meta, arrays):
        # Bypass __init__: the sample was already drawn by the serializing
        # instance and must not be redrawn on load.
        sample = cls.__new__(cls)
        sample._sample_size = int(meta["sample_size"])
        sample._threshold = float(meta["threshold"])
        sample._values = {
            decode_item(label): float(value)
            for label, value in zip(meta["value_labels"], arrays["values"])
        }
        sample._sampled = {
            decode_item(label): float(value)
            for label, value in zip(meta["sampled_labels"], arrays["sampled_values"])
        }
        sample._rng = generator_from_state(meta["rng_state"])
        return sample


class StreamingPrioritySampler(SerializableSketch):
    """One-pass priority sampler over pre-aggregated ``(item, value)`` pairs.

    Keeps the ``k`` items with the smallest priorities (equivalently the
    largest ``value / U`` keys) in a bounded heap, plus the threshold
    priority, in ``O(log k)`` time per item.
    """

    def __init__(
        self, sample_size: int, *, rng: Optional[np.random.Generator] = None
    ) -> None:
        if sample_size < 1:
            raise InvalidParameterError("sample_size must be at least 1")
        self._sample_size = sample_size
        self._rng = np.random.default_rng(rng)
        # Max-heap (via negated priority) of the k smallest priorities seen.
        self._heap: list[Tuple[float, int, Item, float]] = []
        self._sequence = 0
        self._threshold_priority = float("inf")
        self._items_seen = 0

    def offer(self, item: Item, value: float) -> None:
        """Present one pre-aggregated item to the sampler."""
        if value < 0:
            raise InvalidParameterError("values must be non-negative")
        self._items_seen += 1
        if value != 0:
            self._admit(item, value, self._rng.random())

    def _admit(self, item: Item, value: float, uniform: float) -> None:
        """Keep ``item`` if its priority ``uniform / value`` is among the
        ``k`` smallest seen, updating the threshold priority."""
        priority = uniform / value
        entry = (-priority, self._sequence, item, value)
        self._sequence += 1
        if len(self._heap) < self._sample_size:
            heapq.heappush(self._heap, entry)
        elif priority < -self._heap[0][0]:
            # The heap root holds the largest retained priority; a smaller
            # arriving priority evicts it, and the evicted priority becomes
            # the new threshold candidate.
            evicted = heapq.heappushpop(self._heap, entry)
            self._threshold_priority = min(self._threshold_priority, -evicted[0])
        else:
            self._threshold_priority = min(self._threshold_priority, priority)

    def extend(self, pairs: Iterable[Tuple[Item, float]]) -> "StreamingPrioritySampler":
        """Offer every ``(item, value)`` pair from an iterable."""
        pairs = list(pairs)
        return self.offer_batch([item for item, _ in pairs], [value for _, value in pairs])

    def offer_batch(
        self, items: Iterable[Item], values: Iterable[float]
    ) -> "StreamingPrioritySampler":
        """Offer aligned ``items``/``values`` sequences in one call.

        Inputs are *pre-aggregated* per-item values, so no duplicate
        collapsing is applied.  The non-zero values take one uniform each,
        in order, from one ``rng.random(n)`` call, so a batch draws what
        one :meth:`offer` per item would.  A negative value refuses the
        whole batch.
        """
        items_list = items if isinstance(items, (list, tuple)) else list(items)
        values_list = [float(value) for value in values]
        if len(items_list) != len(values_list):
            raise InvalidParameterError(
                f"items and values must align: got {len(items_list)} items "
                f"and {len(values_list)} values"
            )
        if any(value < 0 for value in values_list):
            raise InvalidParameterError("values must be non-negative")
        self._items_seen += len(values_list)
        offered = [(item, value) for item, value in zip(items_list, values_list) if value != 0]
        for (item, value), uniform in zip(offered, self._rng.random(len(offered)).tolist()):
            self._admit(item, value, uniform)
        return self

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(sample_size={self._sample_size}, "
            f"retained={len(self._heap)}, items_seen={self._items_seen})"
        )

    def result(self) -> WeightedSample:
        """Finalize into a :class:`WeightedSample` of adjusted values."""
        if not self._heap:
            return WeightedSample()
        if self._threshold_priority == float("inf"):
            threshold_value = 0.0
        else:
            threshold_value = (
                1.0 / self._threshold_priority if self._threshold_priority > 0 else float("inf")
            )
        sample = WeightedSample()
        for _, __, item, value in self._heap:
            if threshold_value <= 0:
                pi = 1.0
            else:
                pi = min(1.0, value / threshold_value)
            sample.add(SampledItem(item, value, max(pi, 1e-12)))
        return sample

    # ------------------------------------------------------------------
    # Serialization (repro.io contract)
    # ------------------------------------------------------------------
    def _serial_state(self):
        labels = []
        sequences = []
        priorities = []
        values = []
        for negated_priority, sequence, item, value in self._heap:
            labels.append(encode_item(item))
            sequences.append(sequence)
            priorities.append(-negated_priority)
            values.append(value)
        meta = {
            "sample_size": self._sample_size,
            "threshold_priority": (
                None
                if self._threshold_priority == float("inf")
                else self._threshold_priority
            ),
            "sequence": self._sequence,
            "items_seen": self._items_seen,
            "labels": labels,
            "sequences": sequences,
            "rng_state": self._rng.bit_generator.state,
        }
        arrays = {
            "priorities": np.asarray(priorities, dtype=np.float64),
            "values": np.asarray(values, dtype=np.float64),
        }
        return meta, arrays

    @classmethod
    def _from_serial_state(cls, meta, arrays):
        sampler = cls(int(meta["sample_size"]))
        sampler._heap = [
            (-float(priority), int(sequence), decode_item(label), float(value))
            for label, sequence, priority, value in zip(
                meta["labels"], meta["sequences"], arrays["priorities"], arrays["values"]
            )
        ]
        heapq.heapify(sampler._heap)
        threshold = meta["threshold_priority"]
        sampler._threshold_priority = (
            float("inf") if threshold is None else float(threshold)
        )
        sampler._sequence = int(meta["sequence"])
        sampler._items_seen = int(meta["items_seen"])
        sampler._rng = generator_from_state(meta["rng_state"])
        return sampler
