"""Sticky Sampling (Manku & Motwani 2002).

Sticky Sampling is the randomized companion of Lossy Counting: items are
admitted to the counter set by coin flips whose success probability halves
as the stream grows, and at each rate change every retained counter is
diminished by a geometric number of coin flips (simulating the counts it
would have missed under the new, lower rate).  With probability ``1 − δ``
every item of frequency at least ``ε·N`` is reported and undercounts are at
most ``ε·N``.

The paper mentions the sketch only to set it aside (worse practical
performance and weaker guarantees than the alternatives); it is implemented
here so the frequent-item baseline suite is complete and the comparison can
be reproduced rather than taken on faith.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional

import numpy as np

from repro._typing import Item
from repro.core.base import FrequentItemSketch
from repro.core.batching import unit_rows
from repro.errors import InvalidParameterError, UnsupportedUpdateError
from repro.io.codec import decode_item, encode_item, generator_from_state
from repro.io.serializable import SerializableSketch

__all__ = ["StickySamplingSketch"]


class StickySamplingSketch(FrequentItemSketch, SerializableSketch):
    """Sticky Sampling with support ``epsilon`` and failure probability ``delta``.

    Parameters
    ----------
    epsilon:
        Error / support parameter; counters track items of frequency ε·N.
    delta:
        Failure probability of the guarantee.
    seed:
        Seed for the admission and diminution coin flips.

    Example
    -------
    >>> sketch = StickySamplingSketch(epsilon=0.1, delta=0.01, seed=5)
    >>> _ = sketch.extend(["x"] * 50 + ["y"] * 3)
    >>> sketch.estimate("x") > 0
    True
    """

    def __init__(
        self,
        epsilon: float,
        delta: float = 0.01,
        *,
        seed: Optional[int] = None,
    ) -> None:
        if not 0 < epsilon < 1:
            raise InvalidParameterError("epsilon must lie in (0, 1)")
        if not 0 < delta < 1:
            raise InvalidParameterError("delta must lie in (0, 1)")
        # t = (1/ε)·log(1/(support·δ)) rows per sampling "window"; the classic
        # presentation uses support = ε for the window size.
        window = int(math.ceil((1.0 / epsilon) * math.log(1.0 / (epsilon * delta))))
        super().__init__(max(1, window))
        self._rng = np.random.default_rng(seed)
        self._epsilon = epsilon
        self._delta = delta
        self._window = max(1, window)
        self._sampling_rate = 1.0
        self._next_rate_change = 2 * self._window
        self._counters: Dict[Item, int] = {}

    @property
    def epsilon(self) -> float:
        """The configured support/error parameter."""
        return self._epsilon

    @property
    def delta(self) -> float:
        """The configured failure probability."""
        return self._delta

    @property
    def sampling_rate(self) -> float:
        """Current admission probability ``1/r`` for unseen items."""
        return self._sampling_rate

    def __len__(self) -> int:
        return len(self._counters)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, item: Item, weight: float = 1.0) -> None:
        """Process one unit row."""
        if weight != 1:
            raise UnsupportedUpdateError("Sticky Sampling supports unit-weight rows only")
        self._record_update(1.0)
        if self._rows_processed > self._next_rate_change:
            self._halve_rate()
        if item in self._counters:
            self._counters[item] += 1
            return
        if self._rng.random() < self._sampling_rate:
            self._counters[item] = 1

    def update_batch(
        self,
        items: Iterable[Item],
        weights: Optional[Iterable[float]] = None,
    ) -> "StickySamplingSketch":
        """Batched unit-row ingestion.

        The generic ``update_batch`` collapses duplicates into weighted
        updates, which Sticky Sampling rejects (admission is a per-row coin
        flip).  This override replays the rows through a tight loop that is
        exactly equivalent to the scalar :meth:`update` loop — including the
        order of every admission and diminution draw — with the per-call
        weight validation and bookkeeping hoisted out.
        """
        rows = unit_rows(items, weights, sketch_name="Sticky Sampling")
        rng_random = self._rng.random
        for item in rows:
            self._rows_processed += 1
            if self._rows_processed > self._next_rate_change:
                self._halve_rate()
            counters = self._counters
            if item in counters:
                counters[item] += 1
            elif rng_random() < self._sampling_rate:
                counters[item] = 1
        self._total_weight += float(len(rows))
        return self

    def _halve_rate(self) -> None:
        """Halve the sampling rate and diminish every counter accordingly.

        For each retained counter a sequence of fair coin flips is tossed;
        the counter loses one for every consecutive failure and the item is
        dropped if the counter reaches zero — exactly the adjustment that
        makes the retained state look as if the stream had been sampled at
        the new rate from the start.
        """
        self._sampling_rate /= 2.0
        self._next_rate_change *= 2
        survivors: Dict[Item, int] = {}
        for item, count in self._counters.items():
            while count > 0 and self._rng.random() < 0.5:
                count -= 1
            if count > 0:
                survivors[item] = count
        self._counters = survivors

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(self, item: Item) -> float:
        """Observed (undercounted) frequency of ``item``; 0 when absent."""
        return float(self._counters.get(item, 0))

    def estimates(self) -> Dict[Item, float]:
        return {item: float(count) for item, count in self._counters.items()}

    def frequent_items(self, support: float) -> Dict[Item, float]:
        """Retained items whose count is at least ``(support − ε) · N``."""
        if not 0 < support <= 1:
            raise InvalidParameterError("support must lie in (0, 1]")
        threshold = (support - self._epsilon) * self._rows_processed
        return {
            item: float(count)
            for item, count in self._counters.items()
            if count >= threshold
        }

    # ------------------------------------------------------------------
    # Serialization (repro.io contract)
    # ------------------------------------------------------------------
    def _serial_state(self):
        meta = {
            "epsilon": self._epsilon,
            "delta": self._delta,
            "sampling_rate": self._sampling_rate,
            "next_rate_change": self._next_rate_change,
            "rows_processed": self._rows_processed,
            "total_weight": self._total_weight,
            "labels": [encode_item(item) for item in self._counters],
            "rng_state": self._rng.bit_generator.state,
        }
        counts = np.asarray(list(self._counters.values()), dtype=np.int64)
        return meta, {"counts": counts}

    @classmethod
    def _from_serial_state(cls, meta, arrays):
        sketch = cls(float(meta["epsilon"]), float(meta["delta"]))
        sketch._counters = {
            decode_item(label): int(count)
            for label, count in zip(meta["labels"], arrays["counts"])
        }
        sketch._sampling_rate = float(meta["sampling_rate"])
        sketch._next_rate_change = int(meta["next_rate_change"])
        sketch._rows_processed = int(meta["rows_processed"])
        sketch._total_weight = float(meta["total_weight"])
        sketch._rng = generator_from_state(meta["rng_state"])
        return sketch
