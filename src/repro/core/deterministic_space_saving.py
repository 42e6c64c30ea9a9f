"""Deterministic Space Saving (Metwally, Agrawal and El Abbadi, 2005).

This is the classic frequent-item sketch the paper's contribution modifies:
maintain ``m`` labeled counters; an arriving item that already labels a bin
increments that bin, and an arriving item that does not *always* takes over a
minimum-count bin (replacement probability ``p = 1`` in Algorithm 1).

The sketch offers deterministic guarantees — every counter overestimates the
true count by at most ``n_tot / m`` — which makes it excellent for frequent
item identification on i.i.d. data, but its counts are biased upward, and on
non-i.i.d. (e.g. partially sorted) streams it can fail completely at the
disaggregated subset sum problem (§6.3 of the paper, reproduced in
figures 7 and 10).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro._typing import Item
from repro.core.base import check_phi
from repro.core.unbiased_space_saving import SpaceSaving

__all__ = ["DeterministicSpaceSaving"]


class DeterministicSpaceSaving(SpaceSaving):
    """The original Space Saving sketch (``p = 1`` label replacement).

    The :class:`~repro.core.unbiased_space_saving.SpaceSaving` core with
    the always-replace contest rule and per-bin acquisition errors; the
    counters are float-native, so real-valued weights need no opt-in.

    Parameters
    ----------
    capacity:
        Number of bins ``m``.
    seed:
        Seed for the tie-breaking generator.  The deterministic sketch only
        uses randomness to break ties among equal minimum bins, matching the
        randomized tie-breaking assumed by the paper's analysis.

    Notes
    -----
    In addition to the counter, each bin records the *acquisition error*
    ``ε_i`` — the counter value the bin held when its current label took it
    over.  ``N̂_i - ε_i`` is a lower bound on the true count, which yields the
    classic guaranteed heavy-hitter report.

    Example
    -------
    >>> sketch = DeterministicSpaceSaving(capacity=2)
    >>> for item in ["a", "a", "b", "c"]:
    ...     sketch.update(item)
    >>> sketch.estimate("a")
    2.0
    """

    always_replace = True
    track_errors = True

    def acquisition_error(self, item: Item) -> float:
        """The ``ε_i`` over-count bound for a retained item (0 if absent)."""
        return self._store.acquisition_error(item)

    def lower_bound(self, item: Item) -> float:
        """Guaranteed lower bound ``N̂_i − ε_i`` on the true count of ``item``."""
        return max(0.0, self.estimate(item) - self.acquisition_error(item))

    def error_bound(self) -> float:
        """Deterministic error bound shared by every estimate.

        Every counter overestimates its item's true count by at most the
        current minimum counter, which itself is at most ``n_tot / m``.
        """
        return self.min_count

    def guaranteed_heavy_hitters(self, phi: float) -> Dict[Item, float]:
        """Items that are *provably* above the ``phi`` relative frequency.

        An item is guaranteed frequent when its lower bound exceeds the
        threshold ``phi * n_tot``.
        """
        threshold = check_phi(phi) * self._total_weight
        return {
            item: count
            for item, count in self.estimates().items()
            if count - self.acquisition_error(item) >= threshold
        }

    def possible_heavy_hitters(self, phi: float) -> Dict[Item, float]:
        """Items that *may* be above the threshold (estimate exceeds it)."""
        return self.heavy_hitters(phi)

    def to_misra_gries_estimates(self) -> Dict[Item, float]:
        """Convert to the isomorphic Misra-Gries estimates (§5.2).

        The Misra-Gries estimate equals the Space Saving estimate soft
        thresholded by the minimum counter:
        ``N̂_i^MG = (N̂_i − N̂_min)_+``.
        """
        min_count = self.min_count
        return {
            item: max(0.0, count - min_count)
            for item, count in self.estimates().items()
        }

    def bins(self) -> List[Tuple[Item, float, float]]:
        """Return ``(label, count, acquisition_error)`` for every bin."""
        return [
            (item, count, self.acquisition_error(item))
            for item, count in self._store.items()
        ]
