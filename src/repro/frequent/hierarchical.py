"""Hierarchical heavy hitters over a label hierarchy.

Section 3.1 of the paper motivates the disaggregated subset sum problem with
hierarchical aggregation: IP addresses roll up into subnets, ad ids roll up
into advertisers and product categories, and an analyst wants heavy hitters
at *every* level.  A disaggregated subset sum sketch can compute any level of
the hierarchy because a level is just a group-by; this module provides the
dedicated multi-level structure (in the spirit of Zhang et al. 2004 and
Mitzenmacher et al. 2012) that keeps one sketch per hierarchy level so the
per-level heavy hitters and their conditioned counts are available directly.

Items are hierarchical paths represented as tuples, e.g. an IPv4 address
``("10", "1", "2", "3")`` whose prefixes name subnets.  The sketch at level
``d`` aggregates the first ``d`` components of each row's path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro._typing import Item
from repro.core.base import check_phi
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.errors import InvalidParameterError

__all__ = ["HierarchicalHeavyHitters"]

Path = Tuple[Item, ...]


class HierarchicalHeavyHitters:
    """Per-level Unbiased Space Saving sketches over a fixed-depth hierarchy.

    Parameters
    ----------
    depth:
        Number of levels, i.e. the length of every row's path.
    capacity:
        Bin budget of each per-level sketch (a single int) or one budget per
        level (a sequence of ``depth`` ints) when coarser levels need fewer
        bins.
    seed:
        Base seed; level ``d`` uses ``seed + d`` so the per-level randomness
        is independent but reproducible.

    Example
    -------
    >>> hhh = HierarchicalHeavyHitters(depth=2, capacity=8, seed=0)
    >>> hhh.update(("10", "1"))
    >>> hhh.update(("10", "2"))
    >>> hhh.estimate(("10",)) >= 2.0
    True
    """

    def __init__(
        self,
        depth: int,
        capacity,
        *,
        seed: Optional[int] = None,
    ) -> None:
        if depth < 1:
            raise InvalidParameterError("depth must be a positive integer")
        if isinstance(capacity, int):
            capacities = [capacity] * depth
        else:
            capacities = list(capacity)
            if len(capacities) != depth:
                raise InvalidParameterError(
                    f"expected {depth} capacities, got {len(capacities)}"
                )
        base_seed = seed if seed is not None else 0
        self._depth = depth
        self._sketches: List[UnbiasedSpaceSaving] = [
            UnbiasedSpaceSaving(capacities[level], seed=base_seed + level)
            for level in range(depth)
        ]
        self._rows_processed = 0

    @property
    def depth(self) -> int:
        """Number of hierarchy levels."""
        return self._depth

    @property
    def rows_processed(self) -> int:
        """Number of rows ingested."""
        return self._rows_processed

    def level_sketch(self, level: int) -> UnbiasedSpaceSaving:
        """The sketch aggregating prefixes of length ``level + 1``."""
        return self._sketches[level]

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def update(self, path: Sequence[Item], weight: float = 1.0) -> None:
        """Ingest one row whose full path has exactly ``depth`` components."""
        path = tuple(path)
        if len(path) != self._depth:
            raise InvalidParameterError(
                f"expected a path of length {self._depth}, got {len(path)}"
            )
        self._rows_processed += 1
        for level, sketch in enumerate(self._sketches):
            sketch.update(path[: level + 1], weight)

    def extend(self, rows) -> "HierarchicalHeavyHitters":
        """Consume an iterable of paths (or ``(path, weight)`` pairs)."""
        for row in rows:
            if (
                isinstance(row, tuple)
                and len(row) == 2
                and isinstance(row[1], (int, float))
                and isinstance(row[0], (tuple, list))
            ):
                self.update(row[0], float(row[1]))
            else:
                self.update(row)
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(self, prefix: Sequence[Item]) -> float:
        """Unbiased estimate of the total weight under a prefix of any length."""
        prefix = tuple(prefix)
        if not 1 <= len(prefix) <= self._depth:
            raise InvalidParameterError("prefix length must be between 1 and depth")
        return self._sketches[len(prefix) - 1].estimate(prefix)

    def heavy_prefixes(self, level: int, phi: float) -> Dict[Path, float]:
        """Heavy hitters among prefixes of length ``level + 1``."""
        return self._sketches[level].heavy_hitters(phi)

    def hierarchical_heavy_hitters(self, phi: float) -> Dict[Path, float]:
        """Prefixes heavy after discounting their heavy descendants.

        A prefix is reported when its estimated count, minus the counts of
        its already-reported descendants, still reaches ``phi`` times the
        ingested weight — the threshold :meth:`heavy_prefixes` applies —
        under the standard discounted definition of hierarchical heavy
        hitters, evaluated bottom-up.
        """
        threshold = check_phi(phi) * self._sketches[0].total_weight
        reported: Dict[Path, float] = {}
        # Evaluate from the deepest level upward so descendants are known.
        for level in reversed(range(self._depth)):
            for prefix, count in self._sketches[level].estimates().items():
                discounted = count - sum(
                    reported_count
                    for reported_prefix, reported_count in reported.items()
                    if len(reported_prefix) > len(prefix)
                    and reported_prefix[: len(prefix)] == prefix
                )
                if discounted >= threshold:
                    reported[prefix] = discounted
        return reported

    def rollup(
        self, level: int, key: Optional[Callable[[Path], Item]] = None
    ) -> Dict[Item, float]:
        """Aggregate level-``level`` estimates by an arbitrary rollup key.

        This is the "next level in a hierarchy" computation of §3.1: because
        the per-level estimates are unbiased, any further group-by over them
        remains unbiased.
        """
        sketch = self._sketches[level]
        grouped: Dict[Item, float] = {}
        for prefix, count in sketch.estimates().items():
            group = key(prefix) if key is not None else prefix[:-1]
            grouped[group] = grouped.get(group, 0.0) + count
        return grouped
