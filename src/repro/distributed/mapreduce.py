"""Simulated map-reduce sketch aggregation (§5.5's deployment story).

In a map-reduce (or any scatter/gather) framework, each mapper builds a
small sketch over its shard of the raw events and only the sketches travel
over the network; the reducer merges them into one sketch that answers
queries over the union of the data.  This module simulates that pipeline
in-process:

* :func:`sketch_partitions` — the map phase: one Unbiased Space Saving
  sketch per partition.
* :func:`reduce_sketches` — the reduce phase: a single k-way unbiased merge.
* :func:`tree_merge` — a hierarchical (pairwise) merge, the shape a
  multi-level aggregation tree or a combiner stage produces.
* :class:`DistributedSubsetSum` — the end-to-end convenience wrapper used by
  the distributed example and the integration tests.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro._typing import Item, ItemPredicate, Seed
from repro.core.merge import merge_many_unbiased, merge_unbiased
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.core.variance import EstimateWithError
from repro.distributed.partition import round_robin_partition
from repro.errors import InvalidParameterError
from repro.streams.generators import iterate_rows

__all__ = [
    "sketch_partitions",
    "reduce_sketches",
    "tree_merge",
    "DistributedSubsetSum",
]


def sketch_partitions(
    partitions: Sequence[Iterable[Item]],
    capacity: int,
    *,
    seed: Optional[int] = None,
) -> List[UnbiasedSpaceSaving]:
    """Map phase: build one Unbiased Space Saving sketch per partition."""
    if not partitions:
        raise InvalidParameterError("at least one partition is required")
    base_seed = seed if seed is not None else 0
    sketches = []
    for index, partition in enumerate(partitions):
        sketch = UnbiasedSpaceSaving(capacity, seed=base_seed + index)
        for row in iterate_rows(partition):
            sketch.update(row)
        sketches.append(sketch)
    return sketches


def reduce_sketches(
    sketches: Sequence[UnbiasedSpaceSaving],
    *,
    capacity: Optional[int] = None,
    method: str = "pps",
    seed: Optional[int] = None,
) -> UnbiasedSpaceSaving:
    """Reduce phase: merge all mapper sketches in a single unbiased reduction."""
    return merge_many_unbiased(sketches, capacity=capacity, method=method, seed=seed)


def tree_merge(
    sketches: Sequence[UnbiasedSpaceSaving],
    *,
    capacity: Optional[int] = None,
    method: str = "pps",
    seed: Seed = None,
) -> UnbiasedSpaceSaving:
    """Merge sketches pairwise in a balanced tree.

    Each level halves the number of sketches; every pairwise merge is
    unbiased, so the root remains unbiased, but each level adds its own
    reduction noise — the trade-off against :func:`reduce_sketches` that the
    ablation benchmark measures.  Every merge draws from the one generator
    built from ``seed``, which the root sketch then owns.
    """
    if not sketches:
        raise InvalidParameterError("at least one sketch is required")
    rng = np.random.default_rng(seed)
    level = list(sketches)
    while len(level) > 1:
        next_level = []
        for index in range(0, len(level) - 1, 2):
            next_level.append(
                merge_unbiased(
                    level[index],
                    level[index + 1],
                    capacity=capacity,
                    method=method,
                    seed=rng,
                )
            )
        if len(level) % 2 == 1:
            next_level.append(level[-1])
        level = next_level
    return level[0]


class DistributedSubsetSum:
    """End-to-end distributed pipeline: partition, sketch, merge, query.

    Example
    -------
    >>> pipeline = DistributedSubsetSum(capacity=64, num_partitions=4, seed=0)
    >>> sketch = pipeline.run(["a", "b", "a", "c"] * 50)
    >>> sketch.rows_processed
    200
    """

    def __init__(
        self,
        capacity: int,
        num_partitions: int,
        *,
        merge_method: str = "pps",
        merge_strategy: str = "flat",
        seed: Optional[int] = None,
    ) -> None:
        if num_partitions < 1:
            raise InvalidParameterError("num_partitions must be positive")
        if merge_strategy not in ("flat", "tree"):
            raise InvalidParameterError("merge_strategy must be 'flat' or 'tree'")
        self._capacity = capacity
        self._num_partitions = num_partitions
        self._merge_method = merge_method
        self._merge_strategy = merge_strategy
        self._seed = seed
        self._merged: Optional[UnbiasedSpaceSaving] = None

    def run(self, rows: Iterable[Item]) -> UnbiasedSpaceSaving:
        """Execute the full pipeline over a row stream and return the merged sketch."""
        partitions = round_robin_partition(iterate_rows(rows), self._num_partitions)
        mapper_sketches = sketch_partitions(partitions, self._capacity, seed=self._seed)
        merge = reduce_sketches if self._merge_strategy == "flat" else tree_merge
        self._merged = merge(
            mapper_sketches, capacity=self._capacity, method=self._merge_method, seed=self._seed
        )
        return self._merged

    @property
    def merged_sketch(self) -> UnbiasedSpaceSaving:
        """The merged sketch produced by the last :meth:`run` call."""
        if self._merged is None:
            raise InvalidParameterError("run() must be called before querying")
        return self._merged

    def subset_sum(self, predicate: ItemPredicate) -> float:
        """Subset sum estimate from the merged sketch."""
        return self.merged_sketch.subset_sum(predicate)

    def subset_sum_with_error(self, predicate: ItemPredicate) -> EstimateWithError:
        """Subset sum with uncertainty from the merged sketch."""
        return self.merged_sketch.subset_sum_with_error(predicate)
