"""Distributed ingestion: partitioning, sharded execution and map-reduce merges.

Three layers of the scale-out story live here:

* :mod:`repro.distributed.partition` — strategies for splitting a raw event
  stream across workers (hash, round-robin, key-range), including
  :func:`scatter_batch`, the one label-hash scatter behind both the sharded
  executor and the cluster router's key-sharded sessions.
* :mod:`repro.distributed.sharded` — :class:`ShardedSketch`, a live
  hash-partitioned ensemble of Unbiased Space Saving sketches with batched
  ingestion, disjoint-union global queries and a merge down to one sketch.
* :mod:`repro.distributed.mapreduce` — the simulated scatter/gather
  pipeline (§5.5's deployment story): sketch each partition, then merge.
"""

from repro.distributed.mapreduce import (
    DistributedSubsetSum,
    reduce_sketches,
    sketch_partitions,
    tree_merge,
)
from repro.distributed.partition import (
    hash_partition,
    key_range_partition,
    round_robin_partition,
    scatter_batch,
    stable_shard,
)
from repro.distributed.sharded import ShardedSketch

__all__ = [
    "DistributedSubsetSum",
    "ShardedSketch",
    "reduce_sketches",
    "sketch_partitions",
    "tree_merge",
    "hash_partition",
    "key_range_partition",
    "round_robin_partition",
    "scatter_batch",
    "stable_shard",
]
