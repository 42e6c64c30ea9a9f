"""Unbiased Space Saving: disaggregated subset sum and frequent item estimation.

A from-scratch reproduction of Daniel Ting, *Data Sketches for Disaggregated
Subset Sum and Frequent Item Estimation* (SIGMOD 2018).  The package is laid
out by subsystem:

* :mod:`repro.core` — Unbiased Space Saving, Deterministic Space Saving,
  merges, variance estimation, time decay and the other §5 extensions.
* :mod:`repro.frequent` — frequent-item baselines (Misra-Gries, Lossy
  Counting, Sticky Sampling, CountMin, Count Sketch, hierarchical HH).
* :mod:`repro.sampling` — sampling substrates (PPS, priority, bottom-k,
  reservoir, VarOpt, Horvitz-Thompson).
* :mod:`repro.samplehold` — the Sample-and-Hold family.
* :mod:`repro.streams` — synthetic workloads, pathological orderings and the
  Criteo-like ad impression generator.
* :mod:`repro.query` — subset sums, marginals, filters, SQL-ish engine.
* :mod:`repro.distributed` — partitioning, the sharded executor and
  simulated map-reduce merging.
* :mod:`repro.windows` — time-windowed streaming: tumbling/sliding pane
  rings and continuous forward decay behind one windowed-session surface.
* :mod:`repro.serve` — the concurrent multi-tenant serving layer: one
  asyncio process hosting many named sessions behind bounded ingest
  queues, with TTL/LRU eviction, background checkpointing and a
  JSON-lines TCP protocol.
* :mod:`repro.cluster` — multi-node serving: a consistent-hash router
  over many sketch servers, key-sharded scatter-gather sessions and
  checkpoint-based replica fail-over behind the same wire protocol.
* :mod:`repro.connectors` — streaming ingestion: partitioned log,
  file-tailing and socket-firehose sources behind one offset-addressed
  protocol, plus the exactly-once mini-batch :class:`PipelineDriver`
  whose checkpoints record per-partition offsets next to sketch state.
* :mod:`repro.evaluation` — the experiment harness reproducing every figure.

Every sketch ingests rows one at a time via ``update(item, weight)``, in
bulk via the vectorized ``update_batch(items, weights)`` fast path, or
from any iterable via ``extend(rows)``; :mod:`repro.api` adds the unified
estimator protocol layer and the :func:`repro.build` facade, whose
:class:`~repro.api.StreamSession` routes the same three calls to inline,
sharded or multiprocess execution transparently.

Quickstart
----------
>>> import repro
>>> session = repro.build("unbiased_space_saving", size=100, seed=42)
>>> _ = session.update_batch(["ad1", "ad2", "ad1", "ad3"])
>>> session.subset_sum(lambda ad: ad in {"ad1", "ad3"}).estimate
3.0
"""

from repro.api import (
    QueryResult,
    StreamSession,
    available_specs,
    build,
    capabilities,
    supports,
)
from repro.cluster import ClusterRouter, HashRing, Member
from repro.connectors import (
    FileTailSource,
    LogSource,
    PipelineDriver,
    SocketFirehoseSource,
)
from repro.core import (
    AdaptiveUnbiasedSpaceSaving,
    DeterministicSpaceSaving,
    EstimateWithError,
    GeneralizedSpaceSaving,
    SignedUnbiasedSpaceSaving,
    UnbiasedSpaceSaving,
    collapse_batch,
    merge_many_unbiased,
    merge_unbiased,
)
from repro.distributed import ShardedSketch
from repro.errors import CapabilityError
from repro.io import load_bytes, load_checkpoint, load_dict, save_checkpoint
from repro.query import SketchQueryEngine, SubsetSumEstimator
from repro.serve import (
    ServeClient,
    SketchRegistry,
    SketchServer,
    TCPServeClient,
)
from repro.version import __version__
from repro.windows import (
    DecayedWindowSketch,
    SlidingWindowSketch,
    TumblingWindowSketch,
    parse_window_policy,
)

__all__ = [
    "AdaptiveUnbiasedSpaceSaving",
    "CapabilityError",
    "ClusterRouter",
    "DecayedWindowSketch",
    "DeterministicSpaceSaving",
    "EstimateWithError",
    "FileTailSource",
    "GeneralizedSpaceSaving",
    "HashRing",
    "LogSource",
    "Member",
    "PipelineDriver",
    "QueryResult",
    "ShardedSketch",
    "ServeClient",
    "SignedUnbiasedSpaceSaving",
    "SketchRegistry",
    "SketchServer",
    "SlidingWindowSketch",
    "SocketFirehoseSource",
    "StreamSession",
    "TCPServeClient",
    "TumblingWindowSketch",
    "UnbiasedSpaceSaving",
    "available_specs",
    "build",
    "capabilities",
    "collapse_batch",
    "load_bytes",
    "load_checkpoint",
    "load_dict",
    "merge_many_unbiased",
    "merge_unbiased",
    "parse_window_policy",
    "save_checkpoint",
    "SketchQueryEngine",
    "SubsetSumEstimator",
    "supports",
    "__version__",
]
