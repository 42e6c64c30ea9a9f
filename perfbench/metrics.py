"""Metric tables and how each figure is computed from a run.

``END_TO_END`` and ``PER_LAYER`` must name exactly the metrics in
``BENCHMARK.json``; ``run.py`` refuses to run when they drift apart.
Each per-layer entry also says which end-to-end metric it should move,
on which workload — the prediction a change to that layer is judged by.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Sequence, Tuple

import numpy as np

from spans import LAYERS, Tracer
from workloads import Tally

#: (name, unit, better) of every end-to-end metric, reported by every workload.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("ingest_rows_per_s", "rows/s", "higher"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p99_ms", "ms", "lower"),
    ("reads_per_s", "reads/s", "higher"),
    ("commit_p50_ms", "ms", "lower"),
    ("commit_p99_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("ops_ok_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

_CORE = "ingest_rows_per_s on serve_inproc; small on cluster_ingest"
_SERVE = "ingest_rows_per_s and query_p99_ms on serve_inproc"
_PROTOCOL = ("ingest_rows_per_s and query_p50_ms on cluster_ingest; "
             "none on serve_inproc")
_ROUTER_IN = "ingest_rows_per_s on cluster_ingest; none on serve_inproc, pipeline_windowed"
_ROUTER_OUT = "query_p99_ms and reads_per_s on cluster_ingest; none on serve_inproc"
_QUERY = "query_p50_ms on cluster_ingest and serve_inproc"
_WINDOWS = "ingest_rows_per_s and commit_p50_ms on pipeline_windowed; none elsewhere"
_CONNECTORS = "commit_p99_ms on pipeline_windowed; none elsewhere"
_IO = "ingest_rows_per_s on pipeline_windowed"
_HEALTH = "benchmark health: none"
_TRACE = "trace accounting: none"

#: (name, unit, better, what it should move) of every per-layer metric.
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("core.update_batch.calls", "count", "lower", _CORE),
    ("core.update_batch.busy_s", "s", "lower", _CORE),
    ("core.rows_per_call", "rows/call", "higher", _CORE),
    ("core.collapse.busy_s", "s", "lower", _CORE),
    ("core.collapse.distinct_ratio", "ratio", "lower", _CORE),
    ("serve.enqueue_wait_s", "s", "lower", _SERVE),
    ("serve.apply.busy_s", "s", "lower", _SERVE),
    ("serve.coalesce_ratio", "ratio", "higher", _SERVE),
    ("serve.queue_depth_max", "count", "lower", _SERVE),
    ("serve.failed_batches", "count", "lower", _SERVE),
    ("serve.query.busy_s", "s", "lower", _SERVE),
    ("protocol.encode.busy_s", "s", "lower", _PROTOCOL),
    ("protocol.decode.busy_s", "s", "lower", _PROTOCOL),
    ("protocol.encode_item.calls", "count", "lower", _PROTOCOL),
    ("protocol.encode_item.per_row", "ratio", "lower", _PROTOCOL),
    ("protocol.bytes", "bytes", "lower", _PROTOCOL),
    ("protocol.bytes_per_row", "bytes/row", "lower", _PROTOCOL),
    ("router.scatter.busy_s", "s", "lower", _ROUTER_IN),
    ("router.hash.calls", "count", "lower", _ROUTER_IN),
    ("router.hash.per_row", "ratio", "lower", _ROUTER_IN),
    ("router.forward.calls", "count", "lower", _ROUTER_IN),
    ("router.forward.busy_s", "s", "lower", _ROUTER_IN),
    ("router.forward.retries", "count", "lower", _ROUTER_IN),
    ("router.gather.busy_s", "s", "lower", _ROUTER_OUT),
    ("router.gather.bins", "count", "lower", _ROUTER_OUT),
    ("query.subset_sum.busy_s", "s", "lower", _QUERY),
    ("query.top_k.busy_s", "s", "lower", _QUERY),
    ("windows.update_batch.busy_s", "s", "lower", _WINDOWS),
    ("windows.panes_touched", "count", "lower", _WINDOWS),
    ("connectors.poll.busy_s", "s", "lower", _CONNECTORS),
    ("connectors.tick.busy_s", "s", "lower", _CONNECTORS),
    ("connectors.flush_wait_s", "s", "lower", _CONNECTORS),
    ("connectors.lag_rows", "rows", "lower", _CONNECTORS),
    ("io.checkpoint.calls", "count", "lower", _IO),
    ("io.checkpoint.busy_s", "s", "lower", _IO),
    ("io.checkpoint.bytes", "bytes", "lower", _IO),
    ("loadgen.late_p99_ms", "ms", "lower", _HEALTH),
    *((f"self.{layer}_s", "s", "lower", f"self time of the {layer} layer")
      for layer in LAYERS),
    ("loop.idle_s", "s", "higher", _TRACE),
    ("trace.wall_s", "s", "lower", _TRACE),
    ("trace.unattributed_s", "s", "lower", _TRACE),
    ("trace.unattributed_share", "ratio", "lower", _TRACE),
    ("trace.overhead.ingest_ratio", "ratio", "higher", _TRACE),
    ("trace.overhead.query_p50_ratio", "ratio", "lower", _TRACE),
)


def quantile_ms(samples: Sequence[float], q: float) -> float:
    return float(np.quantile(samples, q)) * 1e3 if len(samples) else 0.0


def end_to_end(tally: Tally) -> Dict[str, float]:
    """Every end-to-end figure of one untraced run."""
    attempted = max(tally.attempted, 1)
    return {
        "ingest_rows_per_s": statistics.median(tally.ingest_rates),
        "query_p50_ms": quantile_ms(tally.query_s, 0.50),
        "query_p99_ms": quantile_ms(tally.query_s, 0.99),
        "reads_per_s": statistics.median(tally.read_rates),
        "commit_p50_ms": quantile_ms(tally.commit_s, 0.50),
        "commit_p99_ms": quantile_ms(tally.commit_s, 0.99),
        "setup_s": statistics.median(tally.input_s) + statistics.median(tally.boot_s),
        "ops_ok_ratio": 1.0 - tally.failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, traced: Tally, untraced: Tally) -> Dict[str, float]:
    """Every per-layer figure of one traced run (``untraced`` gives the overhead)."""
    seconds = lambda name: tracer.busy_ns.get(name, 0) / 1e9  # noqa: E731
    calls = tracer.calls
    counts = tracer.counts
    rows = max(traced.rows_sent, 1)
    serving = traced.serving
    flushes = tracer.children_of("connectors.tick", "serve.flush")
    idle = tracer.idle_ns / 1e9
    wall = tracer.wall_ns / 1e9
    self_s = {layer: tracer.self_ns.get(layer, 0) / 1e9 for layer in LAYERS}
    unattributed = wall - idle - sum(self_s.values())
    before, after = end_to_end(untraced), end_to_end(traced)
    figures = {
        "core.update_batch.calls": calls["core.update_batch"],
        "core.update_batch.busy_s": seconds("core.update_batch"),
        "core.rows_per_call": counts["core.rows"] / max(calls["core.update_batch"], 1),
        "core.collapse.busy_s": seconds("core.collapse"),
        "core.collapse.distinct_ratio":
            counts["core.collapse.distinct"] / max(counts["core.collapse.rows"], 1),
        "serve.enqueue_wait_s": seconds("serve.enqueue"),
        "serve.apply.busy_s": seconds("serve.apply"),
        "serve.coalesce_ratio":
            serving.get("batches_enqueued", 0) / max(serving.get("batches_applied", 0), 1),
        "serve.queue_depth_max": serving.get("queue_depth_max", 0),
        "serve.failed_batches": serving.get("failed_batches", 0),
        "serve.query.busy_s": sum(
            seconds(name) for name in ("query.subset_sum", "query.top_k",
                                       "query.total", "query.estimate")),
        "protocol.encode.busy_s":
            (tracer.self_by_name["protocol.encode"] + tracer.busy_ns["protocol.encode_item"]) / 1e9,
        "protocol.decode.busy_s":
            (tracer.self_by_name["protocol.decode"] + tracer.busy_ns["protocol.decode_item"]) / 1e9,
        "protocol.encode_item.calls": calls["protocol.encode_item"],
        "protocol.encode_item.per_row": calls["protocol.encode_item"] / rows,
        "protocol.bytes": counts["protocol.bytes"],
        "protocol.bytes_per_row": counts["protocol.bytes"] / rows,
        "router.scatter.busy_s": seconds("router.scatter"),
        "router.hash.calls": calls["router.hash"],
        "router.hash.per_row": calls["router.hash"] / rows,
        "router.forward.calls": calls["router.forward"],
        "router.forward.busy_s": seconds("router.forward"),
        "router.forward.retries": counts["router.forward.failed"],
        "router.gather.busy_s": seconds("router.gather"),
        "router.gather.bins": counts["router.gather.bins"],
        "query.subset_sum.busy_s": seconds("query.subset_sum"),
        "query.top_k.busy_s": seconds("query.top_k"),
        "windows.update_batch.busy_s": seconds("windows.update_batch"),
        "windows.panes_touched":
            len(tracer.children_of("windows.update_batch", "core.update_batch")),
        "connectors.poll.busy_s": seconds("connectors.poll"),
        "connectors.tick.busy_s": seconds("connectors.tick"),
        "connectors.flush_wait_s": sum(span.end - span.start for span in flushes) / 1e9,
        "connectors.lag_rows": statistics.fmean(traced.lag_rows) if traced.lag_rows else 0.0,
        "io.checkpoint.calls": calls["io.checkpoint"],
        "io.checkpoint.busy_s": seconds("io.checkpoint"),
        "io.checkpoint.bytes": counts["io.checkpoint.bytes"],
        "loadgen.late_p99_ms": quantile_ms(traced.late_s, 0.99),
        **{f"self.{layer}_s": value for layer, value in self_s.items()},
        "loop.idle_s": idle,
        "trace.wall_s": wall,
        "trace.unattributed_s": unattributed,
        "trace.unattributed_share": unattributed / wall if wall else 0.0,
        "trace.overhead.ingest_ratio": after["ingest_rows_per_s"] / before["ingest_rows_per_s"],
        "trace.overhead.query_p50_ratio": after["query_p50_ms"] / before["query_p50_ms"],
    }
    return {name: float(value) for name, value in figures.items()}


def table(rows: List[Tuple[str, float, str]]) -> str:
    width = max(len(name) for name, _, _ in rows)
    return "\n".join(f"  {name:<{width}}  {value:>16.6g} {unit}" for name, value, unit in rows)
