"""The benchmark's three workloads, driven only through public APIs.

Every workload runs in one asyncio loop in this process: producers and
readers are tasks, and cluster members and the router listen on
loopback, so cluster figures measure the CPU cost of the path, not
cross-host scaling.

A run generates its inputs from the seed :data:`INPUT_BUILDS` times
(keeping the last), then makes several repetitions.  Each repetition
boots a fresh system (servers, session), settles set-up garbage and
measures for its share of the run; rates are the median over
repetitions and latency percentiles pool every sample.  ``setup_s`` is
the median input generation plus the median boot.  The system's own
seeds (ring placement, label sharding, sketch draws) are fixed, so a
different seed changes the inputs and nothing else.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from bench_update_throughput import make_zipf_rows
from repro.cluster import ClusterRouter, Member
from repro.connectors import LogSource, PipelineDriver
from repro.distributed.partition import stable_shard
from repro.serve import SketchServer, TCPServeClient
from repro.streams import bursty_soak_stream
from repro.streams.generators import chunk_stream

SPEC = "unbiased_space_saving"

#: Seed of every system component; the run's ``--seed`` only shapes inputs.
#: With 2 the ring places the four shards two per member.
SYSTEM_SEED = 2

#: Repetitions per run (at least this many for pipeline_windowed).
REPS = 6

#: Times a run generates its inputs; ``setup_s`` takes the median.
INPUT_BUILDS = 3

#: Lowest top-10 recall against exact counts that passes the check.
RECALL_FLOOR = 0.8

now = time.perf_counter


@dataclass
class Tally:
    """What one run measured, pooled over its repetitions (seconds)."""

    input_s: List[float] = field(default_factory=list)
    boot_s: List[float] = field(default_factory=list)
    ingest_rates: List[float] = field(default_factory=list)
    read_rates: List[float] = field(default_factory=list)
    query_s: List[float] = field(default_factory=list)
    commit_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    lag_rows: List[int] = field(default_factory=list)
    rows_sent: int = 0
    attempted: int = 0
    failed: int = 0
    #: Serving counters summed over every server's ``metrics()``.
    serving: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: Any = None) -> None:
        """Record a correctness check; every repetition must pass it."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if detail is not None:
            self.notes[name] = detail

    def record_serving(self, servers: List[SketchServer]) -> None:
        """Add the servers' ingest counters; keep the deepest queue seen."""
        for server in servers:
            ingest = server.metrics()["ingest"]
            for key in ("batches_enqueued", "batches_applied", "failed_batches"):
                self.serving[key] = self.serving.get(key, 0) + ingest[key]
            deepest = max((served.stats.max_queue_depth for served in server.registry), default=0)
            self.serving["queue_depth_max"] = max(self.serving.get("queue_depth_max", 0), deepest)


class Run:
    """One workload run: seed, time budget, optional tracer, results."""

    def __init__(self, seed: int, seconds: float, out_dir: Path, tracer=None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.out_dir = out_dir
        self.tracer = tracer
        self.tally = Tally()

    async def attempt(self, name: str, awaitable) -> bool:
        """Await one operation, counting it as attempted and maybe failed."""
        self.tally.attempted += 1
        try:
            if self.tracer is not None:
                await self.tracer.request(name, awaitable)
            else:
                await awaitable
        except Exception:  # a failed op is counted, and the run goes on
            self.tally.failed += 1
            return False
        return True

    @contextlib.contextmanager
    def measuring(self):
        """Settle set-up garbage, then open the trace window (if tracing)."""
        gc.collect()
        gc.freeze()
        if self.tracer is not None:
            self.tracer.open_window()
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.close_window()
            gc.unfreeze()


def build_inputs(run: Run, make: Callable[[], Any]) -> Any:
    """Call ``make`` :data:`INPUT_BUILDS` times, timing each; return the last result."""
    inputs = None
    for _ in range(INPUT_BUILDS):
        inputs = None  # free the previous build before making the next
        started = now()
        inputs = make()
        run.tally.input_s.append(now() - started)
    return inputs


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
async def open_loop(
    run: Run, rate: float, stop: asyncio.Event, op: Callable[[int], Any], name: str,
    latencies: List[float],
) -> int:
    """Issue ``op(i)`` at ``rate``/s until ``stop``; time each from when due."""
    period = 1.0 / rate
    start = now()
    issued = 0
    while not stop.is_set():
        due = start + issued * period
        delay = due - now()
        if delay > 0:
            await asyncio.sleep(delay)
        run.tally.late_s.append(now() - due)
        await run.attempt(name, op(issued))
        latencies.append(now() - due)
        issued += 1
    return issued


async def closed_loop(
    run: Run, stop: asyncio.Event, op: Callable[[int], Any], name: str,
    latencies: List[float],
) -> int:
    """Issue ``op(i)`` as soon as the previous one returns, until ``stop``."""
    issued = 0
    while not stop.is_set():
        began = now()
        await run.attempt(name, op(issued))
        latencies.append(now() - began)
        issued += 1
    return issued


async def produce(
    run: Run, send: Callable[[np.ndarray], Any], chunks: List[np.ndarray],
    cursor: List[int], deadline: float,
) -> None:
    """Closed-loop producer: send the next chunk (cyclically) until the deadline.

    ``cursor`` is shared between producers, so the chunks sent are
    exactly ``range(cursor[0])`` taken modulo ``len(chunks)``.  A write's
    commit latency is the time until ``update_batch`` acknowledges it.
    """
    while now() < deadline:
        chunk = chunks[cursor[0] % len(chunks)]
        cursor[0] += 1
        began = now()
        if await run.attempt("loadgen.write", send(chunk)):
            run.tally.rows_sent += len(chunk)
        run.tally.commit_s.append(now() - began)


def sent_counts(stream: np.ndarray, chunks: List[np.ndarray], sent: int, labels: int) -> np.ndarray:
    """Exact counts of labels ``0..labels`` in the first ``sent`` chunks, cyclically."""
    passes, rest = divmod(sent, len(chunks))
    prefix = sum(len(chunk) for chunk in chunks[:rest])
    whole = np.bincount(stream, minlength=labels + 1)
    return passes * whole + np.bincount(stream[:prefix], minlength=labels + 1)


def top10_recall(groups: Dict[Any, float], counts: np.ndarray) -> float:
    truth = {int(label) for label in np.argsort(-counts, kind="stable")[:10]}
    return len(truth & {int(label) for label in list(groups)[:10]}) / 10


# ----------------------------------------------------------------------
# serve_inproc
# ----------------------------------------------------------------------
SERVE_ROWS = 4_000_000
SERVE_LABELS = 1_000_000


async def serve_inproc(run: Run) -> None:
    def make():
        stream = make_zipf_rows(SERVE_ROWS, num_items=SERVE_LABELS, exponent=0.8, seed=run.seed)
        return stream, chunk_stream(stream, 1_000)

    stream, chunks = build_inputs(run, make)
    for _ in range(REPS):
        started = now()
        server = SketchServer()
        await server.start()
        try:
            client = server.client
            await client.create("bench", SPEC, size=1024, seed=SYSTEM_SEED)
            run.tally.boot_s.append(now() - started)
            await _serve_inproc_phase(run, client, stream, chunks)
            run.tally.record_serving([server])
        finally:
            await server.stop()


async def _serve_inproc_phase(run, client, stream, chunks) -> None:
    tally = run.tally
    sent_before = tally.rows_sent
    reads_before = len(tally.query_s)

    def read(i: int):
        kind = i % 3
        if kind == 0:
            return client.total("bench")
        if kind == 1:
            return client.top_k("bench", 10)
        return client.subset_sum("bench", lambda label: label % 10 == 3)

    cursor = [0]
    with run.measuring():
        stop = asyncio.Event()
        began = now()
        reader = asyncio.create_task(
            open_loop(run, 200.0, stop, read, "loadgen.read", tally.query_s)
        )
        deadline = began + run.seconds / REPS
        await asyncio.gather(
            *(produce(run, lambda c: client.update_batch("bench", c), chunks, cursor, deadline)
              for _ in range(4))
        )
        applied = await client.flush("bench")
        elapsed = now() - began
        stop.set()
        await reader
        read_elapsed = now() - began
    rows = tally.rows_sent - sent_before
    tally.ingest_rates.append(rows / elapsed)
    tally.read_rates.append((len(tally.query_s) - reads_before) / read_elapsed)
    total = await client.total("bench")
    top = await client.top_k("bench", 10)
    counts = sent_counts(stream, chunks, cursor[0], SERVE_LABELS)
    tally.check("rows_applied_equals_rows_sent", applied == rows, applied)
    tally.check("total_equals_rows_sent", float(total.estimate) == float(rows), total.estimate)
    recall = top10_recall(top.groups, counts)
    tally.check("top10_recall", recall >= RECALL_FLOOR, recall)


# ----------------------------------------------------------------------
# Cluster topology of cluster_ingest
# ----------------------------------------------------------------------
CLUSTER_LABELS = 10_000
CLUSTER_SHARDS = 4


class Cluster:
    """Two loopback members behind a router, and two client connections."""

    def __init__(self, run: Run) -> None:
        self._run = run
        self.servers: List[SketchServer] = []
        self.router: Optional[ClusterRouter] = None
        self.clients: List[TCPServeClient] = []

    async def start(self) -> "Cluster":
        members = []
        for index in range(2):
            server = SketchServer()
            self.servers.append(server)
            host, port = await server.start_tcp("127.0.0.1", 0)
            members.append(Member(f"m{index}", host, port))
        self.router = ClusterRouter(members, seed=SYSTEM_SEED)
        host, port = await self.router.start_tcp("127.0.0.1", 0)
        for _ in range(2):
            self.clients.append(await TCPServeClient.connect(host, port))
        await self.clients[0].create(
            "bench", SPEC, size=256, seed=SYSTEM_SEED, shards=CLUSTER_SHARDS
        )
        return self

    async def stop(self) -> None:
        for client in self.clients:
            await client.close()
        if self.router is not None:
            await self.router.stop()
        for server in self.servers:
            await server.stop()

    async def verify(self, rows: int, counts: np.ndarray, applied: int) -> None:
        """The cluster checks: exact totals, full-alphabet subset sum, recall."""
        tally = self._run.tally
        client = self.clients[0]
        total = float((await client.total("bench")).estimate)
        alphabet = list(range(len(counts)))
        whole = float((await client.subset_sum("bench", alphabet)).estimate)
        top = await client.top_k("bench", 10)
        tally.check("rows_applied_equals_rows_sent", applied == rows, applied)
        tally.check("total_equals_rows_sent", total == float(rows), total)
        tally.check("alphabet_subset_sum_equals_total", whole == total, whole)
        recall = top10_recall(top.groups, counts)
        tally.check("top10_recall", recall >= RECALL_FLOOR, recall)
        tally.record_serving(self.servers)


# ----------------------------------------------------------------------
# cluster_ingest
# ----------------------------------------------------------------------
INGEST_ROWS = 1_000_000
#: Rows per write.  At ~0.2M rows/s, 10k-row batches leave too few writes
#: (and too few reads, which queue behind them) for a p99 in one run.
INGEST_BATCH = 2_000
#: The reader's repeating request pattern: half ``subset_sum`` over 100
#: labels, a quarter ``top_k(10)`` (the router's shard gather) and a
#: quarter point ``estimate``.
READ_CYCLE = ("subset_sum", "top_k", "subset_sum", "estimate")
#: Discarded reads before timing (first gathers, lazy member dials).
WARMUP_READS = 2 * len(READ_CYCLE)


def read_args(seed: int, stream: np.ndarray):
    """Seeded candidate sets for ``subset_sum`` and labels for ``estimate``."""
    rng = np.random.default_rng(seed)
    alphabet = np.arange(1, CLUSTER_LABELS + 1)
    candidates = [
        [int(label) for label in rng.choice(alphabet, 100, replace=False)]
        for _ in range(64)
    ]
    labels = [int(label) for label in rng.choice(stream, 64)]
    return candidates, labels


async def cluster_ingest(run: Run) -> None:
    def make():
        stream = make_zipf_rows(INGEST_ROWS, num_items=CLUSTER_LABELS, exponent=1.1, seed=run.seed)
        return stream, chunk_stream(stream, INGEST_BATCH), read_args(run.seed, stream)

    stream, chunks, args = build_inputs(run, make)
    for _ in range(REPS):
        started = now()
        cluster = Cluster(run)
        try:
            await cluster.start()
            run.tally.boot_s.append(now() - started)
            await _cluster_ingest_phase(run, cluster, stream, chunks, args)
        finally:
            await cluster.stop()


async def _cluster_ingest_phase(run, cluster, stream, chunks, args) -> None:
    tally = run.tally
    sent_before = tally.rows_sent
    reads_before = len(tally.query_s)
    candidates, labels = args
    writer, probe = cluster.clients

    def read(i: int):
        kind, turn = READ_CYCLE[i % len(READ_CYCLE)], i // len(READ_CYCLE)
        if kind == "subset_sum":
            return probe.subset_sum("bench", candidates[turn % len(candidates)])
        if kind == "top_k":
            return probe.top_k("bench", 10)
        return probe.estimate("bench", labels[turn % len(labels)])

    for i in range(WARMUP_READS):
        await read(i)
    cursor = [0]
    with run.measuring():
        stop = asyncio.Event()
        began = now()
        # Closed loop: under saturating ingest each forwarded read queues
        # behind batch slices on the router's member connections, so the
        # cluster cannot sustain a fixed read rate here.
        reader = asyncio.create_task(
            closed_loop(run, stop, read, "loadgen.read", tally.query_s)
        )
        deadline = began + run.seconds / REPS
        await produce(run, lambda c: writer.update_batch("bench", c), chunks, cursor, deadline)
        applied = await writer.flush("bench")
        elapsed = now() - began
        stop.set()
        await reader
        read_elapsed = now() - began
    rows = tally.rows_sent - sent_before
    tally.ingest_rates.append(rows / elapsed)
    tally.read_rates.append((len(tally.query_s) - reads_before) / read_elapsed)
    counts = sent_counts(stream, chunks, cursor[0], CLUSTER_LABELS)
    await cluster.verify(rows, counts, applied)


# ----------------------------------------------------------------------
# pipeline_windowed
# ----------------------------------------------------------------------
SOAK_ROWS_PER_HOUR = 1_000_000
SOAK_HOURS = 2.0
SOAK_LABELS = 10_000
PARTITIONS = 4
#: The horizon must exceed the stream's 2 h span: the driver polls by row
#: count, so a burst-heavy partition falls behind in event time, and a
#: 1 h horizon rejects its whole batch as older than the window.
WINDOW = "sliding:14400s/720s"


def load_log(rows, seed: int) -> LogSource:
    """The log ``LogSource.from_rows`` builds, hashing each label once."""
    source = LogSource(PARTITIONS, seed=seed)
    owner: Dict[Any, str] = {}
    for item, weight, ts in rows:
        partition = owner.get(item)
        if partition is None:
            partition = owner[item] = f"p{stable_shard(item, PARTITIONS, seed=seed)}"
        source.append(item, weight, ts, partition=partition)
    return source


class PolledSource:
    """The log, seen through the driver's source protocol, noting poll times."""

    def __init__(self, source: LogSource) -> None:
        self._source = source
        self.polled_at: Dict[str, float] = {}

    def partitions(self):
        return self._source.partitions()

    def end_offsets(self) -> Dict[str, int]:
        return self._source.end_offsets()

    def poll(self, partition: str, offset: int, max_rows: int):
        self.polled_at[partition] = now()
        return self._source.poll(partition, offset, max_rows)


async def pipeline_windowed(run: Run) -> None:
    """Drain the same log into a fresh session per repetition.

    A repetition is a whole drain, so the offsets check always applies;
    drains repeat until the run has measured ``seconds``.
    """
    def make():
        rows = bursty_soak_stream(
            SOAK_ROWS_PER_HOUR, hours=SOAK_HOURS, num_items=SOAK_LABELS,
            rng=np.random.default_rng(run.seed),
        )
        return np.bincount([row[0] for row in rows]), PolledSource(load_log(rows, SYSTEM_SEED))

    counts, source = build_inputs(run, make)
    checkpoint = run.out_dir / f"pipeline-{os.getpid()}.ckpt"
    measured = 0.0
    try:
        while len(run.tally.boot_s) < REPS or measured < run.seconds:
            started = now()
            server = SketchServer()
            await server.start()
            try:
                client = server.client
                await client.create("pipe", SPEC, size=256, seed=SYSTEM_SEED, window=WINDOW)
                run.tally.boot_s.append(now() - started)
                measured += await _pipeline_phase(run, client, source, counts, checkpoint)
                run.tally.record_serving([server])
            finally:
                await server.stop()
    finally:
        checkpoint.unlink(missing_ok=True)


async def _pipeline_phase(run, client, source, counts, checkpoint) -> float:
    tally = run.tally
    reads_before = len(tally.query_s)
    partitions = sorted(source.partitions())
    ends = source.end_offsets()
    rows = sum(ends.values())
    driver: Optional[PipelineDriver] = None

    async def committed(partition: str, rows: int) -> None:
        tally.attempted += 1
        tally.commit_s.append(now() - source.polled_at[partition])
        if partition == partitions[-1]:
            tally.lag_rows.append(sum(ends.values()) - sum(driver.offsets.values()))

    driver = PipelineDriver(
        source, client, session="pipe", batch_rows=5_000,
        checkpoint_path=checkpoint, checkpoint_every=10, on_partition_applied=committed,
    )
    with run.measuring():
        stop = asyncio.Event()
        began = now()
        reader = asyncio.create_task(open_loop(
            run, 100.0, stop, lambda i: client.total("pipe"), "loadgen.read", tally.query_s,
        ))
        ok = await run.attempt("loadgen.drain", driver.run(final_checkpoint=False))
        elapsed = now() - began
        stop.set()
        await reader
        read_elapsed = now() - began
    tally.rows_sent += rows
    tally.ingest_rates.append(driver.rows_ingested / elapsed)
    tally.read_rates.append((len(tally.query_s) - reads_before) / read_elapsed)
    total = float((await client.total("pipe")).estimate)
    applied = (await client.info("pipe"))["serving"]["rows_applied"]
    top = await client.top_k("pipe", 10)
    tally.check("driver_drained", ok)
    tally.check("offsets_equal_end_offsets", driver.offsets == ends, driver.offsets)
    tally.check("rows_applied_equals_rows_sent", applied == rows, applied)
    tally.check("total_equals_rows_sent", total == float(rows), total)
    tally.check("checkpoint_written", checkpoint.exists())
    recall = top10_recall(top.groups, counts)
    tally.check("top10_recall", recall >= RECALL_FLOOR, recall)
    return elapsed


WORKLOADS: Dict[str, Callable[[Run], Any]] = {
    "serve_inproc": serve_inproc,
    "cluster_ingest": cluster_ingest,
    "pipeline_windowed": pipeline_windowed,
}
