"""Update throughput micro-benchmarks (§6.7: O(1) updates, O(m) space).

``pytest benchmarks/bench_update_throughput.py`` times repeated rounds of
a fixed workload through each sketch, scalar and batched, so per-row
update costs can be compared.  End-to-end throughput of the paths users
take (served, clustered, pipelined) is measured by ``perfbench/``, whose
cluster workload draws its stream from :func:`make_zipf_rows` here.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.api.build import build
from repro.core.deterministic_space_saving import DeterministicSpaceSaving
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.distributed.sharded import ShardedSketch
from repro.frequent.countmin import CountMinSketch
from repro.frequent.misra_gries import MisraGriesSketch
from repro.samplehold.adaptive import AdaptiveSampleAndHold
from repro.sampling.bottom_k import BottomKSketch
from repro.serve import SketchServer
from repro.serve.load import run_producers
from repro.streams.frequency import scaled_weibull_counts, zipf_counts
from repro.streams.generators import chunk_stream, exchangeable_stream, iterate_rows
from repro.windows import SlidingWindowSketch

ROWS = 50_000
CAPACITY = 256


def make_zipf_rows(
    rows: int = 1_000_000,
    num_items: int = 10_000,
    exponent: float = 1.1,
    seed: int = 0,
) -> np.ndarray:
    """An exchangeable 1M-row (by default) Zipf stream as a numpy array."""
    model = zipf_counts(num_items=num_items, exponent=exponent, total=rows)
    stream = exchangeable_stream(model, rng=np.random.default_rng(seed))
    return np.asarray(stream, dtype=np.int64)


@pytest.fixture(scope="module")
def workload():
    model = scaled_weibull_counts(num_items=2_000, shape=0.3, target_total=ROWS)
    return list(iterate_rows(exchangeable_stream(model, rng=np.random.default_rng(0))))


@pytest.fixture(scope="module")
def workload_array(workload):
    return np.asarray(workload, dtype=np.int64)


def _ingest(sketch_factory, rows):
    sketch = sketch_factory()
    update = sketch.update
    for row in rows:
        update(row)
    return sketch


def _ingest_batched(sketch_factory, rows_array):
    sketch = sketch_factory()
    sketch.update_batch(rows_array)
    return sketch


def test_throughput_unbiased_space_saving(benchmark, workload):
    sketch = benchmark(_ingest, lambda: UnbiasedSpaceSaving(CAPACITY, seed=0), workload)
    assert sketch.rows_processed == len(workload)


def test_throughput_unbiased_space_saving_batched(benchmark, workload_array):
    sketch = benchmark(
        _ingest_batched, lambda: UnbiasedSpaceSaving(CAPACITY, seed=0), workload_array
    )
    assert sketch.rows_processed == len(workload_array)


def test_throughput_session_facade(benchmark, workload):
    # Scalar updates through the StreamSession facade: quantifies the
    # per-row passthrough cost of the normalized API vs the raw sketch.
    sketch = benchmark(
        _ingest,
        lambda: build("unbiased_space_saving", size=CAPACITY, seed=0),
        workload,
    )
    assert sketch.rows_processed == len(workload)


def test_throughput_windowed_batched(benchmark, workload_array):
    # Timestamped windowed ingestion: the batch is grouped by pane and
    # each slice rides the pane's own vectorized fast path.
    timestamps = np.linspace(0.0, 60.0, num=len(workload_array), endpoint=False)

    def ingest():
        sketch = SlidingWindowSketch(CAPACITY, horizon="120s", pane="6s", seed=0)
        sketch.update_batch(workload_array, timestamps=timestamps)
        return sketch

    sketch = benchmark(ingest)
    assert sketch.rows_processed == len(workload_array)


def test_throughput_served_queue(benchmark, workload_array):
    # The full served ingest path — bounded queue, coalescing writer,
    # two concurrent producers — including the asyncio loop setup cost.
    chunks = chunk_stream(workload_array, 5_000)

    async def drive():
        async with SketchServer(queue_maxsize=16, coalesce=4) as server:
            await server.client.create(
                "bench", "unbiased_space_saving", size=CAPACITY, seed=0
            )
            await run_producers(server.client, "bench", chunks, num_producers=2)
            return server.registry.get("bench").session.estimator

    sketch = benchmark(lambda: asyncio.run(drive()))
    assert sketch.rows_processed == len(workload_array)


def test_throughput_sharded_batched(benchmark, workload_array):
    sketch = benchmark(
        _ingest_batched,
        lambda: ShardedSketch(CAPACITY, num_shards=8, seed=0),
        workload_array,
    )
    assert sketch.rows_processed == len(workload_array)


def test_throughput_deterministic_space_saving(benchmark, workload):
    sketch = benchmark(_ingest, lambda: DeterministicSpaceSaving(CAPACITY, seed=0), workload)
    assert sketch.rows_processed == len(workload)


def test_throughput_misra_gries(benchmark, workload):
    sketch = benchmark(_ingest, lambda: MisraGriesSketch(CAPACITY), workload)
    assert sketch.rows_processed == len(workload)


def test_throughput_adaptive_sample_and_hold(benchmark, workload):
    sketch = benchmark(_ingest, lambda: AdaptiveSampleAndHold(CAPACITY, seed=0), workload)
    assert sketch.rows_processed == len(workload)


def test_throughput_bottom_k(benchmark, workload):
    sketch = benchmark(_ingest, lambda: BottomKSketch(CAPACITY, seed=0), workload)
    assert sketch.rows_processed == len(workload)


def test_throughput_bottom_k_batched(benchmark, workload_array):
    sketch = benchmark(
        _ingest_batched, lambda: BottomKSketch(CAPACITY, seed=0), workload_array
    )
    assert sketch.rows_processed == len(workload_array)


def test_throughput_countmin(benchmark, workload):
    sketch = benchmark(
        _ingest, lambda: CountMinSketch(width=1024, depth=4, seed=0), workload
    )
    assert sketch.rows_processed == len(workload)


def test_throughput_countmin_batched(benchmark, workload_array):
    sketch = benchmark(
        _ingest_batched,
        lambda: CountMinSketch(width=1024, depth=4, seed=0),
        workload_array,
    )
    assert sketch.rows_processed == len(workload_array)
