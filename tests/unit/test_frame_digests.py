"""Golden digests of seeded Space Saving frames and derived answers.

Every digest below was recorded once and must never move: a refactor of the
Space Saving sketches, the §5.5 merge path, tier demotion or the windowed
query view has to reproduce these bytes exactly.  A digest is the first 16
hex digits of the sha256 of a sketch's ``to_bytes()`` frame, or of the
``repr`` of a query answer (labels, values and iteration order).

The five frame digests were re-recorded once, for schema version 2.  The
``uss``, ``dss`` and ``decay`` frames lost their unused Mersenne Twister
state (and the ``store`` keys only version-1 readers used); their labels,
counts, priorities and kernel generator state did not move.  The merge
and demotion frames moved because the reduction now draws from the same
``PCG64`` generator as the merged sketch, before its priorities.

The ``pipeline_frame`` digest was recorded before ``LogSource`` stored its
partitions as columns and lists of plain ints took the array collapse: the
end-to-end driver path moved no byte.  Its weights are halves and small
integers, so every total is exact whichever order the rows are added in.
"""

from __future__ import annotations

import asyncio
import hashlib

import numpy as np
import pytest

import repro
from repro.connectors import LogSource, PipelineDriver
from repro.core.deterministic_space_saving import DeterministicSpaceSaving
from repro.core.merge import merge_unbiased
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.serve import ServeClient, SketchServer
from repro.serve.tiering import demote_session
from repro.streams import bursty_soak_stream
from repro.windows.decayed import DecayedWindowSketch
from repro.windows.windowed import SlidingWindowSketch


def _digest(value) -> str:
    data = value if isinstance(value, bytes) else repr(value).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _rows(seed: int, n: int = 4000, distinct: int = 400) -> np.ndarray:
    """Zipf-like integer labels, reproducible from ``seed``."""
    rng = np.random.default_rng(seed)
    return (rng.zipf(1.3, size=n) % distinct).astype(np.int64)


def _fill(sketch):
    """Drive all three ingest paths: scalar, list batch, array batch."""
    for label in _rows(1, n=300).tolist():
        sketch.update(f"s{label}")
    sketch.update("heavy", 2.5)
    rows = _rows(2, n=2000)
    sketch.update_batch([f"s{label}" for label in rows.tolist()])
    weights = np.random.default_rng(3).uniform(0.5, 2.0, size=3000)
    sketch.update_batch(_rows(4, n=3000), weights)
    return sketch


def _sketch_frame(kind: str) -> bytes:
    cls = {"uss": UnbiasedSpaceSaving, "dss": DeterministicSpaceSaving}[kind]
    return _fill(cls(64, seed=11)).to_bytes()


def _merge_frame() -> bytes:
    first = _fill(UnbiasedSpaceSaving(64, seed=11))
    second = UnbiasedSpaceSaving(48, seed=12).update_batch(_rows(5))
    return merge_unbiased(first, second, seed=5).to_bytes()


def _demoted_frame() -> bytes:
    session = repro.build("unbiased_space_saving", size=256, seed=7)
    session.update_batch(_rows(6, n=6000, distinct=900))
    demoted, capacity = demote_session(session, 64, seed=5)
    assert capacity == 64
    return demoted.estimator.to_bytes()


def _window_answers(spec: str):
    sketch = SlidingWindowSketch(32, horizon="40s", pane="10s", spec=spec, seed=3)
    rows = _rows(7, n=5000, distinct=300)
    timestamps = np.linspace(0.0, 49.9, rows.size)
    sketch.update_batch(rows, timestamps=timestamps)
    return (
        list(sketch.estimates().items()),
        sketch.subset_sum(lambda label: label % 3 == 0),
        sketch.top_k(5),
        sketch.estimates(last=2),
    )


def _decayed_sketch() -> DecayedWindowSketch:
    """Exponential decay over ages 0..7 at rate 0.25: ``rate * age`` is
    exact and far below the re-basing point, and ``exp`` of each such
    argument rounds the same in numpy's vector kernels and in libm, so
    the digests do not depend on the host's SIMD level."""
    sketch = DecayedWindowSketch(48, policy="decay:exp:0.25", landmark=100.0, seed=9)
    rows = _rows(8, n=3000, distinct=300)
    ages = np.arange(rows.size) * 8 // rows.size
    sketch.update_batch(rows, timestamps=100.0 + ages)
    weights = np.random.default_rng(10).uniform(0.5, 2.0, size=1000)
    timestamps = 100.0 + np.random.default_rng(11).integers(0, 8, size=1000)
    sketch.update_batch(_rows(12, n=1000, distinct=300), weights, timestamps)
    return sketch


def _decayed_answers():
    sketch = _decayed_sketch()
    return (
        list(sketch.estimates().items()),
        sketch.top_k(5),
        sketch.subset_sum_with_error(lambda label: label % 3 == 0),
    )


def _pipeline_frame() -> bytes:
    """A driver drains a seeded 3-partition log into a served sliding window."""
    rows = bursty_soak_stream(
        4000, hours=1.0, num_items=300, bursts_per_hour=2.0, burst_rows=300,
        rng=np.random.default_rng(13),
    )
    weights = np.random.default_rng(14).integers(1, 5, size=len(rows)) / 2.0
    source = LogSource.from_rows(
        [(item, weight, ts) for (item, _, ts), weight in zip(rows, weights.tolist())],
        num_partitions=3,
        seed=13,
    )

    async def drain() -> bytes:
        async with SketchServer() as server:
            client = ServeClient(server)
            # The horizon spans the whole hour: the driver polls by row
            # count, so a lagging partition's rows must stay in the window.
            await client.create(
                "pipe", "unbiased_space_saving", size=48, seed=13,
                window="sliding:4800s/300s",
            )
            driver = PipelineDriver(source, client, session="pipe", batch_rows=250)
            await driver.run(final_checkpoint=False)
            return (await client.export("pipe"))["frame"]

    return asyncio.run(drain())


CASES = {
    "uss_frame": lambda: _sketch_frame("uss"),
    "dss_frame": lambda: _sketch_frame("dss"),
    "merge_unbiased_frame": _merge_frame,
    "demoted_frame": _demoted_frame,
    "window_uss_answers": lambda: _window_answers("unbiased_space_saving"),
    "window_dss_answers": lambda: _window_answers("deterministic_space_saving"),
    "decay_frame": lambda: _decayed_sketch().to_bytes(),
    "decay_answers": _decayed_answers,
    "pipeline_frame": _pipeline_frame,
}

GOLDEN = {
    "uss_frame": "93eb6668ebccceb7",
    "dss_frame": "c6661a1b7d31176a",
    "merge_unbiased_frame": "5c936faab132450c",
    "demoted_frame": "8bb9cad4aef5bd73",
    "window_uss_answers": "e9360d465c861403",
    "window_dss_answers": "67eb2cb9676d19c2",
    "decay_frame": "23ea31593a9449b4",
    "decay_answers": "b3e4b980929acdb6",
    "pipeline_frame": "60a0882638b1f6c2",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert _digest(CASES[case]()) == GOLDEN[case]
