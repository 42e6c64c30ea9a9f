"""Checkpoint/restore integration: long epoch streams survive restarts.

The scenario mirrors the paper's sorted-stream experiments (figures 8-10):
a stream ordered by epoch, queried per epoch after ingestion.  A process
consuming such a stream is checkpointed mid-flight, "crashes", is restored
from the checkpoint, and finishes the stream — and must end up in exactly
the state an uninterrupted run reaches, for a single sketch and a sharded
ensemble alike, including when a fresh interpreter does the restoring.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.distributed.sharded import ShardedSketch
from repro.io import load_checkpoint, save_checkpoint
from repro.serve.checkpoint import MANIFEST_NAME, checkpoint_registry
from repro.serve.registry import SketchRegistry
from repro.streams.epochs import EpochPartition
from repro.streams.frequency import scaled_weibull_counts
from repro.streams.generators import iterate_rows
from repro.streams.pathological import sorted_stream

SEED = 20180618
NUM_EPOCHS = 5


@pytest.fixture(scope="module")
def epoch_setup():
    model = scaled_weibull_counts(num_items=400, shape=0.35, target_total=20_000)
    partition = EpochPartition(model, num_epochs=NUM_EPOCHS, ascending=True)
    rows = list(iterate_rows(sorted_stream(model, ascending=True)))
    return partition, rows


def _epoch_estimates(sketch, partition):
    return [sketch.subset_sum(predicate) for predicate in partition.predicates()]


def test_single_sketch_checkpoint_mid_epoch_stream(tmp_path, epoch_setup):
    partition, rows = epoch_setup
    # Cut inside an epoch, not on a boundary, to make the restart ugly.
    cut = len(rows) * 2 // 5 + 17

    uninterrupted = UnbiasedSpaceSaving(capacity=80, seed=SEED)
    for row in rows:
        uninterrupted.update(row)

    first_process = UnbiasedSpaceSaving(capacity=80, seed=SEED)
    for row in rows[:cut]:
        first_process.update(row)
    checkpoint = tmp_path / "sketch.ckpt"
    save_checkpoint(first_process, checkpoint)
    del first_process  # the "crash"

    second_process = load_checkpoint(checkpoint, expected_type=UnbiasedSpaceSaving)
    for row in rows[cut:]:
        second_process.update(row)

    assert second_process.estimates() == uninterrupted.estimates()
    assert _epoch_estimates(second_process, partition) == _epoch_estimates(
        uninterrupted, partition
    )
    assert second_process.total_estimate() == float(len(rows))


def test_checkpoint_is_atomic_and_overwrites(tmp_path, epoch_setup):
    _, rows = epoch_setup
    sketch = UnbiasedSpaceSaving(capacity=40, seed=SEED)
    checkpoint = tmp_path / "rolling.ckpt"
    snapshots = []
    for start in range(0, len(rows), len(rows) // 4):
        for row in rows[start : start + len(rows) // 4]:
            sketch.update(row)
        save_checkpoint(sketch, checkpoint)
        snapshots.append(sketch.rows_processed)
    # Only the newest snapshot survives; no .tmp litter is left behind.
    assert load_checkpoint(checkpoint).rows_processed == snapshots[-1]
    assert list(tmp_path.iterdir()) == [checkpoint]


def test_manifest_write_failing_midway_keeps_the_previous_manifest(
    tmp_path, monkeypatch
):
    registry = SketchRegistry()
    registry.create("a", "unbiased_space_saving", size=16, seed=0)
    checkpoint_registry(registry, tmp_path)
    manifest = tmp_path / MANIFEST_NAME
    before = manifest.read_bytes()

    # The second pass writes b's frame, then the manifest; the manifest's
    # bytes are staged when its fsync fails.
    registry.create("b", "unbiased_space_saving", size=16, seed=0)
    real_fsync = os.fsync
    calls = []

    def fsync(fd):
        calls.append(fd)
        if len(calls) == 2:
            raise OSError("disk gone")
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    with pytest.raises(OSError, match="disk gone"):
        checkpoint_registry(registry, tmp_path)
    assert len(calls) == 2
    assert manifest.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "default__a.ckpt", "default__b.ckpt", MANIFEST_NAME,
    ]


def test_sharded_ensemble_checkpoint_on_epoch_stream(tmp_path, epoch_setup):
    partition, rows = epoch_setup
    batches = [
        np.asarray(rows[start : start + 3000]) for start in range(0, len(rows), 3000)
    ]
    half = len(batches) // 2

    uninterrupted = ShardedSketch(capacity=40, num_shards=4, seed=SEED)
    for batch in batches:
        uninterrupted.update_batch(batch)

    first = ShardedSketch(capacity=40, num_shards=4, seed=SEED)
    for batch in batches[:half]:
        first.update_batch(batch)
    checkpoint = tmp_path / "sharded.ckpt"
    first.save_checkpoint(checkpoint)

    resumed = ShardedSketch.load_checkpoint(checkpoint)
    for batch in batches[half:]:
        resumed.update_batch(batch)

    assert resumed.estimates() == uninterrupted.estimates()
    assert _epoch_estimates(resumed, partition) == _epoch_estimates(
        uninterrupted, partition
    )


def test_windowed_session_checkpoint_mid_rotation(tmp_path):
    # A windowed session is checkpointed *mid-rotation* — partway through a
    # pane, with older panes still in the horizon and some already expired —
    # then restored and fed the rest of the stream.  It must match an
    # uninterrupted run pane for pane: same live panes, same estimates,
    # same in-horizon totals, and the same merged hand-off sketch.
    import repro

    rng = np.random.default_rng(SEED)
    items = [int(value) for value in rng.integers(0, 60, size=4_000)]
    times = sorted(float(value) for value in rng.uniform(0.0, 400.0, size=4_000))
    rows = list(zip(items, times))
    # Cut inside a pane (not on a boundary), after some panes have expired.
    cut = next(index for index, (_, ts) in enumerate(rows) if ts > 245.0)

    def build_session():
        return repro.build(
            "unbiased_space_saving", size=48, window="sliding:2m/30s", seed=SEED
        )

    uninterrupted = build_session()
    for item, ts in rows:
        uninterrupted.update(item, timestamp=ts)

    first_process = build_session()
    for item, ts in rows[:cut]:
        first_process.update(item, timestamp=ts)
    assert first_process.estimator.expired_panes > 0     # rotation happened
    checkpoint = tmp_path / "window.ckpt"
    first_process.save_checkpoint(checkpoint)
    del first_process  # the "crash"

    resumed = repro.StreamSession(repro.load_checkpoint(checkpoint))
    assert resumed.window == "sliding:2m/30s"
    for item, ts in rows[cut:]:
        resumed.update(item, timestamp=ts)

    final = uninterrupted.estimator
    restored = resumed.estimator
    assert [index for index, _ in restored.window_panes()] == [
        index for index, _ in final.window_panes()
    ]
    assert restored.estimates() == final.estimates()
    assert restored.total_estimate() == final.total_estimate()
    assert restored.rows_processed == final.rows_processed
    assert restored.merged(seed=0).estimates() == final.merged(seed=0).estimates()


def test_sharded_checkpoint_resumes_in_a_fresh_process(tmp_path, epoch_setup):
    # A new interpreter finishes the stream from the checkpoint alone: the
    # frame carries every shard's bins and RNG state plus the routing seed,
    # and type-dispatched loading needs no class named up front.
    partition, rows = epoch_setup
    batches = [
        np.asarray(rows[start : start + 4000]) for start in range(0, len(rows), 4000)
    ]
    half = len(batches) // 2

    uninterrupted = ShardedSketch(capacity=40, num_shards=4, seed=SEED)
    for batch in batches:
        uninterrupted.update_batch(batch)

    first = ShardedSketch(capacity=40, num_shards=4, seed=SEED)
    for batch in batches[:half]:
        first.update_batch(batch)
    save_checkpoint(first, tmp_path / "first.ckpt")
    np.savez(tmp_path / "rest.npz", *batches[half:])

    script = (
        "import sys, numpy as np\n"
        "from repro.io import load_checkpoint, save_checkpoint\n"
        "sketch = load_checkpoint(sys.argv[1])\n"
        "rest = np.load(sys.argv[2])\n"
        "for index in range(len(rest.files)):\n"
        "    sketch.update_batch(rest[f'arr_{index}'])\n"
        "save_checkpoint(sketch, sys.argv[3])\n"
    )
    source = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])
    )}
    subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "first.ckpt"),
         str(tmp_path / "rest.npz"), str(tmp_path / "second.ckpt")],
        check=True, env=env, timeout=120,
    )

    resumed = load_checkpoint(tmp_path / "second.ckpt", expected_type=ShardedSketch)
    assert resumed.estimates() == uninterrupted.estimates()
    assert resumed.rows_processed == uninterrupted.rows_processed
    assert _epoch_estimates(resumed, partition) == _epoch_estimates(
        uninterrupted, partition
    )