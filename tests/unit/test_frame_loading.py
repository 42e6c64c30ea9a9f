"""Loading Space Saving frames: validation at load, and legacy frames.

Two guarantees are pinned here:

1. A frame whose bin table is malformed — misaligned columns, more bins
   than capacity, a repeated label, a NaN, infinite or negative count —
   is refused with :class:`~repro.errors.SerializationError` instead of
   loading a sketch whose total silently disagrees with its counters.
   So is a frame whose generator state is neither a ``PCG64`` state nor
   a version-1 Mersenne Twister state.  The server's ``adopt`` op loads client-supplied frames through the
   same path, so a refused frame creates no session.
2. Frames written by the scalar ``heap`` / ``stream_summary`` stores
   (which carry no tie-break ``priorities``) still load.  The golden
   frames in ``tests/data/legacy_frames`` were written by the last
   version that had those stores (commit d15afc5) together with the
   query answers recorded there in ``expected.json``.  Estimates, totals,
   row counts, label replacements and acquisition errors restore
   exactly; loading is deterministic; continuation is unbiased but not
   draw-identical to the writer.
3. Frames written by the removed multiprocess ``ParallelSketchExecutor``
   load as a :class:`~repro.distributed.sharded.ShardedSketch`.  The golden
   ``parallel_executor`` frame was written by the last version that had
   the executor (commit 89b21ff).  Its state is a ``ShardedSketch`` state
   plus two pool settings, so it restores exactly and continues
   bit-identically to a ``ShardedSketch`` built from the same state, and a
   served checkpoint recorded under the ``"parallel"`` backend label
   restores as ``"sharded"``.
"""

from __future__ import annotations

import asyncio
import base64
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.deterministic_space_saving import DeterministicSpaceSaving
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.distributed.sharded import ShardedSketch
from repro.errors import SerializationError
from repro.io import load_bytes
from repro.io.codec import decode_item, pack_envelope, unpack_envelope
from repro.sampling.reservoir import ReservoirSampler
from repro.serve import SketchServer, TCPServeClient, restore_registry
from repro.serve.checkpoint import MANIFEST_FORMAT, MANIFEST_NAME, MANIFEST_VERSION
from repro.serve.registry import DEFAULT_TENANT

LEGACY = Path(__file__).resolve().parent.parent / "data" / "legacy_frames"
EXPECTED = json.loads((LEGACY / "expected.json").read_text())


def _frame(sketch, edit) -> bytes:
    """Re-pack ``sketch``'s frame after ``edit(meta, arrays)`` mutates it."""
    type_name, _, meta, arrays = unpack_envelope(sketch.to_bytes())
    edit(meta, arrays)
    return pack_envelope(type_name, meta, arrays)


def _uss():
    sketch = UnbiasedSpaceSaving(4, seed=0)
    sketch.update_batch(["a", "b", "c", "a"])
    return sketch


def _dss():
    sketch = DeterministicSpaceSaving(4, seed=0)
    sketch.update_batch(["a", "b", "c", "a"])
    return sketch


def _set_count(value):
    def edit(meta, arrays):
        arrays["counts"][1] = value

    return edit


def _truncate(name):
    def edit(meta, arrays):
        arrays[name] = arrays[name][:-1]

    return edit


def _shrink_capacity(meta, arrays):
    meta["capacity"] = 2


def _repeat_label(meta, arrays):
    meta["labels"][1] = meta["labels"][0]


MALFORMED = [
    pytest.param(_uss, _set_count(float("nan")), id="nan-count"),
    pytest.param(_uss, _set_count(float("inf")), id="inf-count"),
    pytest.param(_uss, _set_count(-1.0), id="negative-count"),
    pytest.param(_uss, _truncate("counts"), id="short-counts"),
    pytest.param(_uss, _truncate("priorities"), id="short-priorities"),
    pytest.param(_dss, _truncate("acquisition_errors"), id="short-errors"),
    pytest.param(_uss, _shrink_capacity, id="over-capacity"),
    pytest.param(_uss, _repeat_label, id="duplicate-label"),
]


@pytest.mark.parametrize("make,edit", MALFORMED)
def test_load_bytes_refuses_malformed_bins(make, edit):
    sketch = make()
    # The untouched frame loads; only the edit makes it invalid.
    assert load_bytes(sketch.to_bytes()).estimates() == sketch.estimates()
    with pytest.raises(SerializationError, match="invalid bins"):
        load_bytes(_frame(sketch, edit))


def _reservoir():
    return ReservoirSampler(3, seed=0).extend(["a", "b", "c", "d"])


@pytest.mark.parametrize("make,key", [(_uss, "kernel_rng_state"), (_reservoir, "rng_state")])
@pytest.mark.parametrize(
    "state",
    [{"bit_generator": "MT19937"}, {"state": 5}, "pcg", [3, [1, 2], None]],
    ids=["other-bit-generator", "partial-state", "string", "bad-twister-list"],
)
def test_load_bytes_refuses_a_malformed_generator_state(make, key, state):
    def edit(meta, arrays):
        meta[key] = state

    with pytest.raises(SerializationError, match="invalid generator state"):
        load_bytes(_frame(make(), edit))


def test_adopt_refuses_malformed_frame_without_creating_a_session():
    frame = _frame(_uss(), _truncate("counts"))

    async def scenario():
        server = SketchServer()
        host, port = await server.start_tcp("127.0.0.1", 0)
        client = await TCPServeClient.connect(host, port)
        try:
            with pytest.raises(SerializationError):
                await client.request(
                    "adopt",
                    session="s",
                    frame=base64.b64encode(frame).decode("ascii"),
                    spec="unbiased_space_saving",
                )
            assert list(server.registry) == []
            # The connection survived and the key is still free.
            await client.create("s", "unbiased_space_saving", size=4, seed=0)
        finally:
            await client.close()
            await server.stop()

    asyncio.run(scenario())


def _expected_bins(name):
    return {decode_item(row[0]): row[1:] for row in EXPECTED[name]["bins"]}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_legacy_frame_restores_exactly(name):
    expected = EXPECTED[name]
    sketch = load_bytes((LEGACY / f"{name}.bin").read_bytes())
    assert type(sketch).__name__ == expected["type"]
    assert sketch.capacity == expected["capacity"]
    assert sketch.total_weight == expected["total_weight"]
    assert sketch.rows_processed == expected["rows_processed"]
    bins = _expected_bins(name)
    assert sketch.estimates() == {label: row[0] for label, row in bins.items()}
    if isinstance(sketch, DeterministicSpaceSaving):
        for label, (_, error) in bins.items():
            assert sketch.acquisition_error(label) == error
    elif isinstance(sketch, UnbiasedSpaceSaving):
        assert sketch.label_replacements == expected["label_replacements"]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_legacy_frame_loads_deterministically_and_continues(name):
    payload = (LEGACY / f"{name}.bin").read_bytes()
    first, second = load_bytes(payload), load_bytes(payload)
    assert first.to_bytes() == second.to_bytes()
    rows = np.arange(100, 160) % 23
    for sketch in (first, second):
        sketch.update_batch(rows)
    assert first.estimates() == second.estimates()
    # Every row lands on one counter, so the counters still sum to the
    # ingested total after continuing on the columnar store.
    assert sum(first.estimates().values()) == pytest.approx(first.total_weight)
    assert first.rows_processed == EXPECTED[name]["rows_processed"] + rows.size
    # The re-written frame is a columnar one and round-trips exactly.
    reloaded = load_bytes(first.to_bytes())
    assert reloaded.estimates() == first.estimates()


EXECUTOR_FRAME = (LEGACY / "parallel_executor.bin").read_bytes()


def _continue(sketch):
    rng = np.random.default_rng(3)
    for _ in range(3):
        labels = [f"s{int(v)}" for v in rng.integers(0, 60, 200)]
        sketch.update_batch(labels, rng.exponential(1.0, len(labels)))
    sketch.update(("t", 2), 4.0)
    return sketch


def test_legacy_executor_frame_continues_like_a_sharded_sketch():
    legacy = load_bytes(EXECUTOR_FRAME)
    assert type(legacy) is ShardedSketch
    assert legacy.num_shards == 3
    type_name, _, meta, arrays = unpack_envelope(EXECUTOR_FRAME)
    assert type_name == "ParallelSketchExecutor"
    assert {meta.pop("num_workers"), meta.pop("mp_context")} == {0, None}
    same_state = ShardedSketch.from_bytes(pack_envelope("ShardedSketch", meta, arrays))
    assert same_state.to_bytes() == legacy.to_bytes()

    _continue(legacy)
    _continue(same_state)
    assert legacy.estimates() == same_state.estimates()
    assert legacy.rows_processed == same_state.rows_processed
    assert legacy.total_weight == same_state.total_weight
    assert legacy.to_bytes() == same_state.to_bytes()


def test_served_checkpoint_labelled_parallel_restores_as_sharded(tmp_path):
    expected = EXPECTED["parallel_executor"]
    (tmp_path / "legacy.ckpt").write_bytes(EXECUTOR_FRAME)
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "sessions": [{
            "tenant": DEFAULT_TENANT,
            "name": "legacy",
            "file": "legacy.ckpt",
            "spec": "unbiased_space_saving",
            "backend": "parallel",
            "window": None,
            "ttl": None,
            "rows_applied": expected["rows_processed"],
        }],
    }
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))

    registry = restore_registry(tmp_path)
    session = registry.get("legacy").session
    assert session.backend == "sharded"
    assert session.describe()["backend"] == "sharded"
    assert type(session.estimator) is ShardedSketch
    bins = _expected_bins("parallel_executor")
    assert session.estimates() == {label: row[0] for label, row in bins.items()}
    asyncio.run(registry.aclose_all())
