"""Schema-version-1 frames keep loading after the move to one generator family.

The golden frames in ``tests/data/v1_frames`` were written by the last
version that framed Python Mersenne Twister states (commit a602a3a), with
the answers recorded there in ``expected.json``:

* Space Saving frames (``uss``, ``dss`` and the ``decay`` sketch around a
  USS) also carried the kernel's ``PCG64`` state, so they load and then
  continue draw for draw as the writer did.  Re-framed, they carry the
  same labels, counts, priorities and kernel state under version 2, and
  no Mersenne Twister state.
* Sampler frames (priority, streaming priority, reservoir, Sticky
  Sampling) carried only a Mersenne Twister state.  They load with every
  answer intact and a ``PCG64`` generator from
  :func:`repro.io.codec.legacy_generator`, so loading is deterministic.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.io import SCHEMA_VERSION, load_bytes
from repro.io.codec import decode_item, legacy_generator, unpack_envelope

V1 = Path(__file__).resolve().parent.parent / "data" / "v1_frames"
EXPECTED = json.loads((V1 / "expected.json").read_text())


def _frame(name: str) -> bytes:
    return (V1 / f"{name}.bin").read_bytes()


def _pairs(expected):
    return {decode_item(label): value for label, value in expected}


def _rows(seed, n, distinct=60):
    """The rows the writer drew (same generator, same call)."""
    rng = np.random.default_rng(seed)
    return (rng.zipf(1.3, size=n) % distinct).astype(np.int64)


def _continue_space_saving(sketch):
    sketch.update_batch(_rows(3, 800))
    for label in _rows(4, 50).tolist():
        sketch.update(label, 1.5)
    return sketch


def _continue_decay(sketch):
    rows = _rows(6, 600)
    sketch.update_batch(rows, timestamps=18.0 + np.arange(rows.size) * 4 // rows.size)
    return sketch


CONTINUATIONS = {
    "uss": _continue_space_saving,
    "dss": _continue_space_saving,
    "decay": _continue_decay,
}
SAMPLERS = ["priority", "streaming_priority", "reservoir", "sticky"]


def _bins(frame: bytes):
    """Labels, counts, priorities and kernel state of a (nested) USS/DSS frame."""
    _, _, meta, arrays = unpack_envelope(frame)
    if "sketch" in arrays:
        return _bins(arrays["sketch"].tobytes())
    return (
        meta["labels"],
        arrays["counts"].tolist(),
        arrays["priorities"].tolist(),
        meta["kernel_rng_state"],
        "rng_state" in meta,
    )


def _answers(name, sampler):
    if name == "streaming_priority":
        return {s.item: s.adjusted_value for s in sampler.result()}
    if name == "reservoir":
        return sampler.sample()
    return sampler.estimates()


def _continue_sampler(name, sampler):
    if name == "priority":  # drawn at construction; only its generator goes on
        return sampler._rng.random(4).tolist()
    if name == "streaming_priority":
        sampler.offer_batch([f"w{i}" for i in range(40)], [float(i % 7) for i in range(40)])
    elif name == "sticky":
        sampler.update_batch(_rows(9, 2000).tolist())
    else:
        sampler.extend(_rows(9, 2000).tolist())
    return _answers(name, sampler)


def test_v1_frames_are_version_1():
    assert SCHEMA_VERSION == 2
    for path in sorted(V1.glob("*.bin")):
        assert unpack_envelope(path.read_bytes())[1] == 1, path.name


@pytest.mark.parametrize("name", sorted(CONTINUATIONS))
def test_space_saving_frame_continues_draw_for_draw(name):
    sketch = load_bytes(_frame(name))
    if name != "decay":
        assert sketch.rows_processed == EXPECTED[name]["rows_processed"]
    continued = CONTINUATIONS[name](sketch)
    assert continued.estimates() == _pairs(EXPECTED[name]["continued"])


@pytest.mark.parametrize("name", sorted(CONTINUATIONS))
def test_space_saving_frame_reframes_without_twister_state(name):
    v1 = _frame(name)
    v2 = load_bytes(v1).to_bytes()
    assert unpack_envelope(v2)[1] == SCHEMA_VERSION
    assert _bins(v1)[:4] == _bins(v2)[:4]
    assert _bins(v1)[4] and not _bins(v2)[4]


@pytest.mark.parametrize("name", SAMPLERS)
def test_sampler_frame_restores_its_answers(name):
    sampler = load_bytes(_frame(name))
    expected = EXPECTED[name]
    if name == "reservoir":
        assert sampler.sample() == [decode_item(row) for row in expected["sample"]]
    else:
        assert _answers(name, sampler) == _pairs(expected["estimates"])


@pytest.mark.parametrize("name", SAMPLERS)
def test_sampler_frame_loads_deterministically_through_the_helper(name):
    _, _, meta, _ = unpack_envelope(_frame(name))
    first, second = load_bytes(_frame(name)), load_bytes(_frame(name))
    assert (
        first._rng.bit_generator.state
        == legacy_generator(meta["rng_state"]).bit_generator.state
    )
    assert _continue_sampler(name, first) == _continue_sampler(name, second)


@pytest.mark.parametrize("name", SAMPLERS)
def test_sampler_frame_reframes_with_its_pcg64_state(name):
    loaded = load_bytes(_frame(name))
    _, version, meta, _ = unpack_envelope(loaded.to_bytes())
    assert version == SCHEMA_VERSION
    assert meta["rng_state"] == loaded._rng.bit_generator.state
    restored = load_bytes(loaded.to_bytes())
    assert _continue_sampler(name, restored) == _continue_sampler(name, loaded)
