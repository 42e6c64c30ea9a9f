"""Type-dispatched loading of serialized sketch payloads.

A payload names the class that produced it, so a reader that does not know
the type in advance (a checkpoint directory, a message queue of shard
states) can route it through this registry: :func:`load_bytes` and
:func:`load_dict` peek at the envelope's ``type`` field and hand the state
to the right class.

The registry maps type names to module paths and resolves them lazily, so
importing :mod:`repro.io` never drags in every sketch module (and the
sketch modules can import the serialization mixin without a cycle).
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, Type

from repro.errors import SerializationError
from repro.io.codec import envelope_from_dict, unpack_envelope

__all__ = ["load_bytes", "load_dict", "resolve_sketch_type", "registered_types"]

#: type name -> module defining it.  Every class listed here mixes in
#: :class:`repro.io.serializable.SerializableSketch`.
_SKETCH_MODULES: Dict[str, str] = {
    "UnbiasedSpaceSaving": "repro.core.unbiased_space_saving",
    "DeterministicSpaceSaving": "repro.core.deterministic_space_saving",
    "MisraGriesSketch": "repro.frequent.misra_gries",
    "CountMinSketch": "repro.frequent.countmin",
    "CountSketch": "repro.frequent.count_sketch",
    "LossyCountingSketch": "repro.frequent.lossy_counting",
    "StickySamplingSketch": "repro.frequent.sticky_sampling",
    "BottomKSketch": "repro.sampling.bottom_k",
    "PrioritySample": "repro.sampling.priority",
    "StreamingPrioritySampler": "repro.sampling.priority",
    "ReservoirSampler": "repro.sampling.reservoir",
    "ShardedSketch": "repro.distributed.sharded",
    "TumblingWindowSketch": "repro.windows.windowed",
    "SlidingWindowSketch": "repro.windows.windowed",
    "DecayedWindowSketch": "repro.windows.decayed",
    # Not a sketch, but the same envelope contract: the pipeline driver's
    # checkpoint frame (per-partition offset manifest + nested sketch
    # frame), so checkpoint directories mixing sketches and driver
    # frames stay loadable through one dispatcher.
    "DriverCheckpoint": "repro.connectors.driver",
}

#: Retired type names whose frames load as a current class.  The removed
#: multiprocess executor wrote a ``ShardedSketch`` state plus two pool
#: settings, which ``ShardedSketch`` ignores.
_LOADS_AS: Dict[str, str] = {"ParallelSketchExecutor": "ShardedSketch"}


def registered_types() -> Dict[str, str]:
    """Snapshot of the ``type name -> module`` registry."""
    return dict(_SKETCH_MODULES)


def resolve_sketch_type(type_name: str) -> Type:
    """Import and return the class registered under ``type_name``."""
    type_name = _LOADS_AS.get(type_name, type_name)
    module_path = _SKETCH_MODULES.get(type_name)
    if module_path is None:
        raise SerializationError(
            f"unknown sketch type {type_name!r}; "
            f"registered types: {sorted(_SKETCH_MODULES)}"
        )
    module = importlib.import_module(module_path)
    return getattr(module, type_name)


def load_bytes(data: bytes) -> Any:
    """Reconstruct a sketch from a binary envelope of any registered type."""
    type_name, _, meta, arrays = unpack_envelope(data)
    cls = resolve_sketch_type(type_name)
    return cls._from_serial_state(meta, arrays)


def load_dict(payload: Dict[str, Any]) -> Any:
    """Reconstruct a sketch from a dict envelope of any registered type."""
    type_name, _, meta, arrays = envelope_from_dict(payload)
    cls = resolve_sketch_type(type_name)
    return cls._from_serial_state(meta, arrays)
