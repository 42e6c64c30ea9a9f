"""Versioned sketch-state envelopes: the wire format of :mod:`repro.io`.

Every serializable sketch reduces its state to two pieces:

* ``meta`` — a JSON-safe dictionary of scalars, item labels and small
  lists (configuration, counters, generator state);
* ``arrays`` — named numpy arrays holding the bulky numeric state
  (counter values, CountMin/Count Sketch tables, rank vectors).

This module packs those pieces into a self-describing envelope in two
interchangeable representations:

* **binary** (:func:`pack_envelope` / :func:`unpack_envelope`) — a magic
  prefix, a length-framed JSON header and the raw little-endian array
  buffers concatenated after it.  Counter arrays round-trip as straight
  ``ndarray.tobytes()`` blobs, so serializing a capacity-10⁵ sketch costs
  one JSON dump plus a few memcpys.
* **dict** (:func:`envelope_to_dict` / :func:`envelope_from_dict`) — a
  plain JSON-compatible dictionary with arrays expanded to lists, for
  debugging, logging and text-based transports.

Both carry a ``schema_version`` field.  Readers accept any version up to
:data:`SCHEMA_VERSION` (older layouts stay loadable as the format grows)
and refuse newer ones with a clear error instead of misparsing them.
Version 2 frames carry ``PCG64`` generator states only; the Mersenne Twister
states of version 1 frames load through :func:`legacy_generator`.

Item labels are arbitrary hashable Python values, so they travel in the
JSON header through :func:`encode_item` / :func:`decode_item`, which
round-trip the types the streams actually produce — ``str``, ``int``,
``float``, ``bool``, ``None`` and arbitrarily nested tuples of those
(composite keys like ``(user, ad)``).
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.errors import SerializationError

__all__ = [
    "SCHEMA_VERSION",
    "MAGIC",
    "encode_item",
    "decode_item",
    "legacy_generator",
    "generator_from_state",
    "pack_envelope",
    "unpack_envelope",
    "envelope_to_dict",
    "envelope_from_dict",
]

#: Current layout version written by this library.  Bump when the meaning
#: of ``meta`` / ``arrays`` entries changes; readers keep accepting every
#: older version.  Version 2 dropped the Mersenne Twister states.
SCHEMA_VERSION = 2

#: Leading magic of every binary envelope.
MAGIC = b"RPRO"

_HEADER_LEN = struct.Struct("<I")

#: ``(type_name, schema_version, meta, arrays)`` — one decoded envelope.
Envelope = Tuple[str, int, Dict[str, Any], Dict[str, np.ndarray]]


# ----------------------------------------------------------------------
# Item labels
# ----------------------------------------------------------------------
def encode_item(item: Any) -> Any:
    """Encode one item label into a JSON-safe value.

    Scalars (``str``, ``int``, ``float``, ``bool``, ``None``) pass through
    unchanged; tuples become ``{"__t__": [...]}`` markers so they decode
    back to tuples (JSON would silently turn them into lists, breaking
    hashability and equality with the live sketch's keys).  Numpy scalar
    labels (a sketch fed rows straight off an array) are lowered to their
    Python equivalents, which compare and hash identically.
    """
    if isinstance(item, np.generic):
        item = item.item()
    if item is None or isinstance(item, (bool, int, float, str)):
        return item
    if isinstance(item, tuple):
        return {"__t__": [encode_item(part) for part in item]}
    raise SerializationError(
        f"item labels of type {type(item).__name__!r} are not serializable; "
        "supported label types are str, int, float, bool, None and tuples thereof"
    )


def decode_item(payload: Any) -> Any:
    """Invert :func:`encode_item`."""
    if isinstance(payload, dict):
        if "__t__" in payload:
            return tuple(decode_item(part) for part in payload["__t__"])
        raise SerializationError(f"unrecognized encoded item {payload!r}")
    return payload


# ----------------------------------------------------------------------
# Generator state
# ----------------------------------------------------------------------
def legacy_generator(state: List[Any]) -> np.random.Generator:
    """The ``PCG64`` generator that stands in for a version-1 frame's
    Mersenne Twister state (``random.Random.getstate()`` as JSON lists).

    The generator is seeded with 128 bits drawn from that state, so a
    legacy frame loads deterministically; its continuation is unbiased
    but not draw-identical to the writer's.
    """
    import random

    version, internal, gauss_next = state
    twister = random.Random()
    twister.setstate((version, tuple(internal), gauss_next))
    return np.random.Generator(np.random.PCG64(twister.getrandbits(128)))


def generator_from_state(state: Any) -> np.random.Generator:
    """Rebuild a framed generator: a ``PCG64`` ``bit_generator.state``
    dictionary, or a version-1 Mersenne Twister list.  A state that is
    neither raises :class:`SerializationError`."""
    try:
        if isinstance(state, list):
            return legacy_generator(state)
        generator = np.random.Generator(np.random.PCG64(0))
        generator.bit_generator.state = state
        return generator
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"frame holds an invalid generator state: {exc}") from exc


# ----------------------------------------------------------------------
# Envelope construction / validation
# ----------------------------------------------------------------------
def _check_schema_version(version: Any) -> int:
    if not isinstance(version, int) or version < 1:
        raise SerializationError(f"invalid schema_version {version!r}")
    if version > SCHEMA_VERSION:
        raise SerializationError(
            f"payload uses schema_version {version}, newer than the "
            f"supported version {SCHEMA_VERSION}; upgrade the library to load it"
        )
    return version


# ----------------------------------------------------------------------
# Binary representation
# ----------------------------------------------------------------------
def pack_envelope(
    type_name: str, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]
) -> bytes:
    """Pack one sketch state into the framed binary envelope."""
    descriptors = []
    buffers = []
    for name, array in arrays.items():
        contiguous = np.ascontiguousarray(array)
        descriptors.append(
            {
                "name": name,
                "dtype": contiguous.dtype.str,
                "shape": list(contiguous.shape),
                "nbytes": int(contiguous.nbytes),
            }
        )
        buffers.append(contiguous.tobytes())
    header = {
        "schema_version": SCHEMA_VERSION,
        "type": type_name,
        "meta": meta,
        "arrays": descriptors,
    }
    try:
        header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise SerializationError(f"sketch metadata is not JSON-safe: {error}") from error
    return b"".join(
        [MAGIC, _HEADER_LEN.pack(len(header_bytes)), header_bytes, *buffers]
    )


def unpack_envelope(data: bytes) -> Envelope:
    """Decode a binary envelope back into ``(type, version, meta, arrays)``.

    Array buffers are copied out of ``data`` so the reconstructed sketch
    owns writable storage regardless of where the bytes came from.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SerializationError(
            f"expected a bytes-like payload, got {type(data).__name__}"
        )
    data = bytes(data)
    prefix_len = len(MAGIC) + _HEADER_LEN.size
    if len(data) < prefix_len or data[: len(MAGIC)] != MAGIC:
        raise SerializationError("not a repro sketch payload (bad magic prefix)")
    (header_len,) = _HEADER_LEN.unpack_from(data, len(MAGIC))
    body_start = prefix_len + header_len
    if len(data) < body_start:
        raise SerializationError("truncated payload: incomplete header")
    try:
        header = json.loads(data[prefix_len:body_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SerializationError(f"corrupt payload header: {error}") from error
    version = _check_schema_version(header.get("schema_version"))
    type_name = header.get("type")
    if not isinstance(type_name, str):
        raise SerializationError("payload header is missing its sketch type")
    arrays: Dict[str, np.ndarray] = {}
    offset = body_start
    for descriptor in header.get("arrays", []):
        try:
            name = descriptor["name"]
            nbytes = int(descriptor["nbytes"])
            if nbytes < 0:
                raise SerializationError(
                    f"corrupt payload: negative size for array {name!r}"
                )
            if offset + nbytes > len(data):
                raise SerializationError(
                    f"truncated payload: array {name!r} is incomplete"
                )
            dtype = np.dtype(descriptor["dtype"])
            if dtype.itemsize == 0:
                raise SerializationError(
                    f"corrupt payload: zero-size dtype for array {name!r}"
                )
            count = nbytes // dtype.itemsize
            flat = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
            arrays[name] = flat.reshape(descriptor["shape"]).copy()
        except SerializationError:
            raise
        except (KeyError, TypeError, ValueError) as error:
            raise SerializationError(
                f"corrupt payload: bad array descriptor {descriptor!r}: {error}"
            ) from error
        offset += nbytes
    return type_name, version, header.get("meta", {}), arrays


# ----------------------------------------------------------------------
# Dict representation
# ----------------------------------------------------------------------
def envelope_to_dict(
    type_name: str, meta: Dict[str, Any], arrays: Dict[str, np.ndarray]
) -> Dict[str, Any]:
    """Build the JSON-compatible dict form of one sketch state."""
    return {
        "schema_version": SCHEMA_VERSION,
        "type": type_name,
        "meta": meta,
        "arrays": {
            name: {
                "dtype": np.asarray(array).dtype.str,
                "shape": list(np.asarray(array).shape),
                "data": np.asarray(array).tolist(),
            }
            for name, array in arrays.items()
        },
    }


def envelope_from_dict(payload: Dict[str, Any]) -> Envelope:
    """Decode the dict form back into ``(type, version, meta, arrays)``."""
    if not isinstance(payload, dict):
        raise SerializationError(
            f"expected a dict payload, got {type(payload).__name__}"
        )
    version = _check_schema_version(payload.get("schema_version"))
    type_name = payload.get("type")
    if not isinstance(type_name, str):
        raise SerializationError("payload is missing its sketch type")
    arrays: Dict[str, np.ndarray] = {}
    for name, descriptor in payload.get("arrays", {}).items():
        try:
            arrays[name] = np.asarray(
                descriptor["data"], dtype=np.dtype(descriptor["dtype"])
            ).reshape(descriptor["shape"])
        except (KeyError, TypeError, ValueError) as error:
            raise SerializationError(
                f"corrupt payload: bad array entry {name!r}: {error}"
            ) from error
    return type_name, version, payload.get("meta", {}), arrays
