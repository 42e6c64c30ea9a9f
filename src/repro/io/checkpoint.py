"""File-backed checkpoint/restore for long-running streams.

A sketch consuming an unbounded stream should survive a process restart
without replaying the stream from the beginning.  The functions here wrap
the binary serialization contract in atomic file persistence:

* :func:`save_checkpoint` writes ``sketch.to_bytes()`` through
  :func:`write_atomic`: a fsynced temporary sibling file renamed over the
  target, so a crash mid-write never leaves a truncated checkpoint — the
  previous complete checkpoint (if any) stays intact.  The serving
  layer's manifest goes through the same function.
* :func:`load_checkpoint` reads a checkpoint back, either through a
  specific class (validating the payload type) or through the registry
  when the caller does not know what was saved.

Because serialized payloads carry the RNG state, restoring a *seeded*
sketch and feeding it the rest of the stream produces exactly the state
an uninterrupted run would have reached — the epoch-stream integration
tests assert this bit-for-bit.
"""

from __future__ import annotations

import os
import uuid
from pathlib import Path
from typing import Any, Optional, Type

from repro.errors import SerializationError
from repro.io.registry import load_bytes

__all__ = ["save_checkpoint", "load_checkpoint", "write_atomic"]


def write_atomic(path, data: bytes) -> Path:
    """Replace the file at ``path`` with ``data`` in one step.

    Returns the path written.  The parent directory is created if needed.
    The bytes are staged under a unique temporary name in the target's
    directory (so concurrent writers cannot clobber each other's staging
    file), fsynced, and renamed over the target; a failure at any point
    removes the staging file and leaves the previous target intact.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    # O_EXCL on a per-writer unique name; mode 0o666 lets the process
    # umask apply as a plain open() would, without mutating global state.
    staging_name = str(target) + f".{os.getpid()}.{uuid.uuid4().hex}.tmp"
    descriptor = os.open(
        staging_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666
    )
    try:
        with os.fdopen(descriptor, "wb") as staging:
            staging.write(data)
            staging.flush()
            os.fsync(staging.fileno())
        os.replace(staging_name, target)
    except BaseException:
        try:
            os.unlink(staging_name)
        except OSError:
            pass
        raise
    return target


def save_checkpoint(sketch: Any, path) -> Path:
    """Atomically persist ``sketch`` (any serializable sketch) to ``path``.

    Returns the path written; the frame goes through :func:`write_atomic`.
    """
    to_bytes = getattr(sketch, "to_bytes", None)
    if to_bytes is None:
        raise SerializationError(
            f"{type(sketch).__name__} does not implement the serialization "
            "contract (no to_bytes method)"
        )
    return write_atomic(path, to_bytes())


def load_checkpoint(path, *, expected_type: Optional[Type] = None) -> Any:
    """Restore a sketch from a checkpoint file.

    Parameters
    ----------
    path:
        The checkpoint file written by :func:`save_checkpoint`.
    expected_type:
        When given, the payload must have been produced by this class
        (``expected_type.from_bytes`` validates and loads it); when
        ``None`` the registry dispatches on the payload's type field.
    """
    data = Path(path).read_bytes()
    if expected_type is not None:
        return expected_type.from_bytes(data)
    return load_bytes(data)
