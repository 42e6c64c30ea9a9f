"""Periodic background checkpointing for a serving registry.

Every served session whose sketch implements the :mod:`repro.io`
serialization contract is persisted on a schedule: the session's
estimator goes to its own atomically-written checkpoint file (RNG state
travels in the payload, so restored sketches continue their stream
exactly), and a ``manifest.json`` — also atomically replaced — records,
per session, the key, spec, backend, window and TTL needed to rebuild
the :class:`~repro.api.session.StreamSession` wrapper around the
restored estimator.  :func:`restore_registry` reverses the process, so::

    server = SketchServer.restore("/var/lib/sketches")

brings every session back exactly as of the last completed checkpoint.

Checkpoints run between writer batches on the event loop (the sketch
state is always at a batch boundary — never half-applied), and sessions
whose applied row count has not moved since the last checkpoint are
skipped.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import Any, Dict, List, Optional
from urllib.parse import quote

from repro.api.session import StreamSession
from repro.errors import SerializationError
from repro.io.checkpoint import load_checkpoint, save_checkpoint, write_atomic
from repro.serve.registry import SketchRegistry
from repro.serve.session import ServedSession

__all__ = [
    "CheckpointScheduler",
    "checkpoint_registry",
    "read_manifest",
    "restore_registry",
    "session_filename",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "repro.serve.checkpoint"
MANIFEST_VERSION = 1


def session_filename(tenant: str, name: str, *, suffix: str = ".ckpt") -> str:
    """A filesystem-safe, collision-free file name for one session key.

    Shared with the tiering layer (:mod:`repro.serve.tiering`), which
    stores spilled frames under the same scheme with its own suffix.
    """
    return f"{quote(tenant, safe='')}__{quote(name, safe='')}{suffix}"


def _session_filename(served: ServedSession) -> str:
    return session_filename(served.tenant, served.name)


def _write_manifest(directory: Path, manifest: Dict[str, Any]) -> None:
    write_atomic(directory / MANIFEST_NAME, (json.dumps(manifest, indent=2) + "\n").encode())


def checkpoint_registry(
    registry: SketchRegistry, directory, *, force: bool = False
) -> Dict[str, Any]:
    """Checkpoint every (dirty) session in ``registry`` under ``directory``.

    Returns the manifest written.  With ``force=False`` sessions whose
    applied row count is unchanged since their last checkpoint keep their
    existing file (the manifest still lists them); ``force=True`` rewrites
    everything.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries: List[Dict[str, Any]] = []
    for served in registry:
        if not callable(getattr(served.session.estimator, "to_bytes", None)):
            # Ad-hoc adopted estimators outside the serialization
            # contract are served but not persisted (as documented).
            continue
        info = served.session.describe()
        filename = _session_filename(served)
        rows_applied = served.stats.rows_applied
        if force or rows_applied != served.rows_checkpointed or not (
            directory / filename
        ).exists():
            save_checkpoint(served.session.estimator, directory / filename)
            served.rows_checkpointed = rows_applied
        entries.append(
            {
                "tenant": served.tenant,
                "name": served.name,
                "file": filename,
                "spec": info["spec"],
                "backend": info["backend"],
                "window": info["window"],
                "ttl": served.ttl,
                "rows_applied": rows_applied,
            }
        )
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "sessions": entries,
    }
    _write_manifest(directory, manifest)
    return manifest


def read_manifest(directory) -> Dict[str, Any]:
    """A checkpoint directory's manifest, checked before any frame is read.

    Raises :class:`~repro.errors.SerializationError` when the manifest is
    missing, is not a serve checkpoint manifest, or is newer than
    :data:`MANIFEST_VERSION`.
    """
    manifest_path = Path(directory) / MANIFEST_NAME
    if not manifest_path.exists():
        raise SerializationError(
            f"no serve checkpoint manifest at {manifest_path}"
        )
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != MANIFEST_FORMAT:
        raise SerializationError(
            f"{manifest_path} is not a serve checkpoint manifest "
            f"(format={manifest.get('format')!r})"
        )
    if int(manifest.get("version", 0)) > MANIFEST_VERSION:
        raise SerializationError(
            f"serve checkpoint manifest version {manifest['version']} is newer "
            f"than this library understands (max {MANIFEST_VERSION})"
        )
    return manifest


def restore_registry(
    directory,
    *,
    registry: Optional[SketchRegistry] = None,
    **registry_kwargs,
) -> SketchRegistry:
    """Rebuild a registry from a checkpoint directory's manifest.

    Each checkpoint file is loaded through the :mod:`repro.io` type
    registry (no class needs to be named up front), wrapped back into a
    :class:`StreamSession` with its recorded spec/backend labels (window
    policies re-derive from the restored estimator itself), and adopted
    under its original ``(tenant, name)`` key and TTL.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    if registry is None:
        registry = SketchRegistry(**registry_kwargs)
    for entry in manifest["sessions"]:
        estimator = load_checkpoint(directory / entry["file"])
        session = StreamSession(
            estimator, spec_name=entry["spec"], backend=entry["backend"]
        )
        served = registry.adopt(
            entry["name"],
            session,
            tenant=entry["tenant"],
            ttl=entry["ttl"],
        )
        served.rows_checkpointed = int(entry["rows_applied"])
        served.stats.rows_applied = int(entry["rows_applied"])
        served.stats.rows_enqueued = int(entry["rows_applied"])
    return registry


class CheckpointScheduler:
    """Background task checkpointing a registry every ``interval`` seconds."""

    def __init__(
        self, registry: SketchRegistry, directory, *, interval: float = 30.0
    ) -> None:
        self._registry = registry
        self._directory = Path(directory)
        self._interval = float(interval)
        self._task: Optional[asyncio.Task] = None
        self._checkpoints_written = 0
        #: Message of the most recent failed background pass (``None``
        #: when the last pass succeeded).  A failing pass never kills the
        #: periodic task — the next interval retries.
        self.last_error: Optional[str] = None

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def interval(self) -> float:
        return self._interval

    @property
    def checkpoints_written(self) -> int:
        """Completed checkpoint passes since the scheduler was created."""
        return self._checkpoints_written

    def checkpoint_now(self, *, force: bool = False) -> Dict[str, Any]:
        """Run one synchronous checkpoint pass immediately."""
        manifest = checkpoint_registry(self._registry, self._directory, force=force)
        self._checkpoints_written += 1
        self.last_error = None
        return manifest

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self._interval)
            try:
                self.checkpoint_now()
            except Exception as exc:
                # A transient failure (disk full, permission blip) must
                # not silently end persistence for the server's lifetime.
                self.last_error = f"{type(exc).__name__}: {exc}"

    def start(self) -> None:
        """Start the periodic task on the running loop (idempotent)."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name=f"serve-checkpointer:{self._directory}"
            )

    async def stop(self, *, final: bool = True) -> None:
        """Cancel the periodic task, optionally writing one last checkpoint."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        if final:
            self.checkpoint_now()
