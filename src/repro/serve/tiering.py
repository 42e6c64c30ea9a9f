"""Adaptive accuracy tiering: eviction as demotion, not loss.

The paper's §5.5 capacity reduction makes a sketch *shrinkable without
discarding its stream*: ``reduce_bins_unbiased`` resamples a bin map
down to ``m`` entries while preserving every expected count, so a
smaller sketch built from the reduced bins keeps answering subset sums
unbiasedly — just with more variance.  This module turns the registry's
LRU/TTL eviction into a tier transition built on that theorem:

    hot (full capacity, in memory)
      │ evicted idle
      ▼
    demoted (capacity chosen from the tenant's error budget)
      │ spilled as a repro.io frame
      ▼
    spilled (zero resident counters; only a tiering-index entry)
      │ next access (get / ingest / query on the old key)
      ▼
    rehydrated (live again at demoted capacity, stats restored)

The demoted capacity comes from an :class:`ErrorBudget`: by Eq. 5 the
subset-sum error satisfies ``Var̂(N̂_S) = N̂_min² · C_S`` and Unbiased
Space Saving keeps ``N̂_min ≤ N/m``, so a ``C_S``-item subset's RRMSE
relative to the stream total ``N`` is at most ``√C_S / m``.  Inverting
that bound, :func:`capacity_for_rrmse` returns the smallest ``m``
meeting a target RRMSE — a 1 % single-item budget needs only 100
counters, regardless of how large the hot sketch was.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from math import ceil, sqrt
from pathlib import Path
from random import Random
from typing import Any, Dict, Optional, Tuple

from repro.api.session import StreamSession
from repro.core.merge import reduce_bins_unbiased
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.errors import InvalidParameterError
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.serve.checkpoint import session_filename

__all__ = [
    "AccuracyTiering",
    "ErrorBudget",
    "capacity_for_rrmse",
    "demote_session",
]

SessionKey = Tuple[str, str]

#: Spilled tier frames use their own suffix so a tiering directory can
#: safely share a filesystem tree with the checkpoint scheduler's files.
SPILL_SUFFIX = ".tier"


def capacity_for_rrmse(target_rrmse: float, *, subset_items: int = 1) -> int:
    """Smallest capacity ``m`` whose worst-case RRMSE meets the target.

    Inverts the §6 bound ``RRMSE(N̂_S)/N ≤ √C_S / m`` (from
    ``Var̂(N̂_S) = N̂_min² · C_S`` with ``N̂_min ≤ N/m``), where
    ``subset_items`` is ``C_S``, the number of retained items the queried
    subset may intersect.  The bound is conservative: realized error on
    skewed streams is far below it, because frequent items are kept
    deterministically and contribute zero variance.

    >>> capacity_for_rrmse(0.01)
    100
    >>> capacity_for_rrmse(0.02, subset_items=4)
    100
    """
    if target_rrmse <= 0:
        raise InvalidParameterError(
            f"target_rrmse must be positive, got {target_rrmse}"
        )
    if subset_items < 1:
        raise InvalidParameterError(
            f"subset_items must be >= 1, got {subset_items}"
        )
    return max(1, ceil(sqrt(subset_items) / target_rrmse))


@dataclass(frozen=True)
class ErrorBudget:
    """How much accuracy a tenant's demoted sessions may give up.

    Attributes
    ----------
    target_rrmse:
        Worst-case subset-sum RRMSE (relative to the stream total) a
        demoted session must still meet.
    subset_items:
        ``C_S`` the budget is sized for — how many retained items the
        tenant's typical subset query intersects (1 = point queries).
    min_capacity:
        Floor on the demoted capacity regardless of how loose the budget
        is.
    """

    target_rrmse: float = 0.01
    subset_items: int = 1
    min_capacity: int = 8

    def __post_init__(self) -> None:
        if self.target_rrmse <= 0:
            raise InvalidParameterError(
                f"target_rrmse must be positive, got {self.target_rrmse}"
            )
        if self.subset_items < 1:
            raise InvalidParameterError(
                f"subset_items must be >= 1, got {self.subset_items}"
            )
        if self.min_capacity < 1:
            raise InvalidParameterError(
                f"min_capacity must be >= 1, got {self.min_capacity}"
            )

    def demoted_capacity(self) -> int:
        """The capacity a session demoted under this budget keeps."""
        return max(
            self.min_capacity,
            capacity_for_rrmse(self.target_rrmse, subset_items=self.subset_items),
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "target_rrmse": self.target_rrmse,
            "subset_items": self.subset_items,
            "min_capacity": self.min_capacity,
            "demoted_capacity": self.demoted_capacity(),
        }


def demote_session(
    session: StreamSession, capacity: int, *, seed: Optional[int] = None
) -> Tuple[StreamSession, Optional[int]]:
    """Reduce ``session`` to ``capacity`` counters if that shrinks it.

    Returns ``(session_to_spill, demoted_capacity)``; the capacity is
    ``None`` when no demotion applied — the session was already small
    enough, is windowed (collapsing panes would destroy the window
    semantics the key was created with), or has no §5.5 reduction.
    Sharded ensembles demote through their ``merged()``
    reduction; inline Unbiased Space Saving goes through
    :func:`~repro.core.merge.reduce_bins_unbiased` +
    :meth:`~repro.core.unbiased_space_saving.UnbiasedSpaceSaving.from_bins`
    directly.  Either way the demoted sketch's expected estimates equal
    the original's (Theorem 2), so spilling is lossless in expectation.
    """
    if capacity < 1:
        raise InvalidParameterError(f"capacity must be >= 1, got {capacity}")
    if session.window is not None:
        return session, None
    estimator = session.estimator
    per_shard = getattr(estimator, "capacity", None)
    if per_shard is None:
        return session, None
    resident = int(per_shard) * int(getattr(estimator, "num_shards", 1) or 1)
    if resident <= capacity:
        return session, None
    merged = getattr(estimator, "merged", None)
    if callable(merged):
        reduced = merged(capacity, seed=seed)
    elif isinstance(estimator, UnbiasedSpaceSaving):
        bins = reduce_bins_unbiased(
            estimator.estimates(), capacity, rng=Random(seed)
        )
        reduced = UnbiasedSpaceSaving.from_bins(
            capacity,
            bins,
            rows_processed=estimator.rows_processed,
            total_weight=estimator.total_weight,
            seed=seed,
        )
    else:
        return session, None
    demoted = StreamSession(
        reduced, spec_name=session.spec_name, backend="inline"
    )
    return demoted, capacity


class AccuracyTiering:
    """The spill index and tier store behind a registry's eviction path.

    Holds, per spilled ``(tenant, name)`` key, the on-disk frame plus the
    metadata needed to rebuild the served session exactly as the
    checkpoint layer would — the registry consults :meth:`holds` on every
    miss, so a spilled session is indistinguishable from a live one to
    clients (beyond its demoted accuracy and a rehydration's latency).

    Parameters
    ----------
    directory:
        Where spilled frames live (created on first use; may be the
        checkpoint directory — spill files carry their own suffix).
    default_budget:
        :class:`ErrorBudget` for tenants without an override.
    per_tenant:
        ``{tenant: ErrorBudget}`` overrides.
    seed:
        Base seed for the demotion reductions; each key derives its own
        stable stream from it, so spills are reproducible.
    """

    def __init__(
        self,
        directory,
        *,
        default_budget: Optional[ErrorBudget] = None,
        per_tenant: Optional[Dict[str, ErrorBudget]] = None,
        seed: int = 0,
    ) -> None:
        self._directory = Path(directory)
        self._default_budget = default_budget or ErrorBudget()
        self._per_tenant = dict(per_tenant or {})
        self._seed = int(seed)
        self._spilled: Dict[SessionKey, Dict[str, Any]] = {}
        self._spills = 0
        self._demotions = 0
        self._rehydrations = 0
        #: Message of the most recent failed spill (``None`` when the last
        #: spill succeeded); a failing tier disk degrades evictions to
        #: plain discards instead of blocking the registry.
        self.last_error: Optional[str] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def directory(self) -> Path:
        return self._directory

    def __len__(self) -> int:
        return len(self._spilled)

    def holds(self, key: SessionKey) -> bool:
        """Whether ``key`` is currently spilled to this tier."""
        return tuple(key) in self._spilled

    def budget_for(self, tenant: str) -> ErrorBudget:
        return self._per_tenant.get(tenant, self._default_budget)

    def entry(self, key: SessionKey) -> Dict[str, Any]:
        """The spill-index entry for ``key`` (a copy)."""
        return dict(self._spilled[tuple(key)])

    def stats(self) -> Dict[str, Any]:
        return {
            "spilled_sessions": len(self._spilled),
            "spills": self._spills,
            "demotions": self._demotions,
            "rehydrations": self._rehydrations,
            "last_error": self.last_error,
        }

    def _key_seed(self, key: SessionKey) -> int:
        # Salted str hashes vary per process; CRC32 keeps the demotion
        # stream stable across restarts for the same key and base seed.
        return self._seed + zlib.crc32(f"{key[0]}/{key[1]}".encode("utf-8"))

    # ------------------------------------------------------------------
    # Spill (the eviction path)
    # ------------------------------------------------------------------
    def spill(self, served) -> bool:
        """Demote and persist one served session; ``False`` = cannot spill.

        Sessions whose estimator is outside the :mod:`repro.io`
        serialization contract cannot be spilled and fall back to plain
        eviction.  Enqueued-but-unapplied rows are *not* captured — the
        eviction path only ever spills the applied state, exactly like
        the checkpoint scheduler.
        """
        key = served.key
        budget = self.budget_for(served.tenant)
        try:
            demoted, demoted_capacity = demote_session(
                served.session, budget.demoted_capacity(), seed=self._key_seed(key)
            )
            if not callable(getattr(demoted.estimator, "to_bytes", None)):
                return False
            filename = session_filename(
                served.tenant, served.name, suffix=SPILL_SUFFIX
            )
            self._directory.mkdir(parents=True, exist_ok=True)
            save_checkpoint(demoted.estimator, self._directory / filename)
        except Exception as exc:
            self.last_error = f"{type(exc).__name__}: {exc}"
            return False
        self.last_error = None
        info = demoted.describe()
        self._spilled[key] = {
            "file": filename,
            "spec": info["spec"],
            "backend": info["backend"],
            "window": info["window"],
            "ttl": served.ttl,
            "rows_applied": served.stats.rows_applied,
            "rows_enqueued": served.stats.rows_enqueued,
            "demoted_capacity": demoted_capacity,
            "target_rrmse": budget.target_rrmse,
        }
        self._spills += 1
        if demoted_capacity is not None:
            self._demotions += 1
        return True

    # ------------------------------------------------------------------
    # Rehydrate (the miss path)
    # ------------------------------------------------------------------
    def load(self, key: SessionKey) -> Tuple[StreamSession, Dict[str, Any]]:
        """Rebuild the spilled session for ``key`` without consuming it.

        The entry and frame survive until :meth:`commit` — if re-adoption
        fails (e.g. the tenant is at its session quota), the session
        stays spilled and a later access can retry.
        """
        entry = self._spilled[tuple(key)]
        estimator = load_checkpoint(self._directory / entry["file"])
        session = StreamSession(
            estimator, spec_name=entry["spec"], backend=entry["backend"]
        )
        return session, dict(entry)

    def commit(self, key: SessionKey) -> None:
        """Finish a rehydration: drop the entry and its frame."""
        entry = self._spilled.pop(tuple(key), None)
        if entry is not None:
            (self._directory / entry["file"]).unlink(missing_ok=True)
            self._rehydrations += 1

    def discard(self, key: SessionKey) -> bool:
        """Remove a spilled session outright (the drop path)."""
        entry = self._spilled.pop(tuple(key), None)
        if entry is None:
            return False
        (self._directory / entry["file"]).unlink(missing_ok=True)
        return True
