"""The multi-tenant session registry behind a sketch server.

A :class:`SketchRegistry` holds many named :class:`ServedSession`s keyed
by ``(tenant, name)``.  Tenants are hard namespaces: tenant ``"a"`` can
never read, drop or collide with tenant ``"b"``'s sessions, even under
the same session name.  Two eviction policies bound the registry:

* **TTL** — a session idle (no ingest, no query) longer than its ``ttl``
  is evicted by :meth:`sweep`, which both :meth:`get` and :meth:`create`
  run opportunistically, so expiry needs no background task.
* **Capacity** — when ``max_sessions`` is reached, creating a new session
  evicts the least-recently-accessed one (the registry keeps LRU order).

Sessions are built through the :func:`repro.build` facade, so every
spec × backend × window combination the facade accepts can be served,
or adopted pre-built (the checkpoint-restore path re-wraps restored
estimators this way).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.api.build import build
from repro.api.session import StreamSession
from repro.errors import InvalidParameterError, SessionNotFoundError
from repro.serve.quota import resident_counters
from repro.serve.session import ServedSession
from repro.serve.stats import ServeMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tiering -> checkpoint -> registry)
    from repro.serve.quota import QuotaManager
    from repro.serve.tiering import AccuracyTiering

__all__ = ["SketchRegistry", "DEFAULT_TENANT"]

#: Tenant used when a caller does not namespace explicitly.
DEFAULT_TENANT = "default"

SessionKey = Tuple[str, str]


class SketchRegistry:
    """Keyed store of served sessions with TTL and LRU-capacity eviction.

    Parameters
    ----------
    max_sessions:
        Upper bound on concurrently held sessions (``None`` = unbounded);
        creation beyond the bound evicts the least-recently-used session.
    default_ttl:
        TTL applied to sessions created without an explicit ``ttl``
        (``None`` = sessions never expire by default).
    queue_maxsize, coalesce:
        Defaults forwarded to every :class:`ServedSession` this registry
        creates.
    clock:
        Monotonic time source shared with the sessions (injectable so
        tests drive expiry deterministically).
    quota:
        Optional :class:`~repro.serve.quota.QuotaManager` enforcing
        per-tenant session / rate / memory limits on every admission and
        ingest path.
    tiering:
        Optional :class:`~repro.serve.tiering.AccuracyTiering`; when set,
        eviction demotes + spills sessions instead of discarding them,
        and :meth:`get` transparently rehydrates spilled keys.
    """

    def __init__(
        self,
        *,
        max_sessions: Optional[int] = None,
        default_ttl: Optional[float] = None,
        queue_maxsize: int = 64,
        coalesce: int = 8,
        clock=time.monotonic,
        quota: "Optional[QuotaManager]" = None,
        tiering: "Optional[AccuracyTiering]" = None,
    ) -> None:
        if max_sessions is not None and max_sessions < 1:
            raise InvalidParameterError(
                f"max_sessions must be >= 1 or None, got {max_sessions}"
            )
        self._max_sessions = max_sessions
        self._default_ttl = default_ttl
        self._queue_maxsize = int(queue_maxsize)
        self._coalesce = int(coalesce)
        self._clock = clock
        self._quota = quota
        self._tiering = tiering
        self._metrics = ServeMetrics()
        #: LRU order: oldest access first (move_to_end on every access).
        self._sessions: "OrderedDict[SessionKey, ServedSession]" = OrderedDict()
        self._evicted: int = 0
        #: Registry-wide sweeps are amortized on the hot get() path: at
        #: most one full scan per this many seconds.
        self._sweep_interval = 1.0
        self._last_sweep = clock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, key: SessionKey) -> bool:
        return tuple(key) in self._sessions

    def __iter__(self) -> Iterator[ServedSession]:
        return iter(list(self._sessions.values()))

    @property
    def evicted_total(self) -> int:
        """Sessions evicted (TTL + capacity) over the registry's lifetime."""
        return self._evicted

    @property
    def max_sessions(self) -> Optional[int]:
        return self._max_sessions

    @property
    def quota(self) -> "Optional[QuotaManager]":
        return self._quota

    @property
    def tiering(self) -> "Optional[AccuracyTiering]":
        return self._tiering

    @property
    def metrics(self) -> ServeMetrics:
        """The shared query-latency recorder every served session reports to."""
        return self._metrics

    def list_sessions(self, tenant: Optional[str] = None) -> List[Dict[str, Any]]:
        """Describe every live session, optionally for one tenant."""
        self.sweep()
        return [
            served.describe()
            for served in self._sessions.values()
            if tenant is None or served.tenant == tenant
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def create(
        self,
        name: str,
        spec: str,
        *,
        tenant: str = DEFAULT_TENANT,
        size: int,
        ttl: Optional[float] = None,
        queue_maxsize: Optional[int] = None,
        coalesce: Optional[int] = None,
        **build_kwargs,
    ) -> ServedSession:
        """Build a session through :func:`repro.build` and serve it.

        ``build_kwargs`` pass straight through to the facade (``backend=``,
        ``window=``, ``seed=``, ``num_shards=``, spec extras, ...), so a
        served session supports exactly what a local one does — including
        the sharded backend.
        """
        session = build(spec, size=size, **build_kwargs)
        try:
            return self.adopt(
                name,
                session,
                tenant=tenant,
                ttl=ttl,
                queue_maxsize=queue_maxsize,
                coalesce=coalesce,
            )
        except BaseException:
            session.close()
            raise

    def adopt(
        self,
        name: str,
        session: StreamSession,
        *,
        tenant: str = DEFAULT_TENANT,
        ttl: Optional[float] = None,
        queue_maxsize: Optional[int] = None,
        coalesce: Optional[int] = None,
    ) -> ServedSession:
        """Serve an existing :class:`StreamSession` under ``(tenant, name)``.

        This is how restored checkpoints re-enter a server, and the escape
        hatch for estimators configured beyond what the facade exposes.

        Like :meth:`get`, the registry-wide TTL sweep here is amortized to
        once per second — a full scan per adopt would make admitting n
        sessions O(n²).  The adopted key itself is still checked exactly:
        an expired homonym is evicted (through the spill tier when one is
        wired) rather than reported as a duplicate.
        """
        key = (str(tenant), str(name))
        now = self._clock()
        if now - self._last_sweep >= self._sweep_interval:
            self.sweep(now)
        existing = self._sessions.get(key)
        if existing is not None and existing.expired(now):
            self._evict(key)
            existing = None
        if existing is not None or (
            self._tiering is not None and self._tiering.holds(key)
        ):
            raise InvalidParameterError(
                f"session {key[0]!r}/{key[1]!r} already exists; drop it first "
                "or serve under a different name"
            )
        return self._admit(
            key,
            session,
            ttl=self._default_ttl if ttl is None else ttl,
            queue_maxsize=queue_maxsize,
            coalesce=coalesce,
        )

    def _admit(
        self,
        key: SessionKey,
        session: StreamSession,
        *,
        ttl: Optional[float],
        queue_maxsize: Optional[int] = None,
        coalesce: Optional[int] = None,
    ) -> ServedSession:
        """Quota-checked insertion shared by adopt() and rehydration."""
        counters = resident_counters(session.estimator)
        if self._quota is not None:
            # Admission check first: a tenant over quota must not evict a
            # neighbour's LRU session on the way to being rejected.
            self._quota.acquire_session(key[0], counters)
        try:
            while (
                self._max_sessions is not None
                and len(self._sessions) >= self._max_sessions
            ):
                oldest_key = next(iter(self._sessions))
                self._evict(oldest_key)
            served = ServedSession(
                session,
                tenant=key[0],
                name=key[1],
                queue_maxsize=self._queue_maxsize
                if queue_maxsize is None
                else queue_maxsize,
                coalesce=self._coalesce if coalesce is None else coalesce,
                ttl=ttl,
                clock=self._clock,
                quota=self._quota,
                metrics=self._metrics,
            )
        except BaseException:
            if self._quota is not None:
                self._quota.release_session(key[0], counters)
            raise
        served.quota_counters = counters
        self._sessions[key] = served
        return served

    def get(self, name: str, tenant: str = DEFAULT_TENANT) -> ServedSession:
        """Look up a live session; unknown or evicted keys raise.

        The lookup refreshes the session's LRU position (but not its idle
        clock — only real ingest/query traffic does that).  The accessed
        key's TTL is always checked; a registry-wide sweep also runs here,
        amortized to once per second, so idle tenants cannot leak memory
        under a get/query-only workload without an O(n) scan on every op.
        """
        key = (str(tenant), str(name))
        now = self._clock()
        if now - self._last_sweep >= self._sweep_interval:
            self.sweep(now)
        served = self._sessions.get(key)
        if served is not None and served.expired(now):
            self._evict(key)
            served = None
        if served is None and self._tiering is not None and self._tiering.holds(key):
            served = self._rehydrate(key)
        if served is None:
            raise SessionNotFoundError(
                f"no session {key[0]!r}/{key[1]!r} (never created, dropped, "
                "or evicted by TTL/capacity)"
            )
        self._sessions.move_to_end(key)
        return served

    def _rehydrate(self, key: SessionKey) -> ServedSession:
        """Bring a spilled session back live, transparently to the caller.

        The spill entry survives until re-admission succeeds, so a
        rehydration blocked by the tenant's quota raises
        :class:`~repro.errors.QuotaExceededError` *without* losing the
        spilled state — a later access retries.
        """
        session, entry = self._tiering.load(key)
        try:
            served = self._admit(key, session, ttl=entry["ttl"])
        except BaseException:
            session.close()
            raise
        self._tiering.commit(key)
        served.stats.rows_applied = int(entry["rows_applied"])
        served.stats.rows_enqueued = int(entry["rows_enqueued"])
        served.tier = "rehydrated"
        served.demoted_capacity = entry["demoted_capacity"]
        return served

    def drop(self, name: str, tenant: str = DEFAULT_TENANT) -> None:
        """Remove and tear down a session (live or spilled); unknown keys raise."""
        key = (str(tenant), str(name))
        served = self._sessions.pop(key, None)
        if served is None:
            if self._tiering is not None and self._tiering.discard(key):
                return
            raise SessionNotFoundError(f"no session {key[0]!r}/{key[1]!r} to drop")
        served.close_nowait()
        self._release_quota(served)

    def sweep(self, now: Optional[float] = None) -> List[SessionKey]:
        """Evict every TTL-expired session; returns the evicted keys."""
        now = self._clock() if now is None else now
        self._last_sweep = now
        expired = [
            key for key, served in self._sessions.items() if served.expired(now)
        ]
        for key in expired:
            self._evict(key)
        return expired

    def _evict(self, key: SessionKey) -> None:
        """Evict one session — through the spill tier when one is wired.

        A successful spill turns the eviction into a demotion (the key
        stays reachable and rehydrates on next access); sessions that
        cannot spill (unserializable estimators, a failing tier disk)
        fall back to the plain discard this method always was.
        """
        served = self._sessions.pop(key)
        if self._tiering is not None:
            self._tiering.spill(served)
        served.close_nowait()
        self._release_quota(served)
        self._evicted += 1

    def _release_quota(self, served: ServedSession) -> None:
        if self._quota is not None:
            self._quota.release_session(
                served.tenant, getattr(served, "quota_counters", 1)
            )

    async def aclose_all(self) -> None:
        """Drain and close every session (server shutdown path).

        Sessions stay registered after the close — still queryable, and
        visible to the server's final checkpoint pass — but reject new
        rows.
        """
        for served in list(self._sessions.values()):
            await served.aclose()
