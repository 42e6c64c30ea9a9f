"""Per-tenant serving quotas, enforced through the backpressure path.

A :class:`TenantQuota` bounds what one tenant may hold and push:

* ``max_sessions`` — concurrently served sessions,
* ``max_rows_per_sec`` (with ``burst_rows``) — sustained ingest rate,
  metered by a :class:`TokenBucket`,
* ``max_resident_counters`` — total sketch bins resident in memory
  across the tenant's live sessions (the unit the paper prices accuracy
  in: a capacity-``m`` sketch holds ``m`` counters, a sharded ensemble
  ``m × shards``).

Enforcement reuses the serving layer's two ingest temperaments instead
of inventing a third: the *blocking* path (``put_batch`` / wire
``block:true``) absorbs a rate overage as a computed delay — the token
bucket runs a debt and tells the producer how long to sleep, so
concurrent producers of one tenant serialize fairly — while the
*non-blocking* path (``offer_batch`` / wire ``block:false``) raises
:class:`~repro.errors.QuotaExceededError` exactly like a full queue
raises :class:`~repro.errors.BackpressureError`.  Session and memory
quotas are checked at admission (create/adopt/rehydrate) and released on
eviction and drop.

Clocks are injectable everywhere, so tests drive refill across
arbitrary — even backward — clock jumps deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import InvalidParameterError, QuotaExceededError

__all__ = ["TokenBucket", "TenantQuota", "QuotaManager", "resident_counters"]


class TokenBucket:
    """A token bucket that can run a debt for blocking producers.

    ``try_acquire`` is the classic non-blocking check.  ``reserve`` takes
    the tokens *unconditionally* — driving the balance negative when the
    bucket is short — and returns how many seconds the caller must wait
    for the debt to refill.  Because each reservation deepens the debt,
    N concurrent producers reserving at once receive strictly increasing
    delays: the bucket serializes them without any queue of its own.

    Parameters
    ----------
    rate:
        Sustained refill rate, tokens per second.
    burst:
        Bucket capacity (defaults to one second of ``rate``); the bucket
        starts full.
    clock:
        Monotonic time source.  Backward jumps (a frozen or adjusted test
        clock) re-anchor the refill origin instead of minting or burning
        tokens.
    """

    __slots__ = ("_rate", "_burst", "_tokens", "_last", "_clock")

    def __init__(
        self, rate: float, burst: Optional[float] = None, *, clock=time.monotonic
    ) -> None:
        if rate <= 0:
            raise InvalidParameterError(f"rate must be positive, got {rate}")
        burst = float(rate) if burst is None else float(burst)
        if burst <= 0:
            raise InvalidParameterError(f"burst must be positive, got {burst}")
        self._rate = float(rate)
        self._burst = burst
        self._tokens = burst
        self._clock = clock
        self._last = clock()

    @property
    def rate(self) -> float:
        return self._rate

    @property
    def burst(self) -> float:
        return self._burst

    @property
    def tokens(self) -> float:
        """Current balance (negative while running a reserved debt)."""
        self._refill(self._clock())
        return self._tokens

    def _refill(self, now: float) -> None:
        elapsed = now - self._last
        self._last = now
        if elapsed <= 0.0:
            # A backward clock jump must not mint tokens (elapsed < 0
            # multiplied by the rate would *drain* the bucket) — just
            # re-anchor and keep the balance.
            return
        self._tokens = min(self._burst, self._tokens + elapsed * self._rate)

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if the balance covers them; never waits."""
        self._refill(self._clock())
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def reserve(self, tokens: float = 1.0) -> float:
        """Take ``tokens`` unconditionally; return seconds until paid off.

        A zero return means the bucket covered the reservation and the
        caller may proceed immediately.
        """
        self._refill(self._clock())
        self._tokens -= tokens
        if self._tokens >= 0.0:
            return 0.0
        return -self._tokens / self._rate


@dataclass(frozen=True)
class TenantQuota:
    """Limits for one tenant; ``None`` fields are unlimited.

    Attributes
    ----------
    max_sessions:
        Concurrently served (live) sessions.
    max_rows_per_sec:
        Sustained ingest rate across all the tenant's sessions.
    burst_rows:
        Token-bucket burst (defaults to one second of rate).
    max_resident_counters:
        Total sketch counters resident across live sessions; admission
        beyond it raises rather than silently evicting a neighbour.
    """

    max_sessions: Optional[int] = None
    max_rows_per_sec: Optional[float] = None
    burst_rows: Optional[float] = None
    max_resident_counters: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_sessions is not None and self.max_sessions < 1:
            raise InvalidParameterError(
                f"max_sessions must be >= 1 or None, got {self.max_sessions}"
            )
        if self.max_rows_per_sec is not None and self.max_rows_per_sec <= 0:
            raise InvalidParameterError(
                f"max_rows_per_sec must be positive or None, "
                f"got {self.max_rows_per_sec}"
            )
        if self.burst_rows is not None and self.burst_rows <= 0:
            raise InvalidParameterError(
                f"burst_rows must be positive or None, got {self.burst_rows}"
            )
        if (
            self.max_resident_counters is not None
            and self.max_resident_counters < 1
        ):
            raise InvalidParameterError(
                f"max_resident_counters must be >= 1 or None, "
                f"got {self.max_resident_counters}"
            )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "max_sessions": self.max_sessions,
            "max_rows_per_sec": self.max_rows_per_sec,
            "burst_rows": self.burst_rows,
            "max_resident_counters": self.max_resident_counters,
        }


def resident_counters(estimator: Any) -> int:
    """Estimate how many counters ``estimator`` keeps resident.

    Sharded ensembles multiply their per-shard capacity by
    the shard count; windowed pane rings multiply by the live pane bound;
    anything without a known capacity accounts as a single counter (it
    still occupies a session slot).
    """
    shards = getattr(estimator, "num_shards", None)
    capacity = getattr(estimator, "capacity", None)
    if capacity is None:
        capacity = getattr(estimator, "size", None)
    if capacity is None:
        return 1
    count = int(capacity)
    if shards:
        count *= int(shards)
    panes = getattr(estimator, "max_panes", None)
    if panes:
        count *= int(panes)
    return max(1, count)


class QuotaManager:
    """Tracks and enforces :class:`TenantQuota` limits across a registry.

    Parameters
    ----------
    default:
        Quota applied to tenants without an explicit entry (``None`` =
        unlimited for unlisted tenants).
    per_tenant:
        ``{tenant: TenantQuota}`` overrides.
    clock:
        Monotonic time source shared by every tenant's token bucket.
    """

    def __init__(
        self,
        default: Optional[TenantQuota] = None,
        per_tenant: Optional[Dict[str, TenantQuota]] = None,
        *,
        clock=time.monotonic,
    ) -> None:
        self._default = default
        self._per_tenant = dict(per_tenant or {})
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self._sessions: Dict[str, int] = {}
        self._counters: Dict[str, int] = {}
        #: Operational counters for the metrics surface.
        self.rows_throttled = 0
        self.throttle_events = 0
        self.rows_rejected = 0
        self.sessions_rejected = 0

    def quota_for(self, tenant: str) -> Optional[TenantQuota]:
        return self._per_tenant.get(tenant, self._default)

    def set_quota(self, tenant: str, quota: Optional[TenantQuota]) -> None:
        """Install (or with ``None`` clear) one tenant's override."""
        if quota is None:
            self._per_tenant.pop(tenant, None)
        else:
            self._per_tenant[tenant] = quota
        self._buckets.pop(tenant, None)  # rebuilt lazily at the new rate

    def _bucket(self, tenant: str, quota: TenantQuota) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None or bucket.rate != quota.max_rows_per_sec:
            bucket = TokenBucket(
                quota.max_rows_per_sec, quota.burst_rows, clock=self._clock
            )
            self._buckets[tenant] = bucket
        return bucket

    # ------------------------------------------------------------------
    # Rate limits (the ingest paths)
    # ------------------------------------------------------------------
    def reserve_rows(self, tenant: str, rows: int) -> float:
        """Blocking-path check: seconds the producer must wait (0 = go)."""
        quota = self.quota_for(tenant)
        if quota is None or quota.max_rows_per_sec is None or rows <= 0:
            return 0.0
        delay = self._bucket(tenant, quota).reserve(rows)
        if delay > 0.0:
            self.rows_throttled += rows
            self.throttle_events += 1
        return delay

    def try_rows(self, tenant: str, rows: int) -> bool:
        """Non-blocking-path check; ``False`` counts a rejection."""
        quota = self.quota_for(tenant)
        if quota is None or quota.max_rows_per_sec is None or rows <= 0:
            return True
        if self._bucket(tenant, quota).try_acquire(rows):
            return True
        self.rows_rejected += rows
        return False

    # ------------------------------------------------------------------
    # Admission limits (registry lifecycle)
    # ------------------------------------------------------------------
    def acquire_session(self, tenant: str, counters: int = 1) -> None:
        """Admit one session holding ``counters`` sketch counters, or raise."""
        quota = self.quota_for(tenant)
        held_sessions = self._sessions.get(tenant, 0)
        held_counters = self._counters.get(tenant, 0)
        if quota is not None:
            if (
                quota.max_sessions is not None
                and held_sessions >= quota.max_sessions
            ):
                self.sessions_rejected += 1
                raise QuotaExceededError(
                    f"tenant {tenant!r} is at its session quota "
                    f"({held_sessions}/{quota.max_sessions}); drop a session "
                    "or raise the quota"
                )
            if (
                quota.max_resident_counters is not None
                and held_counters + counters > quota.max_resident_counters
            ):
                self.sessions_rejected += 1
                raise QuotaExceededError(
                    f"tenant {tenant!r} would hold {held_counters + counters} "
                    f"resident counters, over its quota of "
                    f"{quota.max_resident_counters}; use smaller sketches or "
                    "drop sessions"
                )
        self._sessions[tenant] = held_sessions + 1
        self._counters[tenant] = held_counters + counters

    def release_session(self, tenant: str, counters: int = 1) -> None:
        """Return one session's admission (eviction/drop path)."""
        remaining = self._sessions.get(tenant, 0) - 1
        if remaining > 0:
            self._sessions[tenant] = remaining
            self._counters[tenant] = max(
                0, self._counters.get(tenant, 0) - counters
            )
        else:
            self._sessions.pop(tenant, None)
            self._counters.pop(tenant, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def usage(self, tenant: str) -> Dict[str, Any]:
        quota = self.quota_for(tenant)
        bucket = self._buckets.get(tenant)
        return {
            "sessions": self._sessions.get(tenant, 0),
            "resident_counters": self._counters.get(tenant, 0),
            "rate_tokens": None if bucket is None else bucket.tokens,
            "quota": None if quota is None else quota.as_dict(),
        }

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot for the ``metrics`` op."""
        tenants = sorted(set(self._sessions) | set(self._per_tenant))
        return {
            "rows_throttled": self.rows_throttled,
            "throttle_events": self.throttle_events,
            "rows_rejected": self.rows_rejected,
            "sessions_rejected": self.sessions_rejected,
            "default": None if self._default is None else self._default.as_dict(),
            "tenants": {tenant: self.usage(tenant) for tenant in tenants},
        }
