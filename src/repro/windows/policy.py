"""Window policies: how a timestamped stream maps onto sketch state.

A :class:`WindowPolicy` describes the *time semantics* of a windowed
estimator independently of the sketch that implements it.  Three policies
are provided, each with a compact spec-string form accepted by
:func:`repro.build`'s ``window=`` parameter:

* ``"tumbling:60s"`` — :class:`TumblingWindowPolicy`: non-overlapping
  fixed-width windows; queries answer over whole windows.
* ``"sliding:5m/30s"`` — :class:`SlidingWindowPolicy`: a horizon of 5
  minutes advanced in 30-second panes; queries answer over the last
  ``horizon / pane`` panes.
* ``"decay:exp:0.01"`` (or ``"decay:poly:2"``) — :class:`DecayPolicy`:
  no hard expiry; every row is down-weighted continuously by forward
  decay (§5.3), exponential at the given rate or polynomial at the given
  exponent.

Durations accept ``ms``/``s``/``m``/``h``/``d`` suffixes (bare numbers
mean seconds), so ``"sliding:1h/5m"`` and ``"sliding:3600/300"`` are the
same policy.

>>> parse_window_policy("tumbling:60s")
TumblingWindowPolicy(width_seconds=60.0, retain=1)
>>> parse_window_policy("sliding:5m/30s").num_panes
10
>>> parse_window_policy("decay:exp:0.01").rate
0.01
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.errors import InvalidParameterError

__all__ = [
    "WindowPolicy",
    "TumblingWindowPolicy",
    "SlidingWindowPolicy",
    "DecayPolicy",
    "parse_duration",
    "parse_window_policy",
]

#: Duration-suffix multipliers, in seconds.
_UNITS = {"ms": 1e-3, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}

_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(ms|s|m|h|d)?\s*$")


def parse_duration(text: Union[str, float, int]) -> float:
    """Parse a duration like ``"30s"``, ``"5m"`` or ``90`` into seconds.

    >>> parse_duration("90s"), parse_duration("1.5m"), parse_duration(45)
    (90.0, 90.0, 45.0)
    """
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        match = _DURATION_RE.match(text)
        if match is None:
            raise InvalidParameterError(
                f"cannot parse duration {text!r}; expected a number with an "
                f"optional unit suffix from {sorted(_UNITS)}"
            )
        value = float(match.group(1)) * _UNITS[match.group(2) or "s"]
    if not value > 0:
        raise InvalidParameterError("durations must be positive")
    return value


class WindowPolicy:
    """Base class for the time semantics of a windowed estimator."""

    def describe(self) -> str:
        """The canonical spec string that reconstructs this policy."""
        raise NotImplementedError

    def build_sketch(self, spec: str, size: int, seed, params):
        """Build the windowed estimator implementing this policy.

        ``spec``/``size``/``seed``/``params`` follow the conventions of
        :func:`repro.build`; ``params`` is consumed in place.
        """
        raise NotImplementedError


def _format_duration(seconds: float) -> str:
    """Render seconds back to the most compact exact suffix form."""
    for unit in ("d", "h", "m", "s"):
        scaled = seconds / _UNITS[unit]
        if scaled >= 1 and scaled == int(scaled):
            return f"{int(scaled)}{unit}"
    return f"{seconds:g}s"


@dataclass(frozen=True)
class TumblingWindowPolicy(WindowPolicy):
    """Non-overlapping fixed-width windows (``"tumbling:<width>[*<retain>]"``).

    ``retain`` is how many recent windows the sketch keeps for ``last=k``
    queries (default 1 — the active window only); it rides in the spec
    string as ``"tumbling:1h*3"`` so that :meth:`describe` always
    reconstructs the full policy.
    """

    width_seconds: float
    retain: int = 1

    def __post_init__(self) -> None:
        if not self.width_seconds > 0:
            raise InvalidParameterError("window width must be positive")
        if self.retain < 1:
            raise InvalidParameterError("retain must be a positive window count")

    def describe(self) -> str:
        suffix = f"*{self.retain}" if self.retain != 1 else ""
        return f"tumbling:{_format_duration(self.width_seconds)}{suffix}"

    def build_sketch(self, spec, size, seed, params):
        from repro.windows.windowed import TumblingWindowSketch

        return TumblingWindowSketch(
            size,
            width=self.width_seconds,
            spec=spec,
            seed=seed,
            origin=params.pop("origin", 0.0),
            retain=params.pop("retain", self.retain),
            **params,
        )


@dataclass(frozen=True)
class SlidingWindowPolicy(WindowPolicy):
    """A query horizon advanced in fixed panes (``"sliding:<horizon>/<pane>"``).

    The horizon must be an exact multiple of the pane width so that "the
    last ``horizon``" is always a whole number of panes.
    """

    horizon_seconds: float
    pane_seconds: float

    def __post_init__(self) -> None:
        if not self.pane_seconds > 0:
            raise InvalidParameterError("pane width must be positive")
        panes = self.horizon_seconds / self.pane_seconds
        if panes < 1 or abs(panes - round(panes)) > 1e-9:
            raise InvalidParameterError(
                f"sliding horizon ({self.horizon_seconds:g}s) must be a "
                f"positive whole multiple of the pane width "
                f"({self.pane_seconds:g}s)"
            )

    @property
    def num_panes(self) -> int:
        """Number of panes spanning the horizon."""
        return int(round(self.horizon_seconds / self.pane_seconds))

    def describe(self) -> str:
        return (
            f"sliding:{_format_duration(self.horizon_seconds)}"
            f"/{_format_duration(self.pane_seconds)}"
        )

    def build_sketch(self, spec, size, seed, params):
        from repro.windows.windowed import SlidingWindowSketch

        return SlidingWindowSketch(
            size,
            horizon=self.horizon_seconds,
            pane=self.pane_seconds,
            spec=spec,
            seed=seed,
            origin=params.pop("origin", 0.0),
            **params,
        )


@dataclass(frozen=True)
class DecayPolicy(WindowPolicy):
    """Continuous forward decay (``"decay:exp:<rate>"`` / ``"decay:poly:<exp>"``)."""

    kind: str
    rate: float

    def __post_init__(self) -> None:
        if self.kind not in ("exp", "poly"):
            raise InvalidParameterError(
                f"unknown decay kind {self.kind!r}; expected 'exp' or 'poly'"
            )
        if self.rate < 0 or not math.isfinite(self.rate):
            raise InvalidParameterError("decay rate must be a non-negative number")

    def g(self, ages):
        """The forward-decay weight ``g(a)`` of ages ``a = t − L``, elementwise.

        ``exp(rate · a)`` or ``max(a, 0) ** rate``; overflow reads ``inf``.

        >>> DecayPolicy("poly", 2.0).g([3.0, -1.0]).tolist()
        [9.0, 0.0]
        """
        ages = np.asarray(ages, dtype=np.float64)
        if self.kind == "exp":
            return np.exp(self.rate * ages)
        return np.power(np.maximum(ages, 0.0), self.rate)

    def describe(self) -> str:
        return f"decay:{self.kind}:{self.rate:g}"

    def build_sketch(self, spec, size, seed, params):
        from repro.windows.decayed import DecayedWindowSketch

        if spec != "unbiased_space_saving":
            from repro.errors import CapabilityError

            raise CapabilityError(
                f"window='decay:...' requires spec 'unbiased_space_saving' "
                f"(forward decay reweights the stream, which preserves "
                f"unbiasedness only for the unbiased sketch); got {spec!r}"
            )
        landmark = params.pop("landmark", 0.0)
        if params:
            raise InvalidParameterError(
                f"unknown parameters for decayed sessions: {sorted(params)}; "
                "accepted extras: ['landmark']"
            )
        return DecayedWindowSketch(size, policy=self, seed=seed, landmark=landmark)


def parse_window_policy(window: Union[str, WindowPolicy]) -> WindowPolicy:
    """Parse a ``window=`` spec string into a :class:`WindowPolicy`.

    Accepts an already-constructed policy unchanged, so callers can pass
    either form.

    >>> parse_window_policy("sliding:1h/5m")
    SlidingWindowPolicy(horizon_seconds=3600.0, pane_seconds=300.0)
    """
    if isinstance(window, WindowPolicy):
        return window
    if not isinstance(window, str) or ":" not in window:
        raise InvalidParameterError(
            f"cannot parse window policy {window!r}; expected "
            "'tumbling:<width>', 'sliding:<horizon>/<pane>' or "
            "'decay:exp|poly:<rate>'"
        )
    kind, _, rest = window.partition(":")
    if kind == "tumbling":
        width, star, retain = rest.partition("*")
        if not star:
            return TumblingWindowPolicy(parse_duration(width))
        try:
            parsed_retain = int(retain)
        except ValueError:
            raise InvalidParameterError(
                f"cannot parse retain count {retain!r} in {window!r}"
            ) from None
        return TumblingWindowPolicy(parse_duration(width), parsed_retain)
    if kind == "sliding":
        horizon, sep, pane = rest.partition("/")
        if not sep:
            raise InvalidParameterError(
                f"sliding windows need a pane width: 'sliding:<horizon>/<pane>' "
                f"(got {window!r})"
            )
        return SlidingWindowPolicy(parse_duration(horizon), parse_duration(pane))
    if kind == "decay":
        decay_kind, sep, rate = rest.partition(":")
        if not sep:
            raise InvalidParameterError(
                f"decay windows need a rate: 'decay:exp:<rate>' or "
                f"'decay:poly:<exponent>' (got {window!r})"
            )
        try:
            parsed_rate = float(rate)
        except ValueError:
            raise InvalidParameterError(
                f"cannot parse decay rate {rate!r} in {window!r}"
            ) from None
        return DecayPolicy(decay_kind, parsed_rate)
    raise InvalidParameterError(
        f"unknown window policy kind {kind!r} in {window!r}; expected "
        "'tumbling', 'sliding' or 'decay'"
    )
