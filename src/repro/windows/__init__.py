"""``repro.windows`` — time-windowed streaming on top of mergeable sketches.

The subsystem answers *time-scoped* versions of the paper's queries —
"heavy hitters over the last five minutes", "subset sum for this hour's
window" — by exploiting the mergeability theorem (§5.5): a window is a
ring of per-pane sketches, and a windowed query is a pane merge.

* :class:`TumblingWindowSketch` / :class:`SlidingWindowSketch` — the pane
  ring over any registered point-capable spec (Unbiased Space Saving by
  default).
* :class:`DecayedWindowSketch` — continuous forward decay (§5.3) behind
  the same surface.
* :class:`WindowPolicy` and :func:`parse_window_policy` — the
  ``"tumbling:60s"`` / ``"sliding:5m/30s"`` / ``"decay:exp:0.01"`` spec
  strings accepted by :func:`repro.build`'s ``window=`` parameter.

>>> from repro.windows import SlidingWindowSketch
>>> sketch = SlidingWindowSketch(16, horizon="20s", pane="10s", seed=0)
>>> _ = sketch.extend([("a", 1.0, 3.0), ("a", 1.0, 14.0), ("b", 1.0, 15.0)])
>>> sketch.estimate("a")
2.0
"""

from repro.windows.decayed import DecayedWindowSketch
from repro.windows.policy import (
    DecayPolicy,
    SlidingWindowPolicy,
    TumblingWindowPolicy,
    WindowPolicy,
    parse_duration,
    parse_window_policy,
)
from repro.windows.windowed import (
    SlidingWindowSketch,
    TumblingWindowSketch,
    iter_timestamped_rows,
)

__all__ = [
    "DecayPolicy",
    "DecayedWindowSketch",
    "SlidingWindowPolicy",
    "SlidingWindowSketch",
    "TumblingWindowPolicy",
    "TumblingWindowSketch",
    "WindowPolicy",
    "iter_timestamped_rows",
    "parse_duration",
    "parse_window_policy",
]
