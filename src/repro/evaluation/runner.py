"""Monte-Carlo experiment runner.

Every experiment in §7 has the same skeleton: repeat ``num_trials`` times —
reshuffle the stream (or re-seed the sampler), rebuild the sketch(es), and
evaluate a set of queries against exact ground truth — then aggregate the
per-trial errors.  The runner factors that skeleton out so the per-figure
experiment classes only describe *what* varies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro._typing import Item
from repro.api.build import build
from repro.core.deterministic_space_saving import DeterministicSpaceSaving
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.errors import InvalidParameterError
from repro.sampling.bottom_k import BottomKSketch
from repro.sampling.priority import PrioritySample
from repro.streams.frequency import FrequencyModel
from repro.streams.generators import exchangeable_stream, iterate_rows

__all__ = [
    "TrialResult",
    "run_trials",
    "build_unbiased_sketch",
    "build_deterministic_sketch",
    "build_bottom_k",
    "draw_priority_sample",
    "random_item_subsets",
]


@dataclass
class TrialResult:
    """Per-trial query results for one method.

    Attributes
    ----------
    method:
        Method label (e.g. ``"unbiased_space_saving"``).
    estimates:
        One estimate per query, aligned with ``truths``.
    truths:
        Exact values of the same queries.
    extra:
        Free-form per-trial diagnostics (e.g. the retained item set).
    """

    method: str
    estimates: List[float] = field(default_factory=list)
    truths: List[float] = field(default_factory=list)
    extra: Dict = field(default_factory=dict)


def run_trials(
    num_trials: int,
    trial: Callable[[int], Sequence[TrialResult]],
) -> Dict[str, List[TrialResult]]:
    """Run ``trial(trial_index)`` repeatedly and group results by method."""
    if num_trials < 1:
        raise InvalidParameterError("num_trials must be positive")
    grouped: Dict[str, List[TrialResult]] = {}
    for index in range(num_trials):
        for result in trial(index):
            grouped.setdefault(result.method, []).append(result)
    return grouped


def build_unbiased_sketch(
    model: FrequencyModel,
    capacity: int,
    *,
    seed: int,
    stream: Optional[Sequence[Item]] = None,
) -> UnbiasedSpaceSaving:
    """Build an Unbiased Space Saving sketch over one (re)shuffled stream.

    Routed through the :func:`repro.build` facade (inline backend), which
    constructs exactly ``UnbiasedSpaceSaving(capacity, seed=seed)`` and
    streams the rows through one ``update`` per row — bit-identical to the
    direct loop it replaces.
    """
    rows = stream if stream is not None else exchangeable_stream(
        model, rng=np.random.default_rng(seed)
    )
    session = build("unbiased_space_saving", size=capacity, seed=seed)
    for row in iterate_rows(rows):
        session.update(row)
    return session.estimator


def build_deterministic_sketch(
    model: FrequencyModel,
    capacity: int,
    *,
    seed: int,
    stream: Optional[Sequence[Item]] = None,
) -> DeterministicSpaceSaving:
    """Build a Deterministic Space Saving sketch over one (re)shuffled stream."""
    rows = stream if stream is not None else exchangeable_stream(
        model, rng=np.random.default_rng(seed)
    )
    session = build("deterministic_space_saving", size=capacity, seed=seed)
    for row in iterate_rows(rows):
        session.update(row)
    return session.estimator


def build_bottom_k(
    model: FrequencyModel,
    capacity: int,
    *,
    seed: int,
    stream: Optional[Sequence[Item]] = None,
) -> BottomKSketch:
    """Build a bottom-k (uniform item) sketch over one (re)shuffled stream."""
    rows = stream if stream is not None else exchangeable_stream(
        model, rng=np.random.default_rng(seed)
    )
    session = build("bottom_k", size=capacity, seed=seed)
    for row in iterate_rows(rows):
        session.update(row)
    return session.estimator


def draw_priority_sample(
    model: FrequencyModel, capacity: int, *, seed: int
) -> PrioritySample:
    """Draw a priority sample from the *pre-aggregated* counts.

    This is the baseline's home turf: it never sees the disaggregated rows,
    only the exact per-item totals — the expensive aggregation the sketch
    avoids.
    """
    counts = {item: float(count) for item, count in model.counts.items()}
    return PrioritySample(counts, capacity, rng=np.random.default_rng(seed))


def random_item_subsets(
    model: FrequencyModel,
    num_subsets: int,
    subset_size: int,
    *,
    seed: int,
) -> List[List[Item]]:
    """Draw random fixed-size subsets of the item universe (the §7 queries)."""
    if subset_size < 1 or num_subsets < 1:
        raise InvalidParameterError("num_subsets and subset_size must be positive")
    if subset_size > model.num_items:
        raise InvalidParameterError("subset_size exceeds the number of items")
    rng = np.random.default_rng(seed)
    items = model.items()
    picks = (rng.choice(len(items), subset_size, replace=False) for _ in range(num_subsets))
    return [[items[i] for i in pick] for pick in picks]
