"""Item frequency models used by the synthetic experiments.

Section 7 of the paper draws per-item counts from a *discretized Weibull*
distribution — a generalization of the geometric distribution whose shape
parameter controls how heavy the tail is — using the inverse-CDF method on a
regular grid of 1000 quantiles rather than independent uniforms, "for more
easily reproducible behavior".  The same construction is implemented here,
together with geometric, Zipf and uniform alternatives used by ablation
benchmarks.

A :class:`FrequencyModel` is simply a mapping from item label to its true
count plus the exact ground-truth queries the evaluation harness needs
(totals, subset sums, per-item relative frequencies).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro._typing import Item, ItemPredicate
from repro.errors import InvalidParameterError

__all__ = [
    "FrequencyModel",
    "weibull_counts",
    "geometric_counts",
    "zipf_counts",
    "uniform_counts",
    "rescale_to_total",
    "scaled_weibull_counts",
]


@dataclass(frozen=True)
class FrequencyModel:
    """True per-item counts together with exact ground-truth queries.

    Attributes
    ----------
    counts:
        Mapping from item label to its exact count.
    name:
        Human-readable description used by the reporting layer.
    """

    counts: Dict[Item, int]
    name: str = "frequency-model"
    _total: int = field(init=False, repr=False, default=0)

    def __post_init__(self) -> None:
        # One C-level pass; the offender is looked up only on failure.
        if any(map(operator.lt, self.counts.values(), itertools.repeat(0))):
            item = next(item for item, count in self.counts.items() if count < 0)
            raise InvalidParameterError(f"negative count for item {item!r}")
        object.__setattr__(self, "_total", int(sum(self.counts.values())))

    # -- exact queries ----------------------------------------------------
    @property
    def total(self) -> int:
        """Total number of rows implied by the model."""
        return self._total

    @property
    def num_items(self) -> int:
        """Number of distinct items (including zero-count items, if any)."""
        return len(self.counts)

    def items(self) -> List[Item]:
        """Item labels in insertion order."""
        return list(self.counts)

    def count(self, item: Item) -> int:
        """Exact count for one item (0 when unknown)."""
        return int(self.counts.get(item, 0))

    def subset_sum(self, predicate: ItemPredicate) -> int:
        """Exact subset sum over items matching ``predicate``."""
        return int(sum(count for item, count in self.counts.items() if predicate(item)))

    def subset_total(self, items: Iterable[Item]) -> int:
        """Exact total over an explicit collection of items."""
        wanted = set(items)
        return int(sum(count for item, count in self.counts.items() if item in wanted))

    def relative_frequency(self, item: Item) -> float:
        """Exact relative frequency ``n_i / n_tot``."""
        if self._total == 0:
            return 0.0
        return self.count(item) / self._total

    def sorted_items(self, ascending: bool = False) -> List[Tuple[Item, int]]:
        """Items sorted by count (descending by default)."""
        return sorted(
            self.counts.items(), key=lambda kv: kv[1], reverse=not ascending
        )

    def skew_summary(self) -> Dict[str, float]:
        """Mean, standard deviation and their ratio — the skew diagnostic of §6.2."""
        values = np.fromiter(
            (count for count in self.counts.values()), dtype=np.float64
        )
        if values.size == 0:
            return {"mean": 0.0, "std": 0.0, "cv": 0.0}
        mean = float(values.mean())
        std = float(values.std())
        return {"mean": mean, "std": std, "cv": std / mean if mean else 0.0}


def _ranked_model(counts: np.ndarray, name: str) -> FrequencyModel:
    """Labels ``1..len(counts)`` with the given integer counts."""
    return FrequencyModel(
        counts=dict(zip(range(1, len(counts) + 1), counts.tolist())), name=name
    )


def _quantile_grid(num_items: int) -> np.ndarray:
    """The regular grid of quantiles used by the paper's inverse-CDF draws."""
    if num_items < 1:
        raise InvalidParameterError("num_items must be a positive integer")
    return (np.arange(1, num_items + 1) - 0.5) / num_items


def weibull_counts(
    num_items: int = 1000,
    scale: float = 5e5,
    shape: float = 0.15,
    *,
    grid: bool = True,
    rng: Optional[np.random.Generator] = None,
    min_count: int = 1,
) -> FrequencyModel:
    """Discretized (rounded) Weibull counts, the paper's main workload.

    ``scale`` and ``shape`` are the Weibull parameters written
    ``Weibull(5e5, 0.15)`` in §7; smaller shapes give heavier tails (greater
    skew).  With ``grid=True`` the counts come from the inverse CDF on a
    regular grid of ``num_items`` quantiles (the paper's reproducibility
    device); otherwise independent uniforms drawn from ``rng`` are used.
    """
    if scale <= 0 or shape <= 0:
        raise InvalidParameterError("scale and shape must be positive")
    if grid:
        quantiles = _quantile_grid(num_items)
    else:
        rng = rng or np.random.default_rng()
        quantiles = rng.uniform(size=num_items)
    counts = np.rint(scale * (-np.log1p(-quantiles)) ** (1.0 / shape)).astype(np.int64)
    counts = np.maximum(counts, min_count)
    return _ranked_model(counts, f"weibull(scale={scale:g}, shape={shape:g})")


def geometric_counts(
    num_items: int = 1000,
    success_probability: float = 0.03,
    *,
    grid: bool = True,
    rng: Optional[np.random.Generator] = None,
    min_count: int = 1,
) -> FrequencyModel:
    """Discretized geometric counts (the ``Geometric(0.03)`` panel of figure 3)."""
    if not 0 < success_probability < 1:
        raise InvalidParameterError("success_probability must lie in (0, 1)")
    if grid:
        quantiles = _quantile_grid(num_items)
    else:
        rng = rng or np.random.default_rng()
        quantiles = rng.uniform(size=num_items)
    counts = np.ceil(
        np.log1p(-quantiles) / math.log(1.0 - success_probability)
    ).astype(np.int64)
    counts = np.maximum(counts, min_count)
    return _ranked_model(counts, f"geometric(p={success_probability:g})")


def zipf_counts(
    num_items: int = 1000,
    exponent: float = 1.1,
    total: int = 1_000_000,
    *,
    min_count: int = 1,
) -> FrequencyModel:
    """Zipfian counts with the given exponent, scaled to roughly ``total`` rows."""
    if exponent <= 0:
        raise InvalidParameterError("exponent must be positive")
    if total < num_items:
        raise InvalidParameterError("total must be at least num_items")
    weights = np.arange(1, num_items + 1, dtype=np.float64) ** -exponent
    weights /= weights.sum()
    counts = np.maximum(np.rint(weights * total).astype(np.int64), min_count)
    del weights  # freed before the model's dict is built: a lower peak RSS
    return _ranked_model(counts, f"zipf(s={exponent:g})")


def uniform_counts(num_items: int = 1000, count: int = 100) -> FrequencyModel:
    """Every item occurs exactly ``count`` times (the no-skew control)."""
    if count < 0:
        raise InvalidParameterError("count must be non-negative")
    return FrequencyModel(
        counts={label: count for label in range(1, num_items + 1)},
        name=f"uniform(count={count})",
    )


def rescale_to_total(
    model: FrequencyModel, target_total: int, *, min_count: int = 1
) -> FrequencyModel:
    """Rescale a model multiplicatively so its total is roughly ``target_total``.

    The paper's experiments run streams of up to 10⁹ rows; the reproduction
    keeps the *relative* shape of the count distribution (who is frequent,
    how heavy the tail is) while shrinking the absolute total to something a
    pure-Python benchmark can stream.  Counts are scaled by
    ``target_total / model.total``, rounded, and floored at ``min_count`` so
    no item disappears.
    """
    if target_total < model.num_items * min_count:
        raise InvalidParameterError(
            "target_total is too small to give every item the minimum count"
        )
    if model.total == 0:
        raise InvalidParameterError("cannot rescale a model with zero total")
    factor = target_total / model.total
    rescaled = {
        item: max(min_count, int(round(count * factor)))
        for item, count in model.counts.items()
    }
    return FrequencyModel(
        counts=rescaled, name=f"{model.name} rescaled(total≈{target_total:g})"
    )


def scaled_weibull_counts(
    num_items: int = 1000,
    shape: float = 0.15,
    target_total: int = 200_000,
    *,
    min_count: int = 1,
) -> FrequencyModel:
    """Weibull-shaped counts rescaled to a laptop-sized total.

    Keeps the paper's shape parameter (0.15 for the most skewed panel, 0.32
    for the moderate one) while making the stream length configurable, so the
    qualitative comparisons survive the scale-down.  The rescaling happens on
    the continuous Weibull quantiles (before any rounding) so the relative
    shape of the tail is preserved.
    """
    if shape <= 0:
        raise InvalidParameterError("shape must be positive")
    if target_total < num_items * min_count:
        raise InvalidParameterError(
            "target_total is too small to give every item the minimum count"
        )
    quantiles = _quantile_grid(num_items)
    weights = (-np.log1p(-quantiles)) ** (1.0 / shape)
    counts = np.maximum(
        np.rint(weights * (target_total / weights.sum())).astype(np.int64), min_count
    )
    return _ranked_model(counts, f"weibull(shape={shape:g}, total≈{target_total:g})")
