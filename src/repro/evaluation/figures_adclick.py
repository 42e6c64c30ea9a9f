"""Figure 6: marginal estimation on the (synthetic) ad impression data.

The paper's figure 6 computes 1-way and 2-way marginals over nine Criteo
categorical features and reports the relative MSE of each marginal cell as a
function of the marginal's true size, for Unbiased Space Saving (built on
the disaggregated impressions) and priority sampling (given pre-aggregated
tuple counts).  The Criteo data cannot be redistributed, so the experiment
runs on :class:`~repro.streams.adclick.AdClickDataset`, a synthetic stream
with matching structure (nine skewed, correlated categorical features, one
row per impression); see DESIGN.md §3 for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.query.marginals import marginal_cells, one_way_marginal, two_way_marginal
from repro.sampling.priority import PrioritySample
from repro.streams.adclick import AdClickDataset

__all__ = ["MarginalEstimationExperiment", "MarginalEstimationResult"]


@dataclass
class MarginalSeries:
    """Bucketed relative MSE for one (marginal type, method) combination."""

    marginal: str
    method: str
    buckets: List[Tuple[float, float, int]]
    mean_relative_mse: float


@dataclass
class MarginalEstimationResult:
    """All series produced by the marginal estimation experiment."""

    series: List[MarginalSeries]

    def rows(self) -> List[Dict[str, object]]:
        """One row per (marginal type, method, size bucket)."""
        rows = []
        for entry in self.series:
            for upper_edge, relative_mse, cells in entry.buckets:
                rows.append(
                    {
                        "marginal": entry.marginal,
                        "method": entry.method,
                        "marginal_size_upper": upper_edge,
                        "relative_mse": relative_mse,
                        "num_cells": cells,
                    }
                )
        return rows

    def summary(self) -> Dict[str, float]:
        """Mean relative MSE keyed by ``marginal/method``."""
        return {
            f"{entry.marginal}/{entry.method}": entry.mean_relative_mse
            for entry in self.series
        }


def _bucketed_relative_mse(
    cells, bucket_edges: Sequence[float]
) -> List[Tuple[float, float, int]]:
    """Average relative MSE of marginal cells grouped by true marginal size."""
    edges = sorted(bucket_edges)
    sums = [0.0] * len(edges)
    counts = [0] * len(edges)
    for cell in cells:
        if cell.truth <= 0:
            continue
        value = cell.squared_error / (cell.truth**2)
        for index, edge in enumerate(edges):
            if cell.truth <= edge:
                sums[index] += value
                counts[index] += 1
                break
    return [
        (edge, sums[index] / counts[index] if counts[index] else 0.0, counts[index])
        for index, edge in enumerate(edges)
    ]


def _mean_relative_mse(cells) -> float:
    values = [
        cell.squared_error / (cell.truth**2) for cell in cells if cell.truth > 0
    ]
    return sum(values) / len(values) if values else 0.0


@dataclass
class MarginalEstimationExperiment:
    """Figure 6: 1-way and 2-way marginal accuracy, USS vs priority sampling.

    Parameters mirror the reproduction scale: ``num_rows`` impressions are
    generated once, the Unbiased Space Saving sketch ingests them row by row
    (keyed by the full feature tuple), and the priority sample is drawn from
    the exact pre-aggregated tuple counts.  Marginals are then group-bys over
    each method's retained estimates.
    """

    num_rows: int = 60_000
    capacity: int = 2_000
    one_way_feature: int = 1
    two_way_features: Tuple[int, int] = (1, 5)
    min_marginal_size: float = 10.0
    num_trials: int = 3
    seed: int = 0

    def run(self) -> MarginalEstimationResult:
        dataset = AdClickDataset(num_rows=self.num_rows, seed=self.seed)
        exact_tuples = dataset.tuple_counts()
        exact_one_way = dataset.marginal_counts(self.one_way_feature)
        exact_two_way = dataset.pairwise_counts(*self.two_way_features)
        bucket_edges = self._bucket_edges()

        one_way_cells: Dict[str, List] = {"unbiased_space_saving": [], "priority_sampling": []}
        two_way_cells: Dict[str, List] = {"unbiased_space_saving": [], "priority_sampling": []}

        for trial in range(self.num_trials):
            trial_seed = self.seed + 101 * (trial + 1)
            sketch = UnbiasedSpaceSaving(self.capacity, seed=trial_seed)
            for impression in dataset.impressions():
                sketch.update(impression)
            priority = PrioritySample(
                {key: float(value) for key, value in exact_tuples.items()},
                self.capacity,
                rng=np.random.default_rng(trial_seed + 1),
            )
            sources = {
                "unbiased_space_saving": sketch,
                "priority_sampling": priority,
            }
            for method, source in sources.items():
                estimated_one_way = one_way_marginal(source, self.one_way_feature)
                estimated_two_way = two_way_marginal(source, *self.two_way_features)
                one_way_cells[method].extend(
                    marginal_cells(
                        estimated_one_way, exact_one_way, min_truth=self.min_marginal_size
                    )
                )
                two_way_cells[method].extend(
                    marginal_cells(
                        estimated_two_way, exact_two_way, min_truth=self.min_marginal_size
                    )
                )

        series: List[MarginalSeries] = []
        for marginal_name, per_method in (
            ("one_way", one_way_cells),
            ("two_way", two_way_cells),
        ):
            for method, cells in per_method.items():
                series.append(
                    MarginalSeries(
                        marginal=marginal_name,
                        method=method,
                        buckets=_bucketed_relative_mse(cells, bucket_edges),
                        mean_relative_mse=_mean_relative_mse(cells),
                    )
                )
        return MarginalEstimationResult(series=series)

    def _bucket_edges(self) -> List[float]:
        """Geometric size buckets spanning tiny to whole-dataset marginals."""
        edges = []
        edge = max(self.min_marginal_size * 10, 100.0)
        while edge < self.num_rows:
            edges.append(edge)
            edge *= 4
        edges.append(float(self.num_rows))
        return edges
