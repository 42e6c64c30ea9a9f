"""Core sketches: Unbiased Space Saving, Deterministic Space Saving and extensions.

The primary public entry point is
:class:`~repro.core.unbiased_space_saving.UnbiasedSpaceSaving`; the rest of
the subpackage supplies the baseline Deterministic Space Saving sketch, the
columnar counter store, pluggable reductions, merges, variance estimation,
adaptive sizing and signed updates.  Time decay lives in
:mod:`repro.windows.decayed`.
"""

from repro.core.adaptive import AdaptiveUnbiasedSpaceSaving
from repro.core.batching import collapse_batch, collapse_batch_arrays
from repro.core.base import FrequentItemSketch, SubsetSumSketch
from repro.core.columnar import ColumnarCounterStore, available_kernels, resolve_kernel_name
from repro.core.deterministic_space_saving import DeterministicSpaceSaving
from repro.core.merge import (
    combine_estimates,
    merge_many_unbiased,
    merge_misra_gries,
    merge_unbiased,
    reduce_bins_unbiased,
)
from repro.core.reduction import (
    DeterministicPairReduction,
    GeneralizedSpaceSaving,
    PPSReduction,
    ReductionPolicy,
    UnbiasedPairReduction,
)
from repro.core.unbiased_space_saving import UnbiasedSpaceSaving
from repro.core.variance import (
    EstimateWithError,
    coverage,
    normal_confidence_interval,
    poisson_pps_variance,
    pps_variance_bound,
    subset_variance_estimate,
)
from repro.core.weighted import SignedUnbiasedSpaceSaving, weighted_stream_to_unit_rows

__all__ = [
    "AdaptiveUnbiasedSpaceSaving",
    "ColumnarCounterStore",
    "available_kernels",
    "resolve_kernel_name",
    "FrequentItemSketch",
    "SubsetSumSketch",
    "DeterministicSpaceSaving",
    "combine_estimates",
    "merge_many_unbiased",
    "merge_misra_gries",
    "merge_unbiased",
    "reduce_bins_unbiased",
    "DeterministicPairReduction",
    "GeneralizedSpaceSaving",
    "PPSReduction",
    "ReductionPolicy",
    "UnbiasedPairReduction",
    "UnbiasedSpaceSaving",
    "EstimateWithError",
    "coverage",
    "normal_confidence_interval",
    "poisson_pps_variance",
    "pps_variance_bound",
    "subset_variance_estimate",
    "SignedUnbiasedSpaceSaving",
    "weighted_stream_to_unit_rows",
    "collapse_batch",
    "collapse_batch_arrays",
]
