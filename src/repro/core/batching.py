"""Batch ingestion helpers: collapse a disaggregated batch before updating.

Every sketch in this package consumes a *disaggregated* stream — one
``update(item, weight)`` call per raw row.  That Python-loop hot path caps
throughput far below what the underlying O(1)/O(log m) structures can
sustain.  The batched ingestion subsystem built on this module exploits a
simple observation: within one batch, all rows for the same item can be
pre-aggregated into a single weighted update without giving up any of the
estimator guarantees (a pre-aggregated batch is itself a valid weighted
stream, and the weighted update is the paper's §5.3 pairwise PPS reduction).

:func:`collapse_batch` is the shared primitive: it reduces a batch of
``(item, weight)`` rows to one ``(item, total_weight)`` pair per distinct
item, in first-occurrence order, using a vectorized :func:`numpy.unique` /
:func:`numpy.bincount` path for numpy arrays and an ordered dict-collapse
for generic Python sequences.  ``FrequentItemSketch.update_batch`` and the
per-sketch overrides all funnel through it, so the batch semantics are
identical everywhere.

A list of plain Python ints takes the numpy path too: :func:`int_column`
is the one rule that decides when a label list is an int64 column (every
element exactly ``int`` — not ``bool``, not a subclass such as
``IntEnum`` — and every value within int64).  Space Saving's
``update_batch``, the windowed pane router and the counter store's
membership lookup all ask it, so a list of ints and the same rows as an
int64 array collapse, route and serialize identically; any other list
keeps the dict collapse and its labels exactly as given.  The semantics:

* The batch is equivalent to a scalar ``update`` loop over the collapsed
  ``(item, weight)`` pairs in first-occurrence order.  For purely additive
  sketches (CountMin without conservative update, Count Sketch, bottom-k)
  this is also exactly equivalent to the raw row loop.
* ``rows_processed`` advances by the number of *raw* rows in the batch, not
  by the number of distinct items, so throughput accounting is unchanged.
* Numpy scalar labels are normalized to Python scalars (matching
  :func:`repro.streams.generators.iterate_rows`) so that repr-based hashing
  is consistent between the scalar and batched paths.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._typing import Item
from repro.errors import InvalidParameterError, UnsupportedUpdateError

__all__ = [
    "CollapsedBatch",
    "collapse_batch",
    "collapse_batch_arrays",
    "int_column",
    "as_sequence",
    "unit_rows",
    "iter_weighted_rows",
    "positive_weights",
]

#: ``(unique_items, collapsed_weights, row_count, total_weight)`` — the
#: result of :func:`collapse_batch`.  ``unique_items`` preserves first
#: occurrence order and ``collapsed_weights`` is aligned with it.
CollapsedBatch = Tuple[List[Item], List[float], int, float]

WeightsLike = Optional[Union[np.ndarray, Sequence[float]]]


def _row_order_sum(weights: np.ndarray) -> float:
    """The weights' sum added in row order, as the list collapse adds it
    (``ndarray.sum`` adds pairwise and can differ in the last bit), so a
    batch totals the same in either container."""
    if weights.size == 0:
        return 0.0
    return float(np.cumsum(weights, dtype=np.float64)[-1])


def as_sequence(values: Iterable) -> Sequence:
    """``values`` itself when it is a list, tuple or array, else a list
    of it: a sized sequence that can be read twice, copied only when the
    input is a one-shot iterable."""
    if isinstance(values, (list, tuple, np.ndarray)):
        return values
    return list(values)


def int_column(labels) -> Optional[np.ndarray]:
    """``labels`` as an int64 array when the list is a column of plain ints.

    Returns ``None`` — keep the generic path — unless ``labels`` is a
    non-empty list or tuple whose every element is exactly ``int`` and
    fits in int64.  ``bool`` and ``int`` subclasses (``IntEnum``) are
    excluded so their labels are never rewritten as plain ints; the
    counter store lowers numpy labels back to Python ints, so the two
    containers hold the same labels.
    """
    if not isinstance(labels, (list, tuple)) or set(map(type, labels)) != {int}:
        return None
    try:
        return np.array(labels, dtype=np.int64)
    except OverflowError:
        return None


def _collapse_numpy_core(
    items: np.ndarray, weights: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, int, float]:
    """Array-native collapse of a 1-d numpy item array (first-occurrence order)."""
    row_count = int(items.size)
    if row_count == 0:
        return items[:0], np.zeros(0, dtype=np.float64), 0, 0.0
    if items.dtype.kind in "iu":
        low = int(items.min())
        high = int(items.max())
        # Dense-range integer fast path: bincount beats np.unique's sort
        # whenever the value range is comparable to the batch size.  The
        # per-occurrence summation order matches the np.unique path (both
        # add weights in row order), so the float results are identical.
        if low >= 0 and high < 4 * row_count + 1024:
            if weights is None:
                sums_by_value = np.bincount(items, minlength=high + 1).astype(
                    np.float64
                )
                total = float(row_count)
            else:
                sums_by_value = np.bincount(
                    items, weights=weights.astype(np.float64), minlength=high + 1
                )
                total = _row_order_sum(weights)
            occupancy = np.bincount(items, minlength=high + 1)
            unique = np.nonzero(occupancy)[0].astype(items.dtype, copy=False)
            # First-occurrence positions: writing row positions in reverse
            # leaves each value's earliest row as the surviving write.
            first_index = np.empty(high + 1, dtype=np.int64)
            first_index[items[::-1]] = np.arange(row_count - 1, -1, -1, dtype=np.int64)
            order = np.argsort(first_index[unique], kind="stable")
            return unique[order], sums_by_value[unique][order], row_count, total
    unique, first_index, inverse = np.unique(
        items, return_index=True, return_inverse=True
    )
    if weights is None:
        sums = np.bincount(inverse, minlength=unique.size).astype(np.float64)
        total = float(row_count)
    else:
        sums = np.bincount(
            inverse, weights=weights.astype(np.float64), minlength=unique.size
        )
        total = _row_order_sum(weights)
    # np.unique sorts by value; restore first-occurrence order so the batch
    # is order-deterministic regardless of the input container type.
    order = np.argsort(first_index, kind="stable")
    return unique[order], sums[order], row_count, total


def _collapse_numpy(items: np.ndarray, weights: Optional[np.ndarray]) -> CollapsedBatch:
    """Vectorized collapse of a 1-d numpy item array."""
    unique, sums, row_count, total = _collapse_numpy_core(items, weights)
    # .tolist() yields Python scalars, keeping repr-based hashing consistent
    # with the scalar update path (see iterate_rows).
    return unique.tolist(), sums.tolist(), row_count, total


def _collapse_generic(
    items: Iterable[Item], weights: Optional[Sequence[float]]
) -> CollapsedBatch:
    """Ordered dict-collapse for arbitrary hashable item sequences."""
    aggregated: Dict[Item, float] = {}
    row_count = 0
    total = 0.0
    if weights is None:
        for item in items:
            row_count += 1
            aggregated[item] = aggregated.get(item, 0.0) + 1.0
        total = float(row_count)
    else:
        items_list = items if isinstance(items, (list, tuple)) else list(items)
        if len(items_list) != len(weights):
            raise InvalidParameterError(
                f"items and weights must align: got {len(items_list)} items "
                f"and {len(weights)} weights"
            )
        for item, weight in zip(items_list, weights):
            row_count += 1
            weight = float(weight)
            aggregated[item] = aggregated.get(item, 0.0) + weight
            total += weight
    return list(aggregated), list(aggregated.values()), row_count, total


def _aligned_weights(items: np.ndarray, weights) -> Optional[np.ndarray]:
    """``weights`` as a float64 column shaped like ``items`` (``None``: unit)."""
    if weights is None:
        return None
    column = np.asarray(as_sequence(weights), dtype=np.float64)
    if column.shape != items.shape:
        raise InvalidParameterError(
            f"items and weights must align: got shapes "
            f"{items.shape} and {column.shape}"
        )
    return column


def collapse_batch(items: Iterable[Item], weights: WeightsLike = None) -> CollapsedBatch:
    """Pre-aggregate a batch of rows into one weighted update per distinct item.

    Parameters
    ----------
    items:
        The batch's item labels — a numpy array (fast path), list, tuple or
        any iterable of hashable items.
    weights:
        Optional per-row weights aligned with ``items``; ``None`` means unit
        weight per row.

    Returns
    -------
    ``(unique_items, collapsed_weights, row_count, total_weight)`` where
    ``unique_items`` lists each distinct item once in first-occurrence order,
    ``collapsed_weights[i]`` is the summed weight of ``unique_items[i]``
    within the batch, ``row_count`` is the number of raw rows and
    ``total_weight`` their summed weight.
    """
    if isinstance(items, np.ndarray):
        if items.ndim != 1:
            raise InvalidParameterError(
                f"item arrays must be 1-dimensional, got shape {items.shape}"
            )
        weights_array = _aligned_weights(items, weights)
        if items.dtype != object:
            return _collapse_numpy(items, weights_array)
        return _collapse_generic(
            items.tolist(), None if weights_array is None else weights_array.tolist()
        )
    if weights is not None and not isinstance(weights, (list, tuple)):
        weights = list(weights)
    return _collapse_generic(items, weights)


def collapse_batch_arrays(
    items: np.ndarray, weights: WeightsLike = None
) -> Tuple[np.ndarray, np.ndarray, int, float]:
    """Array-native :func:`collapse_batch` for non-object numpy batches.

    Same aggregation, validation and first-occurrence ordering as
    :func:`collapse_batch`, but ``(unique_items, collapsed_weights)`` stay
    numpy arrays instead of being lowered to Python lists — the form the
    columnar kernel consumes directly, skipping two ``tolist`` passes per
    batch.  Only defined for 1-d non-object arrays; callers with generic
    sequences use :func:`collapse_batch`.
    """
    if not isinstance(items, np.ndarray) or items.dtype == object:
        raise InvalidParameterError(
            "collapse_batch_arrays requires a non-object numpy array; "
            "use collapse_batch for generic sequences"
        )
    if items.ndim != 1:
        raise InvalidParameterError(
            f"item arrays must be 1-dimensional, got shape {items.shape}"
        )
    return _collapse_numpy_core(items, _aligned_weights(items, weights))


def positive_weights(weights, error: Callable[[], Exception]) -> np.ndarray:
    """A non-empty weight column as float64; raises ``error()`` unless
    every weight is finite and positive (the Space Saving weight rule)."""
    column = np.ascontiguousarray(weights, dtype=np.float64)
    # min() <= 0 alone would let NaN through (NaN comparisons are all
    # false), and +inf would collide with the store's free-slot
    # sentinel — require finite positive weights explicitly.
    if not np.isfinite(column).all() or column.min() <= 0:
        raise error()
    return column


def unit_rows(
    items: Iterable[Item], weights: WeightsLike, *, sketch_name: str
) -> List[Item]:
    """Materialize a unit-weight batch, validating the weights if given.

    The batch-normalization twin of :func:`collapse_batch` for sketches
    defined on unit rows only (Lossy Counting, Sticky Sampling): no
    collapsing happens — the rows are replayed one by one — so ``weights``
    must be ``None`` or an aligned all-ones sequence.  Numpy arrays are
    lowered to Python scalars to keep hashing consistent with the scalar
    update path.
    """
    if isinstance(items, np.ndarray):
        if items.ndim != 1:
            raise InvalidParameterError(
                f"item arrays must be 1-dimensional, got shape {items.shape}"
            )
        rows = items.tolist()
    else:
        rows = list(items)
    if weights is not None:
        weights = list(weights)
        if len(weights) != len(rows):
            raise InvalidParameterError(
                f"items and weights must align: got {len(rows)} items "
                f"and {len(weights)} weights"
            )
        for weight in weights:
            if weight != 1:
                raise UnsupportedUpdateError(
                    f"{sketch_name} supports unit-weight rows only"
                )
    return rows


def iter_weighted_rows(rows: Iterable) -> "Iterable[Tuple[Item, float]]":
    """Yield ``(item, weight)`` pairs from a mixed row iterable.

    A row may be a bare item (weight 1) or an ``(item, weight)`` pair.
    Streams of composite keys (e.g. ``(user, ad)``) legitimately contain
    tuples that are *items*, not pairs: a 2-tuple is treated as weighted
    only when its second element is a real number and its first element is
    not.  This is the single row heuristic behind ``extend()`` on sketches,
    ensembles and :class:`repro.api.StreamSession`.
    """
    for row in rows:
        if (
            isinstance(row, tuple)
            and len(row) == 2
            and isinstance(row[1], (int, float))
            and not isinstance(row[0], (int, float))
        ):
            yield row[0], float(row[1])
        else:
            yield row, 1.0
