"""Row-stream generators: turn frequency models into disaggregated streams.

A *stream* here is simply a sequence of item labels, one per raw row, in a
particular arrival order.  The order is what separates the friendly i.i.d.
case (§6.1-6.2) from the pathological cases (§6.3): the counts are the same,
only the arrangement changes.  Exchangeable streams (uniformly random
permutations of the rows) are the finite-sample analogue of i.i.d. draws the
paper's experiments use.

For speed the generators produce numpy integer arrays when the item labels
are integers, falling back to Python lists otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._typing import Item
from repro.errors import InvalidParameterError
from repro.streams.frequency import FrequencyModel

__all__ = [
    "rows_from_counts",
    "exchangeable_stream",
    "iid_stream",
    "deterministic_round_robin_stream",
    "concatenate_streams",
    "BurstSpec",
    "bursty_soak_stream",
    "timestamp_rows",
    "timestamped_zipf_stream",
    "timestamped_adclick_stream",
    "chunk_stream",
]

Stream = Union[np.ndarray, List[Item]]

#: One timestamped row: ``(item, weight, timestamp)`` — the shape consumed
#: by windowed sessions' ``extend`` (see :mod:`repro.windows`).
TimestampedRow = Tuple[Item, float, float]


def _integer_labels(labels: Collection[Item]) -> bool:
    """Whether every label is an integer (``bool`` included), checked
    once per label type rather than once per label."""
    return all(issubclass(kind, (int, np.integer)) for kind in set(map(type, labels)))


def _repeat(labels: Collection[Item], counts: Sequence[int]) -> Stream:
    """Each label ``count`` times, in order: an int64 array when every
    label is an integer, else a list."""
    if _integer_labels(labels):
        return np.repeat(np.fromiter(labels, dtype=np.int64, count=len(labels)), counts)
    expanded: List[Item] = []
    for label, count in zip(labels, counts):
        expanded.extend([label] * count)
    return expanded


def _expand_counts(model: FrequencyModel) -> Stream:
    """One row per occurrence, grouped by item in model order."""
    counts = np.fromiter(model.counts.values(), dtype=np.int64, count=model.num_items)
    # Labels straight from the dict and repeats as a list: of the ways
    # tried, this leaves the heap so the shuffle's copy reuses it, and
    # the peak RSS stays at the per-label loop's.
    return _repeat(model.counts.keys(), counts.tolist())


def rows_from_counts(
    model: FrequencyModel,
    *,
    order: str = "shuffled",
    rng: Optional[np.random.Generator] = None,
) -> Stream:
    """Materialize the disaggregated rows of a frequency model.

    Parameters
    ----------
    model:
        The per-item counts to expand.
    order:
        ``"shuffled"`` — uniformly random permutation (exchangeable stream);
        ``"sorted_ascending"`` / ``"sorted_descending"`` — rows grouped by
        item, items ordered by count (the pathological sorted streams of
        §7.1); ``"grouped"`` — rows grouped by item in model order.
    rng:
        Numpy generator used for shuffling.
    """
    rows = _expand_counts(model)
    if order == "grouped":
        return rows
    if order == "shuffled":
        rng = rng or np.random.default_rng()
        if isinstance(rows, np.ndarray):
            return rng.permutation(rows)
        shuffled = list(rows)
        # numpy's shuffle works in-place on lists of objects as well.
        rng.shuffle(shuffled)
        return shuffled
    if order in ("sorted_ascending", "sorted_descending"):
        ascending = order == "sorted_ascending"
        ordered_items = model.sorted_items(ascending=ascending)
        return _repeat(
            [label for label, _ in ordered_items],
            [count for _, count in ordered_items],
        )
    raise InvalidParameterError(
        f"unknown order {order!r}; expected 'shuffled', 'grouped', "
        "'sorted_ascending' or 'sorted_descending'"
    )


def exchangeable_stream(
    model: FrequencyModel, *, rng: Optional[np.random.Generator] = None
) -> Stream:
    """A uniformly random permutation of the model's rows.

    By de Finetti's theorem (as the paper notes) this is the finite analogue
    of an i.i.d. stream with the model's relative frequencies.
    """
    return rows_from_counts(model, order="shuffled", rng=rng)


def iid_stream(
    model: FrequencyModel,
    num_rows: int,
    *,
    rng: Optional[np.random.Generator] = None,
) -> Stream:
    """Draw ``num_rows`` i.i.d. rows with probabilities proportional to the counts."""
    if num_rows < 0:
        raise InvalidParameterError("num_rows must be non-negative")
    rng = rng or np.random.default_rng()
    labels = model.items()
    counts = np.asarray([model.count(label) for label in labels], dtype=np.float64)
    if counts.sum() <= 0:
        raise InvalidParameterError("the frequency model has no rows to draw from")
    probabilities = counts / counts.sum()
    indices = rng.choice(len(labels), size=num_rows, p=probabilities)
    if all(isinstance(label, (int, np.integer)) for label in labels):
        label_array = np.asarray(labels, dtype=np.int64)
        return label_array[indices]
    return [labels[index] for index in indices]


def deterministic_round_robin_stream(model: FrequencyModel) -> List[Item]:
    """Interleave items round-robin until each item's count is exhausted.

    A maximally "spread out" arrival order used by a few tests as a
    non-random but also non-adversarial ordering.
    """
    remaining = {item: model.count(item) for item in model.items()}
    rows: List[Item] = []
    while remaining:
        exhausted = []
        for item in remaining:
            rows.append(item)
            remaining[item] -= 1
            if remaining[item] == 0:
                exhausted.append(item)
        for item in exhausted:
            del remaining[item]
    return rows


def concatenate_streams(*streams: Stream) -> Stream:
    """Concatenate several streams preserving their internal order."""
    if not streams:
        return []
    if all(isinstance(stream, np.ndarray) for stream in streams):
        return np.concatenate(streams)
    combined: List[Item] = []
    for stream in streams:
        combined.extend(list(stream))
    return combined


# ----------------------------------------------------------------------
# Timestamped streams (for the repro.windows subsystem)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BurstSpec:
    """A traffic burst injected into a timestamped stream.

    ``rows`` extra unit-weight rows for ``item`` arrive with timestamps
    uniform over ``[at, at + duration)`` — the "suddenly trending" shape
    windowed heavy-hitter queries exist to catch.
    """

    item: Item
    at: float
    duration: float
    rows: int

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise InvalidParameterError("burst duration must be positive")
        if self.rows < 1:
            raise InvalidParameterError("a burst must inject at least one row")


def timestamp_rows(
    stream: Iterable[Item],
    *,
    start: float = 0.0,
    duration: float = 60.0,
    rng: Optional[np.random.Generator] = None,
) -> List[TimestampedRow]:
    """Attach sorted uniform arrival times to an existing item stream.

    Each row receives a timestamp drawn uniformly from
    ``[start, start + duration)``; timestamps are sorted and assigned in
    stream order, so the result is the same stream with a stationary
    (Poisson-like) arrival process layered on top.
    """
    if duration <= 0:
        raise InvalidParameterError("duration must be positive")
    rows = list(iterate_rows(stream))
    rng = rng or np.random.default_rng()
    times = np.sort(rng.uniform(start, start + duration, size=len(rows)))
    return [(item, 1.0, float(ts)) for item, ts in zip(rows, times)]


def _splice_bursts(
    rows: List[TimestampedRow],
    bursts: Iterable[BurstSpec],
    rng: np.random.Generator,
) -> List[TimestampedRow]:
    """Merge burst rows into a timestamped stream, re-sorted by arrival."""
    for burst in bursts:
        burst_times = np.sort(
            rng.uniform(burst.at, burst.at + burst.duration, size=burst.rows)
        )
        rows.extend((burst.item, 1.0, float(ts)) for ts in burst_times)
    rows.sort(key=lambda row: row[2])
    return rows


def timestamped_zipf_stream(
    num_rows: int,
    *,
    num_items: int,
    exponent: float = 1.1,
    start: float = 0.0,
    duration: float = 60.0,
    bursts: Iterable[BurstSpec] = (),
    rng: Optional[np.random.Generator] = None,
) -> List[TimestampedRow]:
    """A timestamped Zipf stream with optional injected bursts.

    The background traffic is ``num_rows`` i.i.d. Zipf(``exponent``) draws
    arriving uniformly over ``[start, start + duration)``; each
    :class:`BurstSpec` then splices extra rows for its item into the burst
    interval.  The result is sorted by timestamp, ready for
    ``session.extend(rows)`` or (column-split) ``update_batch``.

    >>> rows = timestamped_zipf_stream(
    ...     1000, num_items=50, duration=100.0,
    ...     bursts=[BurstSpec(item=999, at=40.0, duration=10.0, rows=200)],
    ...     rng=np.random.default_rng(0))
    >>> len(rows)
    1200
    >>> all(40.0 <= ts < 50.0 for item, _, ts in rows if item == 999)
    True
    """
    if num_rows < 0:
        raise InvalidParameterError("num_rows must be non-negative")
    rng = rng or np.random.default_rng()
    from repro.streams.frequency import zipf_counts

    model = zipf_counts(num_items=num_items, exponent=exponent, total=max(num_rows, 1))
    background = iid_stream(model, num_rows, rng=rng)
    rows = timestamp_rows(background, start=start, duration=duration, rng=rng)
    return _splice_bursts(rows, bursts, rng)


def timestamped_adclick_stream(
    dataset,
    *,
    start: float = 0.0,
    duration: float = 60.0,
    bursts: Iterable[BurstSpec] = (),
    rng: Optional[np.random.Generator] = None,
) -> List[TimestampedRow]:
    """Timestamped ad impressions from an :class:`~repro.streams.adclick.AdClickDataset`.

    One ``(feature_tuple, 1.0, timestamp)`` row per impression, arrivals
    uniform over ``[start, start + duration)``, plus optional bursts
    (e.g. a campaign flight: a specific feature tuple spiking for a few
    seconds).
    """
    rng = rng or np.random.default_rng()
    rows = timestamp_rows(
        dataset.impressions(), start=start, duration=duration, rng=rng
    )
    return _splice_bursts(rows, bursts, rng)


def bursty_soak_stream(
    rows_per_hour: int,
    *,
    hours: float = 1.0,
    num_items: int = 1_000,
    exponent: float = 1.1,
    bursts_per_hour: float = 4.0,
    burst_rows: Optional[int] = None,
    burst_duration: float = 60.0,
    start: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> List[TimestampedRow]:
    """An hours-equivalent bursty workload, compressed into one stream.

    The soak benchmark's input: ``hours`` of simulated wall clock
    (``hours * 3600`` seconds of timestamp range) carrying
    ``rows_per_hour`` background Zipf rows per hour, with
    ``bursts_per_hour`` evenly-spaced :class:`BurstSpec` spikes.  Each
    burst promotes a *fresh* item (labelled ``num_items+1, num_items+2,
    ...`` — beyond the background alphabet of ``1..num_items``) from
    nothing to heavy hitter
    for ``burst_duration`` seconds, the churny traffic shape that
    stresses Space Saving's eviction path and windowed queries alike.

    Everything is driven by ``rng``, so one seed fixes the whole
    workload — which is what lets the soak harness replay the identical
    stream through a killed-and-restored pipeline.

    >>> rows = bursty_soak_stream(
    ...     1000, hours=2.0, num_items=50, bursts_per_hour=2.0,
    ...     burst_rows=100, rng=np.random.default_rng(7))
    >>> len(rows)  # 2h x 1000 rows/h background + 4 bursts x 100 rows
    2400
    >>> all(a[2] <= b[2] for a, b in zip(rows, rows[1:]))  # time-sorted
    True
    >>> sorted({item for item, _, _ in rows if item > 50})  # burst items
    [51, 52, 53, 54]
    """
    if rows_per_hour < 0:
        raise InvalidParameterError("rows_per_hour must be non-negative")
    if hours <= 0:
        raise InvalidParameterError("hours must be positive")
    if bursts_per_hour < 0:
        raise InvalidParameterError("bursts_per_hour must be non-negative")
    rng = rng or np.random.default_rng()
    duration = hours * 3600.0
    total_rows = int(round(rows_per_hour * hours))
    num_bursts = int(round(bursts_per_hour * hours))
    if burst_rows is None:
        burst_rows = max(1, total_rows // (10 * max(num_bursts, 1)))
    spacing = duration / max(num_bursts, 1)
    bursts = [
        BurstSpec(
            item=num_items + 1 + index,
            at=start + (index + 0.5) * spacing,
            duration=min(burst_duration, spacing / 2),
            rows=burst_rows,
        )
        for index in range(num_bursts)
    ]
    return timestamped_zipf_stream(
        total_rows,
        num_items=num_items,
        exponent=exponent,
        start=start,
        duration=duration,
        bursts=bursts,
        rng=rng,
    )


def chunk_stream(stream: Stream, batch_rows: int) -> List[Stream]:
    """Slice a stream into contiguous batches of at most ``batch_rows`` rows.

    Numpy streams yield array views (zero copy), lists yield list slices.
    This is the batching step in front of every bulk-ingestion surface —
    ``update_batch`` loops, the serve layer's producer queues, and the
    throughput benchmark's per-mode chunking all share it.
    """
    if batch_rows < 1:
        raise InvalidParameterError(f"batch_rows must be >= 1, got {batch_rows}")
    return [
        stream[start : start + batch_rows]
        for start in range(0, len(stream), batch_rows)
    ]


def stream_length(stream: Stream) -> int:
    """Number of rows in a stream (works for arrays and lists alike)."""
    return int(len(stream))


def iterate_rows(stream: Stream) -> Iterator[Item]:
    """Iterate over rows, converting numpy scalars to Python ints for hashing."""
    if isinstance(stream, np.ndarray):
        for value in stream:
            yield int(value)
    else:
        yield from stream
