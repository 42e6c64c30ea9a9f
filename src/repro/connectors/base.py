"""The source contract every streaming connector implements.

A *source* is a partitioned, offset-addressable supplier of timestamped
rows.  The contract is deliberately Kafka-shaped:

* :meth:`SourceProtocol.partitions` names the partitions (stable string
  ids — a log partition, a tailed file, a firehose channel);
* :meth:`SourceProtocol.poll` reads up to ``max_rows`` rows of one
  partition **starting at an explicit offset** and returns them as a
  :class:`SourceBatch` carrying the offset to resume from.

Offsets are owned by the *consumer*, never the source: the same
``(partition, offset)`` poll always returns the same rows (until the
partition is truncated, which polls refuse with
:class:`~repro.errors.StaleOffsetError`).  That one property is what
makes exactly-once resume possible — the pipeline driver records its
per-partition offsets inside the :mod:`repro.io` checkpoint frame next
to the sketch state, and a restart simply re-polls from the recorded
positions, replaying the stream bit-identically.

Rows are ``(item, weight, timestamp)`` triples — the same shape the
timestamped generators in :mod:`repro.streams.generators` produce and
windowed sessions consume — but a :class:`SourceBatch` stores them as
three parallel columns so a batch can flow straight into
``update_batch(items, weights, timestamps)`` without a transpose.
:class:`~repro.connectors.log.LogSource` keeps its partitions in that
columnar form, so its polls are slices; sources that read rows one at a
time (a tailed file, a firehose response) transpose them once with
:func:`rows_to_columns`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Protocol, Sequence, Tuple, runtime_checkable

from repro._typing import Item
from repro.errors import InvalidParameterError

__all__ = ["SourceBatch", "SourceProtocol", "rows_to_columns"]


def rows_to_columns(
    rows: Iterable[Tuple[Item, float, float]],
) -> Tuple[List[Item], List[float], List[float]]:
    """Split ``(item, weight, ts)`` triples into the three batch columns."""
    items: List[Item] = []
    weights: List[float] = []
    timestamps: List[float] = []
    for item, weight, ts in rows:
        items.append(item)
        weights.append(float(weight))
        timestamps.append(float(ts))
    return items, weights, timestamps


@dataclass(frozen=True)
class SourceBatch:
    """One poll's worth of rows from one partition.

    ``next_offset`` is the offset to poll next — equal to the polled
    offset when the batch is empty (the partition had nothing new), and
    strictly greater otherwise.  The three columns are always the same
    length.
    """

    partition: str
    items: List[Item] = field(default_factory=list)
    weights: List[float] = field(default_factory=list)
    timestamps: List[float] = field(default_factory=list)
    next_offset: int = 0

    def __post_init__(self) -> None:
        if not (len(self.items) == len(self.weights) == len(self.timestamps)):
            raise InvalidParameterError(
                "SourceBatch columns must align: "
                f"{len(self.items)} items, {len(self.weights)} weights, "
                f"{len(self.timestamps)} timestamps"
            )

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    @classmethod
    def from_rows(
        cls,
        partition: str,
        rows: Iterable[Tuple[Item, float, float]],
        next_offset: int,
    ) -> "SourceBatch":
        """Build a batch from ``(item, weight, ts)`` triples."""
        items, weights, timestamps = rows_to_columns(rows)
        return cls(
            partition=partition,
            items=items,
            weights=weights,
            timestamps=timestamps,
            next_offset=next_offset,
        )


@runtime_checkable
class SourceProtocol(Protocol):
    """What the pipeline driver requires of a streaming source.

    Implementations must make :meth:`poll` **deterministic in its
    arguments**: polling ``(partition, offset)`` twice returns the same
    rows, and a poll at an offset past the partition's current end
    raises :class:`~repro.errors.StaleOffsetError` instead of inventing
    data.  Polling an unknown partition raises
    :class:`~repro.errors.UnknownPartitionError`.
    """

    def partitions(self) -> Sequence[str]:
        """The stable partition ids this source holds, in stable order."""
        ...

    def poll(self, partition: str, offset: int, max_rows: int) -> SourceBatch:
        """Read up to ``max_rows`` rows of ``partition`` from ``offset``."""
        ...
