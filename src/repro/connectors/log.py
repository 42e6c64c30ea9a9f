"""A partitioned append-only log source (the Kafka-shaped connector).

:class:`LogSource` holds N named partitions of ``(item, weight, ts)``
records, each stored as three parallel columns (items, float weights,
float timestamps), so a poll is three slices and hands the driver the
:class:`~repro.connectors.base.SourceBatch` columns without a transpose.
Producers ``append``/``extend`` rows — routed to a partition by
the package's stable label hash, so all rows of one item land in one
partition, mirroring how key-sharded serve sessions split the same
space — and consumers ``poll(partition, offset, max_rows)`` with offsets
they track themselves.  The log never advances a consumer's position:
the same poll always returns the same rows, which is the property the
exactly-once pipeline driver builds on.

``truncate`` models the failure the exactly-once contract must refuse:
a partition losing its tail (retention kicking in, a log being
recreated).  Polls at offsets past the new end raise
:class:`~repro.errors.StaleOffsetError` instead of silently resuming
from fabricated positions.

>>> source = LogSource(num_partitions=2, seed=7)
>>> source.extend([("a", 1.0, 0.5), ("b", 1.0, 1.0), ("a", 2.0, 2.0)])
3
>>> sorted(source.end_offsets().items())  # all of one item in one partition
[('p0', 1), ('p1', 2)]
>>> batch = source.poll("p1", 0, 10)
>>> (batch.items, batch.next_offset)
(['a', 'a'], 2)
>>> source.poll("p1", 2, 10).next_offset  # caught up: empty, same offset
2
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro._typing import Item
from repro.distributed.partition import stable_shard
from repro.errors import (
    InvalidParameterError,
    StaleOffsetError,
    UnknownPartitionError,
)
from repro.connectors.base import SourceBatch

__all__ = ["LogSource"]

Row = Tuple[Item, float, float]


class _Partition:
    """One partition's rows as three aligned columns."""

    __slots__ = ("items", "weights", "timestamps")

    def __init__(self) -> None:
        self.items: List[Item] = []
        self.weights: List[float] = []
        self.timestamps: List[float] = []

    def __len__(self) -> int:
        return len(self.items)


class LogSource:
    """An in-memory partitioned append-only log implementing the source contract.

    Parameters
    ----------
    num_partitions:
        Partition count; partitions are named ``p0 .. p{n-1}``.  Sized to
        the serving tier's shard count in the usual deployment, so the
        hash route that picks a log partition is congruent with the one
        that picks a session shard.
    seed:
        Seed of the stable label hash routing appended rows.
    """

    def __init__(self, num_partitions: int = 1, *, seed: int = 0) -> None:
        if num_partitions < 1:
            raise InvalidParameterError(
                f"num_partitions must be >= 1, got {num_partitions}"
            )
        self._seed = int(seed)
        self._partitions: Dict[str, _Partition] = {
            f"p{index}": _Partition() for index in range(num_partitions)
        }

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Row],
        *,
        num_partitions: int = 1,
        seed: int = 0,
    ) -> "LogSource":
        """A log pre-loaded with an existing timestamped stream."""
        source = cls(num_partitions, seed=seed)
        source.extend(rows)
        return source

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def append(
        self,
        item: Item,
        weight: float = 1.0,
        timestamp: float = 0.0,
        *,
        partition: Optional[str] = None,
    ) -> str:
        """Append one row; returns the partition it landed in.

        Without an explicit ``partition`` the row routes by the stable
        hash of its item, so a given item always lands in the same
        partition (and therefore replays in the same order).
        """
        if partition is None:
            index = stable_shard(item, len(self._partitions), seed=self._seed)
            partition = f"p{index}"
        log = self._log(partition)
        weight, timestamp = float(weight), float(timestamp)
        log.items.append(item)
        log.weights.append(weight)
        log.timestamps.append(timestamp)
        return partition

    def extend(self, rows: Iterable[Row]) -> int:
        """Append many ``(item, weight, ts)`` rows; returns rows appended."""
        count = 0
        for item, weight, ts in rows:
            self.append(item, weight, ts)
            count += 1
        return count

    def truncate(self, partition: str, end_offset: int) -> None:
        """Drop every row of ``partition`` at or past ``end_offset``.

        Models retention/recreation: consumers holding offsets beyond the
        new end will have their next poll refused with
        :class:`~repro.errors.StaleOffsetError`.
        """
        if end_offset < 0:
            raise InvalidParameterError(
                f"end_offset must be >= 0, got {end_offset}"
            )
        log = self._log(partition)
        del log.items[end_offset:]
        del log.weights[end_offset:]
        del log.timestamps[end_offset:]

    # ------------------------------------------------------------------
    # Consumer side (the SourceProtocol surface)
    # ------------------------------------------------------------------
    def partitions(self) -> Sequence[str]:
        return sorted(self._partitions)

    def end_offsets(self) -> Dict[str, int]:
        """Current end offset (== row count) of every partition."""
        return {name: len(log) for name, log in self._partitions.items()}

    def poll(self, partition: str, offset: int, max_rows: int) -> SourceBatch:
        log = self._log(partition)
        if offset < 0:
            raise InvalidParameterError(f"offset must be >= 0, got {offset}")
        if max_rows < 1:
            raise InvalidParameterError(f"max_rows must be >= 1, got {max_rows}")
        if offset > len(log):
            raise StaleOffsetError(
                f"offset {offset} is past the end of partition "
                f"{partition!r} (end offset {len(log)}): the partition "
                "rewound since the offset was recorded; re-seed the "
                "consumer instead of replaying from a stale position"
            )
        end = offset + max_rows
        items = log.items[offset:end]
        return SourceBatch(
            partition=partition,
            items=items,
            weights=log.weights[offset:end],
            timestamps=log.timestamps[offset:end],
            next_offset=offset + len(items),
        )

    def _log(self, partition: str) -> _Partition:
        try:
            return self._partitions[partition]
        except KeyError:
            raise UnknownPartitionError(
                f"source has no partition {partition!r} "
                f"(partitions: {sorted(self._partitions)})"
            ) from None

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{name}:{len(log)}" for name, log in sorted(self._partitions.items())
        )
        return f"LogSource({sizes})"
