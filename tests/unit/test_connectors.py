"""Unit tests for the streaming connectors (``repro.connectors``).

Covers the three sources behind :class:`SourceProtocol` — partitioned
log, file tail, socket firehose — plus the :class:`SourceBatch` shape,
the :class:`DriverCheckpoint` envelope and the soak workload generator.
The driver's kill/restore behaviour lives in
``tests/integration/test_pipeline_resume.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.connectors import (
    DriverCheckpoint,
    FileTailSource,
    FirehoseServer,
    LogSource,
    SocketFirehoseSource,
    SourceBatch,
    SourceProtocol,
    rows_to_columns,
)
from repro.errors import (
    ConnectorError,
    InvalidParameterError,
    ReproError,
    SerializationError,
    StaleOffsetError,
    UnknownPartitionError,
)
from repro.io import load_bytes, load_checkpoint, save_checkpoint
from repro.streams import bursty_soak_stream

ROWS = [("a", 1.0, 0.5), ("b", 2.0, 1.0), ("a", 3.0, 2.0), ("c", 1.0, 3.0)]


# ----------------------------------------------------------------------
# SourceBatch / rows_to_columns
# ----------------------------------------------------------------------
class TestSourceBatch:
    def test_rows_to_columns_splits_and_coerces(self):
        items, weights, timestamps = rows_to_columns([("x", 1, 2), ("y", 3, 4)])
        assert items == ["x", "y"]
        assert weights == [1.0, 3.0]
        assert timestamps == [2.0, 4.0]

    def test_from_rows_round_trips(self):
        batch = SourceBatch.from_rows("p0", ROWS, next_offset=4)
        assert len(batch) == 4
        assert bool(batch)
        assert batch.items == ["a", "b", "a", "c"]
        assert batch.next_offset == 4

    def test_empty_batch_is_falsy(self):
        batch = SourceBatch(partition="p0", next_offset=7)
        assert len(batch) == 0
        assert not batch

    def test_misaligned_columns_rejected(self):
        with pytest.raises(InvalidParameterError, match="columns must align"):
            SourceBatch(
                partition="p0", items=["a"], weights=[], timestamps=[0.0]
            )


# ----------------------------------------------------------------------
# Typed errors
# ----------------------------------------------------------------------
class TestConnectorErrors:
    def test_hierarchy(self):
        assert issubclass(ConnectorError, ReproError)
        assert issubclass(StaleOffsetError, ConnectorError)
        assert issubclass(StaleOffsetError, ValueError)
        assert issubclass(UnknownPartitionError, ConnectorError)
        assert issubclass(UnknownPartitionError, KeyError)

    def test_unknown_partition_str_is_message_not_repr(self):
        # KeyError.__str__ reprs its argument; the override keeps the
        # message readable.
        assert str(UnknownPartitionError("no such partition")) == (
            "no such partition"
        )


# ----------------------------------------------------------------------
# LogSource
# ----------------------------------------------------------------------
class TestLogSource:
    def test_implements_source_protocol(self):
        assert isinstance(LogSource(), SourceProtocol)

    def test_append_routes_items_stably(self):
        source = LogSource(num_partitions=4, seed=3)
        first = source.append("hot-item", 1.0, 0.0)
        for _ in range(5):
            assert source.append("hot-item", 1.0, 0.0) == first

    def test_poll_is_deterministic_and_offset_addressed(self):
        source = LogSource.from_rows(ROWS, num_partitions=2, seed=7)
        for partition in source.partitions():
            end = source.end_offsets()[partition]
            once = source.poll(partition, 0, 100)
            again = source.poll(partition, 0, 100)
            assert once == again
            assert once.next_offset == end
            # Paging two-at-a-time covers the same rows.
            paged, offset = [], 0
            while True:
                batch = source.poll(partition, offset, 2)
                if not batch:
                    break
                paged.extend(batch.items)
                offset = batch.next_offset
            assert paged == once.items

    def test_poll_at_frontier_is_empty_same_offset(self):
        source = LogSource.from_rows(ROWS, num_partitions=1)
        batch = source.poll("p0", len(ROWS), 10)
        assert not batch
        assert batch.next_offset == len(ROWS)

    def test_poll_past_end_raises_stale_offset(self):
        source = LogSource.from_rows(ROWS, num_partitions=1)
        with pytest.raises(StaleOffsetError, match="rewound"):
            source.poll("p0", len(ROWS) + 1, 10)

    def test_truncate_invalidates_recorded_offsets(self):
        source = LogSource.from_rows(ROWS, num_partitions=1)
        recorded = source.poll("p0", 0, 100).next_offset
        source.truncate("p0", 1)
        with pytest.raises(StaleOffsetError):
            source.poll("p0", recorded, 10)
        assert source.poll("p0", 0, 100).next_offset == 1

    def test_unknown_partition(self):
        with pytest.raises(UnknownPartitionError, match="no partition"):
            LogSource(num_partitions=2).poll("p9", 0, 1)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            LogSource(num_partitions=0)
        source = LogSource()
        with pytest.raises(InvalidParameterError):
            source.poll("p0", -1, 1)
        with pytest.raises(InvalidParameterError):
            source.poll("p0", 0, 0)
        with pytest.raises(InvalidParameterError):
            source.truncate("p0", -1)


# ----------------------------------------------------------------------
# FileTailSource
# ----------------------------------------------------------------------
class TestFileTailSource:
    def test_implements_source_protocol(self, tmp_path):
        assert isinstance(
            FileTailSource(tmp_path / "events.jsonl"), SourceProtocol
        )

    def test_write_then_poll_round_trips(self, tmp_path):
        source = FileTailSource(tmp_path / "events.jsonl")
        assert source.partitions() == ["events.jsonl"]
        assert source.write_rows(ROWS) == len(ROWS)
        batch = source.poll("events.jsonl", 0, 100)
        assert batch.items == [item for item, _, _ in ROWS]
        assert batch.weights == [w for _, w, _ in ROWS]
        assert batch.timestamps == [ts for _, _, ts in ROWS]
        # Byte offsets: polling from next_offset sees only new rows.
        source.write_rows([("d", 4.0, 9.0)])
        tail = source.poll("events.jsonl", batch.next_offset, 100)
        assert tail.items == ["d"]

    def test_tuple_items_survive_the_json_hop(self, tmp_path):
        source = FileTailSource(tmp_path / "events.jsonl")
        source.write_rows([(("ad", 17), 1.0, 0.0)])
        assert source.poll("events.jsonl", 0, 10).items == [("ad", 17)]

    def test_missing_file_polls_empty_at_zero(self, tmp_path):
        source = FileTailSource(tmp_path / "absent.jsonl")
        batch = source.poll("absent.jsonl", 0, 10)
        assert not batch and batch.next_offset == 0

    def test_missing_file_with_recorded_offset_is_stale(self, tmp_path):
        path = tmp_path / "rotated.jsonl"
        source = FileTailSource(path)
        source.write_rows(ROWS)
        offset = source.poll("rotated.jsonl", 0, 100).next_offset
        path.unlink()
        with pytest.raises(StaleOffsetError, match="no longer exists"):
            source.poll("rotated.jsonl", offset, 10)

    def test_shrunk_file_is_stale(self, tmp_path):
        path = tmp_path / "truncated.jsonl"
        source = FileTailSource(path)
        source.write_rows(ROWS)
        offset = source.poll("truncated.jsonl", 0, 100).next_offset
        path.write_text("")
        with pytest.raises(StaleOffsetError, match="truncated"):
            source.poll("truncated.jsonl", offset, 10)

    def test_incomplete_tail_line_waits_for_newline(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        source = FileTailSource(path, partition="tail")
        source.write_rows(ROWS[:2])
        complete = source.poll("tail", 0, 100)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"item": "s0", "weight": 1.0')  # no newline yet
        waiting = source.poll("tail", 0, 100)
        assert waiting.items == complete.items
        assert waiting.next_offset == complete.next_offset
        with path.open("a", encoding="utf-8") as handle:
            handle.write(', "ts": 5.0}\n')
        finished = source.poll("tail", complete.next_offset, 100)
        assert finished.items == ["s0"]

    def test_malformed_line_raises_connector_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(ConnectorError):
            FileTailSource(path, partition="bad").poll("bad", 0, 10)

    def test_wrong_partition_name(self, tmp_path):
        source = FileTailSource(tmp_path / "a.jsonl", partition="a")
        with pytest.raises(UnknownPartitionError):
            source.poll("b", 0, 1)


# ----------------------------------------------------------------------
# Socket firehose
# ----------------------------------------------------------------------
class TestSocketFirehose:
    def test_polls_replay_identically_across_the_socket(self):
        backing = LogSource.from_rows(ROWS, num_partitions=2, seed=7)
        with FirehoseServer(backing) as server:
            remote = SocketFirehoseSource(*server.address)
            assert isinstance(remote, SourceProtocol)
            assert list(remote.partitions()) == list(backing.partitions())
            for partition in backing.partitions():
                local = backing.poll(partition, 0, 100)
                over_wire = remote.poll(partition, 0, 100)
                assert over_wire == local
                # Replayable: the same poll twice returns the same batch.
                assert remote.poll(partition, 0, 100) == over_wire

    def test_typed_errors_reraise_locally(self):
        backing = LogSource.from_rows(ROWS, num_partitions=1)
        with FirehoseServer(backing) as server:
            remote = SocketFirehoseSource(*server.address)
            with pytest.raises(StaleOffsetError):
                remote.poll("p0", len(ROWS) + 5, 10)
            with pytest.raises(UnknownPartitionError):
                remote.poll("p9", 0, 10)

    def test_unreachable_server_raises_connector_error(self):
        backing = LogSource(num_partitions=1)
        with FirehoseServer(backing) as server:
            host, port = server.address
        # The server is stopped; the port no longer answers.
        remote = SocketFirehoseSource(host, port, connect_timeout=0.5)
        with pytest.raises(ConnectorError, match="unreachable"):
            remote.partitions()


# ----------------------------------------------------------------------
# DriverCheckpoint envelope
# ----------------------------------------------------------------------
class TestDriverCheckpoint:
    def _checkpoint(self, **overrides):
        fields = dict(
            offsets={"p0": 12, "p1": 7},
            frame=b"\x01\x02\x03nested-frame",
            session="pipeline",
            tenant="ads",
            spec="unbiased_space_saving",
            backend="inline",
            rows_applied=19,
            ticks=4,
            rows_ingested=19,
            tick_cursor="p0",
        )
        fields.update(overrides)
        return DriverCheckpoint(**fields)

    def test_round_trips_through_the_envelope(self, tmp_path):
        original = self._checkpoint()
        path = tmp_path / "driver.ckpt"
        save_checkpoint(original, path)
        loaded = load_checkpoint(path, expected_type=DriverCheckpoint)
        assert loaded.offsets == original.offsets
        assert loaded.frame == original.frame
        assert (loaded.session, loaded.tenant) == ("pipeline", "ads")
        assert (loaded.spec, loaded.backend) == (
            "unbiased_space_saving",
            "inline",
        )
        assert loaded.rows_applied == 19
        assert (loaded.ticks, loaded.rows_ingested) == (4, 19)
        assert loaded.tick_cursor == "p0"

    def test_dispatches_through_the_type_registry(self):
        # load_bytes routes on the envelope's type name, so driver
        # checkpoints coexist with sketch payloads in one directory.
        loaded = load_bytes(self._checkpoint().to_bytes())
        assert isinstance(loaded, DriverCheckpoint)
        assert loaded.offsets == {"p0": 12, "p1": 7}

    def test_none_tick_cursor_round_trips(self):
        loaded = load_bytes(self._checkpoint(tick_cursor=None).to_bytes())
        assert loaded.tick_cursor is None

    def test_negative_offset_rejected(self):
        with pytest.raises(InvalidParameterError):
            self._checkpoint(offsets={"p0": -1})

    def test_missing_frame_array_rejected(self):
        with pytest.raises(SerializationError, match="missing its sketch"):
            DriverCheckpoint._from_serial_state({"offsets": {}}, {})


# ----------------------------------------------------------------------
# Soak workload generator
# ----------------------------------------------------------------------
class TestBurstySoakStream:
    def test_shape_and_determinism(self):
        make = lambda: bursty_soak_stream(  # noqa: E731
            1_000,
            hours=2.0,
            num_items=50,
            bursts_per_hour=2.0,
            burst_rows=100,
            rng=np.random.default_rng(7),
        )
        rows = make()
        assert len(rows) == 2 * 1_000 + 4 * 100
        assert rows == make()  # one seed fixes the whole workload
        timestamps = [ts for _, _, ts in rows]
        assert timestamps == sorted(timestamps)
        assert 0.0 <= timestamps[0] and timestamps[-1] < 2 * 3600.0

    def test_burst_items_are_outside_the_background_alphabet(self):
        rows = bursty_soak_stream(
            500,
            hours=1.0,
            num_items=20,
            bursts_per_hour=3.0,
            burst_rows=50,
            rng=np.random.default_rng(0),
        )
        burst_items = {item for item, _, _ in rows if item > 20}
        assert burst_items == {21, 22, 23}
        for spike in burst_items:
            count = sum(1 for item, _, _ in rows if item == spike)
            assert count == 50

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            bursty_soak_stream(-1)
        with pytest.raises(InvalidParameterError):
            bursty_soak_stream(100, hours=0.0)
        with pytest.raises(InvalidParameterError):
            bursty_soak_stream(100, bursts_per_hour=-2.0)
