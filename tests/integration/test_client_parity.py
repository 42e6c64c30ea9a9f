"""Integration tests: the in-process and TCP clients are one surface.

``ServeClient`` and ``TCPServeClient`` share every method and differ only
in transport.  Covered here:

* one op script run through both clients against a bare server gives
  equal normalized results and equal error classes — an unknown
  session, ``block=False`` on a full queue, ``heavy_hitters`` with
  ``phi`` outside (0, 1], router-only ops, an empty session name;
* every typed TCP method sends the request line it always sent
  (golden lines in ``tests/data/client_request_lines.json``, written by
  ``_request_lines()`` against the last revision with two separate
  client classes; they cover tuple labels, numpy columns, ``create``
  with ``shards`` and spec params, and ``adopt`` with a frame);
* a callable ``subset_sum`` predicate over TCP is refused before any
  byte is sent.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import BackpressureError, InvalidParameterError, SessionNotFoundError
from repro.query.engine import QueryResult
from repro.serve import ServeClient, SketchServer, TCPServeClient
from repro.serve.session import ServedSession

SPEC = "unbiased_space_saving"

GOLDEN_LINES = Path(__file__).resolve().parents[1] / "data" / "client_request_lines.json"


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# One script, two transports
# ----------------------------------------------------------------------
def _plain(value):
    """A result in a form both transports must agree on exactly.

    Grouped results compare in rank order.  Session descriptions drop
    the serving counters, which count coalesced batches and queue depth
    and so depend on scheduling; the metrics snapshot keeps the
    counters a script fixes.
    """
    if isinstance(value, QueryResult):
        return list(value.groups.items())
    if isinstance(value, list):
        return [_plain(entry) for entry in value]
    if isinstance(value, dict) and "serving" in value:
        return {
            key: entry
            for key, entry in value.items()
            if key not in ("serving", "queue_depth")
        }
    if isinstance(value, dict) and "ingest" in value:
        return (value["sessions"]["live"], value["ingest"]["rows_applied"])
    return value


@contextlib.contextmanager
def _writers_paused(monkeypatch):
    """No writer task starts, so a one-batch queue stays full."""
    with monkeypatch.context() as patch:
        patch.setattr(ServedSession, "_ensure_writer", lambda self: None)
        yield


async def _script(client, monkeypatch):
    """Run the op script; returns ``[(step, result or error class)]``."""
    outcomes = []

    async def step(label, call):
        try:
            outcomes.append((label, _plain(await call)))
        except Exception as exc:  # the class is the outcome
            outcomes.append((label, type(exc)))

    await step("ping", client.ping())
    await step("create", client.create("s", SPEC, size=16, seed=0))
    await step("create-again", client.create("s", SPEC, size=16, seed=0))
    await step("create-bad-spec", client.create("x", "no_such_spec", size=8))
    await step(
        "create-windowed",
        client.create("w", SPEC, size=8, seed=1, window="sliding:2m/1m"),
    )
    await step(
        "batch",
        client.update_batch("s", ["a", ("b", 1), "c", "a"], [1.0, 2.0, 3.0, 4.0]),
    )
    await step("flush", client.flush("s"))
    await step(
        "numpy-batch",
        client.update_batch("s", np.array([1, 2, 3, 1]), np.array([1.0, 0.5, 2.0, 1.0])),
    )
    await step("flush-numpy", client.flush("s"))
    await step("update", client.update("s", ("b", 1), 2.0))
    await step("update-windowed", client.update("w", "x", 1.0, 30.0))
    await step(
        "batch-windowed", client.update_batch("w", ["x", "y"], timestamps=[10.0, 20.0])
    )
    await step("flush-s", client.flush("s"))
    await step("flush-w", client.flush("w"))
    await step("estimate", client.estimate("s", ("b", 1)))
    await step("estimate-missing", client.estimate("s", "zz"))
    await step("estimates", client.estimates("s"))
    await step("estimates-windowed", client.estimates("w"))
    await step("subset-sum", client.subset_sum("s", ["a", ("b", 1), 1, "zz"]))
    await step("total", client.total("s"))
    await step("heavy-hitters", client.heavy_hitters("s", 0.2))
    await step("heavy-hitters-zero", client.heavy_hitters("s", 0.0))
    await step("heavy-hitters-above-one", client.heavy_hitters("s", 1.5))
    await step("top-k", client.top_k("s", 3))
    await step("info", client.info("s"))
    await step("info-empty-name", client.info(""))
    await step("list", client.list_sessions())
    await step("list-other-tenant", client.list_sessions(tenant="other"))
    await step("unknown-session", client.total("ghost"))
    await step("unknown-session-ingest", client.update_batch("ghost", ["a"]))
    await step("checkpoint-without-directory", client.checkpoint())
    await step("export", client.export("s"))
    export = outcomes[-1][1]
    await step(
        "adopt",
        client.adopt(
            "copy", export["frame"], spec=SPEC, rows_applied=export["rows_applied"]
        ),
    )
    await step("adopt-taken", client.adopt("copy", export["frame"]))
    await step("adopted-estimates", client.estimates("copy"))
    await step("adopted-flush", client.flush("copy"))
    await step("create-small-queue", client.create("q", SPEC, size=8, queue_maxsize=1))
    with _writers_paused(monkeypatch):
        await step("offer", client.update_batch("q", ["a"], block=False))
        await step("offer-full", client.update_batch("q", ["b"], block=False))
    await step("blocking-after-full", client.update_batch("q", ["c"]))
    await step("flush-q", client.flush("q"))
    await step("estimates-q", client.estimates("q"))
    await step("cluster-info", client.cluster_info())
    await step("join", client.join("m9", "127.0.0.1", 1))
    await step("decommission", client.decommission("m9"))
    await step("drop", client.drop("copy"))
    await step("dropped", client.info("copy"))
    await step("metrics", client.metrics())
    return outcomes


async def _in_process(monkeypatch):
    async with SketchServer() as server:
        return await _script(ServeClient(server), monkeypatch)


async def _over_tcp(monkeypatch):
    server = SketchServer()
    host, port = await server.start_tcp("127.0.0.1", 0)
    client = await TCPServeClient.connect(host, port)
    try:
        return await _script(client, monkeypatch)
    finally:
        await client.close()
        await server.stop()


def test_both_transports_give_equal_results_and_errors(monkeypatch):
    in_process = run(_in_process(monkeypatch))
    over_tcp = run(_over_tcp(monkeypatch))
    assert [label for label, _ in in_process] == [label for label, _ in over_tcp]
    for (label, local), (_, remote) in zip(in_process, over_tcp):
        assert local == remote, label
    outcomes = dict(in_process)
    # The script reaches the cases it is meant to pin.
    assert outcomes["unknown-session"] is SessionNotFoundError
    assert outcomes["offer"] == 1
    assert outcomes["offer-full"] is BackpressureError
    for step in (
        "heavy-hitters-zero", "heavy-hitters-above-one", "info-empty-name",
        "cluster-info", "join", "decommission",
    ):
        assert outcomes[step] is InvalidParameterError, step
    assert outcomes["flush-q"] == 2
    assert outcomes["total"].estimate == 16.5
    assert outcomes["export"]["rows_applied"] == 9


# ----------------------------------------------------------------------
# Golden request lines
# ----------------------------------------------------------------------
#: ``(method, args, kwargs)`` for every typed TCP method, fixed arguments.
REQUEST_SCRIPT = [
    ("ping", (), {}),
    (
        "create",
        ("s", SPEC),
        {
            "size": 16,
            "tenant": "t",
            "ttl": 5.0,
            "queue_maxsize": 4,
            "backend": "sharded",
            "seed": 3,
            "num_shards": 2,
            "shards": 4,
            "capacity_hint": 0.5,
        },
    ),
    ("create", ("w", SPEC), {"size": 8, "window": "sliding:2m/1m"}),
    ("drop", ("s",), {"tenant": "t"}),
    ("list_sessions", (), {}),
    ("list_sessions", (), {"tenant": "t"}),
    ("info", ("s",), {}),
    ("update", ("s", ("a", 1)), {}),
    ("update", ("s", ("a", (2, "b")), 2.5, 10.0), {"tenant": "t"}),
    ("update", ("s", np.int64(7), np.float64(0.5)), {}),
    ("update_batch", ("s", ["a", ("b", 1), 3, None, 2.5, True]), {}),
    (
        "update_batch",
        (
            "s",
            np.array([3, -1, 2**40], dtype=np.int64),
            np.array([1.0, 2.0, 0.5]),
            np.array([1, 2, 3], dtype=np.int64),
        ),
        {"block": False},
    ),
    (
        "update_batch",
        ("s", np.array(["x", ("y", 2)], dtype=object), [1, 2]),
        {"tenant": "t"},
    ),
    ("flush", ("s",), {}),
    ("estimate", ("s", ("a", 1)), {}),
    ("estimates", ("s",), {}),
    ("subset_sum", ("s", [("a", 1), "b", 3]), {}),
    ("subset_sum", ("s", np.array([1, 2, 3])), {"tenant": "t"}),
    ("total", ("s",), {}),
    ("heavy_hitters", ("s", 0.25), {}),
    ("top_k", ("s", 3), {}),
    ("checkpoint", (), {}),
    ("checkpoint", (), {"force": True}),
    ("export", ("s",), {}),
    (
        "adopt",
        ("s2", b"\x00\x01frame\xff"),
        {
            "spec": SPEC,
            "backend": "inline",
            "rows_applied": 7,
            "ttl": 3.0,
            "queue_maxsize": 2,
        },
    ),
    ("adopt", ("s3", bytearray(b"frame")), {"tenant": "t"}),
    ("metrics", (), {}),
    ("metrics", (), {"detail": True}),
    ("cluster_info", (), {}),
    ("join", ("m9", "127.0.0.1", 9000), {}),
    ("decommission", ("m9",), {}),
]

#: One answer every typed method accepts.
_ANSWER = (
    b'{"id":0,"ok":true,"result":{"info":{},"sessions":0,"enqueued":0,'
    b'"rows_applied":0,"estimate":0.0,"variance":0.0,"pairs":[],"frame":"",'
    b'"metrics":{},"cluster":{}}}\n'
)


class _RecordingWriter:
    """Stands in for the client's stream writer and keeps every line."""

    def __init__(self):
        self.lines = []

    def write(self, data):
        self.lines.append(bytes(data))

    async def drain(self):
        pass


def _offline_client(answers=0):
    reader = asyncio.StreamReader()
    reader.feed_data(_ANSWER * answers)
    writer = _RecordingWriter()
    return TCPServeClient(reader, writer), writer


async def _request_lines():
    """The line each ``REQUEST_SCRIPT`` call sends, in order."""
    client, writer = _offline_client(len(REQUEST_SCRIPT))
    for method, args, kwargs in REQUEST_SCRIPT:
        await getattr(client, method)(*args, **kwargs)
    return [line.decode("utf-8") for line in writer.lines]


def test_typed_methods_send_the_golden_request_lines():
    golden = json.loads(GOLDEN_LINES.read_text(encoding="utf-8"))
    lines = run(_request_lines())
    assert len(golden) == len(lines) == len(REQUEST_SCRIPT)
    for (method, _, _), expected, line in zip(REQUEST_SCRIPT, golden, lines):
        assert line == expected, method


def test_callable_predicate_is_refused_before_any_send():
    async def scenario():
        client, writer = _offline_client(1)
        with pytest.raises(InvalidParameterError, match="callable"):
            await client.subset_sum("s", lambda label: label % 10 == 3)
        return writer.lines

    assert run(scenario()) == []
