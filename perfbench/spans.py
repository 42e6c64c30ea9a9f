"""Outside-in span recorder for the benchmark's traced run.

The traced run wraps public functions of each layer at the name their
callers look up (``scatter_batch`` in :mod:`repro.cluster.router`, not in
:mod:`repro.cluster.shard_session`), records one span per call and
restores every original afterwards.  Nothing inside ``src/`` changes.

Time is attributed by *frames* on one stack.  The event loop runs one
thing at a time, and every piece of code runs either inside a task step
(from a resume to the next suspension) or in a loop callback.  A frame
is pushed for each task step, for each step of a wrapped coroutine and
for each wrapped plain call, so frames nest perfectly; a frame's self
time is its duration minus the time of the frames nested in it.  Task
steps are attributed to the layer that owns the task (a connection
handler of the router or of a member, a serve writer, the load
generator), wrapped calls to their own layer.  Self times plus time
blocked in ``select`` (loop idle) account for the traced wall time;
what is left — loop callbacks such as socket reads — is reported as
unattributed.

Three kinds of wrapper:

* ``SYNC`` — a plain call; one span per call.
* ``ASYNC`` — a coroutine; one span per call, its duration includes
  waiting (it feeds latency and wait metrics), and its steps are frames.
* ``COUNT`` — a per-row function (label encode/decode, the shard hash).
  Every call is counted; one in :data:`SAMPLE` is timed and its time,
  scaled up, is moved from the enclosing frame to the layer, so the
  per-row cost stays cheap to trace.

Spans carry ``perf_counter_ns`` start and end, the parent span and a
request id, inherited from the load-generator operation that caused
them.  Parents are found on the frame stack, so they stay within one
task: server-side tasks start their own root spans, because causality
across tasks and sockets is not visible from outside the program.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import itertools
import json
import selectors
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_now_ns = time.perf_counter_ns

SYNC, ASYNC, COUNT = "sync", "async", "count"

#: Every layer time can be attributed to.
LAYERS = (
    "core", "serve", "query", "protocol", "router", "windows", "connectors", "io",
    "loadgen",
)

#: One in this many calls of a ``COUNT`` wrapper is timed.
SAMPLE = 16

#: (module, attribute path, span name, layer, kind) for every wrapper.
PATCHES: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("repro.core.unbiased_space_saving", "UnbiasedSpaceSaving.update_batch",
     "core.update_batch", "core", SYNC),
    ("repro.core.unbiased_space_saving", "collapse_batch",
     "core.collapse", "core", SYNC),
    ("repro.core.unbiased_space_saving", "collapse_batch_arrays",
     "core.collapse", "core", SYNC),
    ("repro.api.session", "StreamSession.update_batch",
     "serve.apply", "serve", SYNC),
    ("repro.serve.client", "ServeClient.update_batch",
     "serve.enqueue", "serve", ASYNC),
    ("repro.serve.client", "ServeClient.flush", "serve.flush", "serve", ASYNC),
    # Member-side (or in-process) reads.  A cluster top_k is answered by
    # gathering every shard's ``estimates``, so those count as top_k work.
    ("repro.serve.session", "ServedSession.subset_sum",
     "query.subset_sum", "query", SYNC),
    ("repro.serve.session", "ServedSession.top_k", "query.top_k", "query", SYNC),
    ("repro.serve.session", "ServedSession.estimates",
     "query.top_k", "query", SYNC),
    ("repro.serve.session", "ServedSession.total", "query.total", "query", SYNC),
    ("repro.serve.session", "ServedSession.estimate",
     "query.estimate", "query", SYNC),
    # The TCP client is the caller's half of the wire protocol.
    *(("repro.serve.client", f"TCPServeClient.{op}", f"client.{op}", "protocol", ASYNC)
      for op in ("update_batch", "flush", "estimate", "subset_sum", "total", "top_k")),
    ("repro.serve.protocol", "encode_line", "protocol.encode", "protocol", SYNC),
    ("repro.serve.protocol", "decode_line", "protocol.decode", "protocol", SYNC),
    ("repro.serve.protocol", "encode_pairs", "protocol.encode", "protocol", SYNC),
    ("repro.serve.protocol", "decode_pairs", "protocol.decode", "protocol", SYNC),
    ("repro.serve.protocol", "encode_item",
     "protocol.encode_item", "protocol", COUNT),
    ("repro.serve.protocol", "decode_item",
     "protocol.decode_item", "protocol", COUNT),
    ("repro.cluster.router", "scatter_batch", "router.scatter", "router", SYNC),
    ("repro.cluster.router", "merge_shard_states", "router.gather", "router", SYNC),
    ("repro.cluster.router", "ranked_pairs", "router.gather", "router", SYNC),
    ("repro.cluster.shard_session", "stable_shard", "router.hash", "router", COUNT),
    ("repro.cluster.client", "MemberConnection.call",
     "router.forward", "router", ASYNC),
    ("repro.windows.windowed", "SlidingWindowSketch.update_batch",
     "windows.update_batch", "windows", SYNC),
    ("repro.connectors.log", "LogSource.poll", "connectors.poll", "connectors", SYNC),
    ("repro.connectors.driver", "PipelineDriver.tick",
     "connectors.tick", "connectors", ASYNC),
    ("repro.connectors.driver", "PipelineDriver.checkpoint",
     "io.checkpoint", "io", ASYNC),
    ("repro.connectors.driver", "save_checkpoint", "io.save", "io", SYNC),
    ("repro.io.serializable", "SerializableSketch.to_bytes",
     "io.to_bytes", "io", SYNC),
)

#: Task owners by the source directory of the task's coroutine; tasks of
#: any other code (asyncio's own) stay unattributed.
_TASK_LAYERS = (
    ("/repro/cluster/", "router"),
    ("/repro/serve/", "serve"),
    ("/repro/connectors/", "connectors"),
    ("/perfbench/", "loadgen"),
)


class Span:
    __slots__ = ("span_id", "name", "start", "end", "parent", "request")

    def __init__(self, span_id, name, start, parent, request) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end: Optional[int] = None
        self.parent = parent
        self.request = request


class Tracer:
    """In-memory span recorder; one per traced run.

    Wrappers do nothing but call through while :attr:`active` is false,
    so set-up, checks and teardown stay out of the trace; the workload
    opens a window around each measured phase.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Span] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.self_by_name: Dict[str, int] = defaultdict(int)
        self.busy_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Free-form counters fed by the wrappers' observers (rows, bins...).
        self.counts: Dict[str, float] = defaultdict(float)
        self.idle_ns = 0
        self.wall_ns = 0
        self._window_start = 0
        self._window_end = 0
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        #: Open frames, innermost last: ``[span or None, nested_ns]``.
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []
        #: Per-row call counters of the ``COUNT`` wrappers, by span name.
        self._seen: Dict[str, List[int]] = {}

    # -- windows and the loop ------------------------------------------
    def open_window(self) -> None:
        self._window_start = _now_ns()
        self.active = True

    def close_window(self) -> None:
        self.active = False
        self._window_end = _now_ns()
        self.wall_ns += self._window_end - self._window_start

    def loop_factory(self) -> Callable[[], asyncio.AbstractEventLoop]:
        """An event loop that books time blocked in ``select`` and steps tasks."""
        tracer = self

        class TimedSelector(selectors.DefaultSelector):
            def select(self, timeout=None):
                start = _now_ns()
                try:
                    return super().select(timeout)
                finally:
                    if tracer.active:
                        tracer.idle_ns += _now_ns() - start

        def task_factory(loop, coro, context=None):
            layer = _task_layer(coro)
            if layer is not None:
                coro = _drive(_Stepped(tracer, coro, None, layer, None))
            return asyncio.Task(coro, loop=loop, context=context)

        def make_loop() -> asyncio.AbstractEventLoop:
            loop = asyncio.SelectorEventLoop(TimedSelector())
            loop.set_task_factory(task_factory)
            return loop

        return make_loop

    # -- frames and spans ----------------------------------------------
    def _open(self, name: str, request: Optional[int] = None) -> Span:
        parent = self._stack[-1][0] if self._stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            next(self._ids), name, _now_ns(),
            None if parent is None else parent.span_id, request,
        )
        self.spans.append(span)
        return span

    def _leave(self, frame: list, start: int, layer: str, name: Optional[str]) -> int:
        """Pop ``frame`` and book its self time; returns its duration.

        A frame still open when the window closed is booked up to the close.
        """
        duration = (_now_ns() if self.active else self._window_end) - start
        self._stack.pop()
        own = duration - frame[1]
        self.self_ns[layer] += own
        if name is not None:
            self.self_by_name[name] += own
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    async def request(self, name: str, awaitable):
        """Run one load-generator operation as a root span with a new id."""
        if not self.active:
            return await awaitable
        span = self._open(name, request=next(self._requests))
        try:
            return await _Stepped(self, awaitable, span, "loadgen", None)
        finally:
            span.end = _now_ns()

    def _sync(self, original, name: str, layer: str, observe):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span = tracer._open(name)
            frame = [span, 0]
            tracer._stack.append(frame)
            start = span.start
            try:
                result = original(*args, **kwargs)
            finally:
                duration = tracer._leave(frame, start, layer, name)
                span.end = start + duration
                tracer.busy_ns[name] += duration
                tracer.calls[name] += 1
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def _async(self, original, name: str, layer: str, observe):
        tracer = self

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            if not tracer.active:
                return await original(*args, **kwargs)
            span = tracer._open(name)
            failed = True
            try:
                result = await _Stepped(tracer, original(*args, **kwargs), span, layer, name)
                failed = False
            finally:
                span.end = _now_ns()
                tracer.busy_ns[name] += span.end - span.start
                tracer.calls[name] += 1
                if failed:
                    tracer.counts[name + ".failed"] += 1
            return result

        return wrapper

    def _count(self, original, name: str, layer: str, observe):
        tracer = self
        seen = self._seen.setdefault(name, [0])

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            seen[0] += 1
            if seen[0] % SAMPLE:
                return original(*args, **kwargs)
            start = _now_ns()
            try:
                return original(*args, **kwargs)
            finally:
                scaled = (_now_ns() - start) * SAMPLE
                tracer.self_ns[layer] += scaled
                tracer.busy_ns[name] += scaled
                if tracer._stack:
                    tracer._stack[-1][1] += scaled

        return wrapper

    # -- install / remove ----------------------------------------------
    def install(self) -> None:
        """Wrap every entry of :data:`PATCHES`; :meth:`remove` undoes it."""
        makers = {SYNC: self._sync, ASYNC: self._async, COUNT: self._count}
        for module_name, path, name, layer, kind in PATCHES:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            wrapper = makers[kind](original, name, layer, OBSERVERS.get(path))
            setattr(owner, attr, wrapper)
            self._undo.append(_restorer(owner, attr, original, own))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()
        for name, seen in self._seen.items():
            self.calls[name] += seen[0]
        self._seen.clear()

    # -- output --------------------------------------------------------
    def children_of(self, parent_name: str, child_name: str) -> List[Span]:
        """Spans named ``child_name`` whose parent span is ``parent_name``."""
        by_id = {span.span_id: span for span in self.spans}
        return [
            span
            for span in self.spans
            if span.name == child_name
            and span.parent is not None
            and by_id[span.parent].name == parent_name
        ]

    def write(self, path: Path) -> None:
        """All spans as JSON lines: ``[id, name, start_ns, end_ns, parent, request]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps([
                    span.span_id, span.name, span.start, span.end,
                    span.parent, span.request,
                ]))
                out.write("\n")


class _Stepped:
    """Await a coroutine, pushing a frame for each of its steps."""

    __slots__ = ("_tracer", "_coro", "_span", "_layer", "_name")

    def __init__(self, tracer: Tracer, coro, span, layer: str, name) -> None:
        self._tracer = tracer
        self._coro = coro
        self._span = span
        self._layer = layer
        self._name = name

    def __await__(self):
        tracer, coro = self._tracer, self._coro
        value, error = None, None
        while True:
            counted = tracer.active
            if counted:
                frame = [self._span, 0]
                tracer._stack.append(frame)
                start = _now_ns()
            try:
                yielded = coro.send(value) if error is None else coro.throw(error)
            except StopIteration as done:
                return done.value
            finally:
                if counted:
                    tracer._leave(frame, start, self._layer, self._name)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # thrown in by the task: pass it on
                value, error = None, exc


async def _drive(stepped: _Stepped):
    return await stepped


def _task_layer(coro) -> Optional[str]:
    """The layer that owns a task, from where its coroutine is defined."""
    code = getattr(coro, "cr_code", None)
    filename = "" if code is None else code.co_filename.replace("\\", "/")
    if filename.endswith("/repro/serve/endpoint.py"):
        owner = coro.cr_frame.f_locals.get("self")
        return "router" if type(owner).__name__ == "ClusterRouter" else "serve"
    for marker, layer in _TASK_LAYERS:
        if marker in filename:
            return layer
    return None


def _restorer(owner, attr: str, original, own: bool) -> Callable[[], None]:
    if own:
        return lambda: setattr(owner, attr, original)
    return lambda: delattr(owner, attr)


# -- observers: counters measured where the work happens ---------------
def _rows_in(tracer: Tracer, args, result) -> None:
    tracer.counts["core.rows"] += len(args[1])


def _collapsed(tracer: Tracer, args, result) -> None:
    unique, _, row_count, _ = result
    tracer.counts["core.collapse.rows"] += row_count
    tracer.counts["core.collapse.distinct"] += len(unique)


def _line_bytes(tracer: Tracer, args, result) -> None:
    tracer.counts["protocol.bytes"] += len(result)


def _bins(tracer: Tracer, args, result) -> None:
    tracer.counts["router.gather.bins"] += sum(len(bins) for bins, _ in args[0])


def _file_bytes(tracer: Tracer, args, result) -> None:
    tracer.counts["io.checkpoint.bytes"] += Path(result).stat().st_size


#: Attribute path of a wrapped function -> its observer.
OBSERVERS: Dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "UnbiasedSpaceSaving.update_batch": _rows_in,
    "collapse_batch": _collapsed,
    "collapse_batch_arrays": _collapsed,
    "encode_line": _line_bytes,
    "merge_shard_states": _bins,
    "save_checkpoint": _file_bytes,
}
