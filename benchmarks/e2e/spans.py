"""Span recording around the library's public entry points, and the
self-time arithmetic over the recorded spans.

Everything here lives in the benchmark: ``install`` wraps the calls
*into* each layer from the outside (tracing inside ``src/`` is a later
change).  A span is ``(id, parent, name, request, start_ns, end_ns)``.
The traced pass keeps one request in flight, so a span's request is
simply "the request most recently read", and a span opened on a
reader-pool thread attaches to the innermost span open on the event
loop thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, Optional[int], str, int, int, int]

#: The root span of every request: head bytes available -> response drained.
ROOT = "server.request"
#: Header the load generator stamps on replayed requests; requests
#: without it (set-up calls, /metrics) are recorded under request -1.
SEQ_HEADER = "x-bench-seq"


class Tracer:
    """In-memory span recorder; ``dump`` writes JSON lines at exit."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._loop_thread = threading.get_ident()
        self._loop_stack: List[int] = []
        self._local = threading.local()
        self.request = -1

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._loop_thread:
            return self._loop_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, started: Optional[int] = None) -> Tuple[int, Optional[int], int]:
        """Open a span now, or at an earlier observed *started* (ns)."""
        stack = self._stack()
        if stack:
            parent: Optional[int] = stack[-1]
        else:
            # A pool thread's first span hangs off whatever the loop
            # thread has open (the handler awaiting the pool).
            parent = self._loop_stack[-1] if self._loop_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, time.perf_counter_ns() if started is None else started

    def end(self, name: str, token: Tuple[int, Optional[int], int]) -> None:
        finished = time.perf_counter_ns()
        span_id, parent, started = token
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        else:  # interleaved tasks closed out of order
            stack.remove(span_id)
        self.spans.append((span_id, parent, name, self.request, started, finished))

    def record(self, name: str, parent: Optional[int], started: int, finished: int) -> None:
        """Record a span whose endpoints were both observed, not bracketed."""
        self.spans.append((next(self._ids), parent, name, self.request, started, finished))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load(path: str) -> List[Span]:
    with open(path, "r", encoding="ascii") as handle:
        return [tuple(json.loads(line)) for line in handle]  # type: ignore[misc]


# -- wrapping ------------------------------------------------------------------------


def _sync(tracer: Tracer, name: str, function: Callable) -> Callable:
    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        token = tracer.begin()
        try:
            return function(*args, **kwargs)
        finally:
            tracer.end(name, token)

    return wrapper


def _async(tracer: Tracer, name: str, function: Callable) -> Callable:
    @functools.wraps(function)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        token = tracer.begin()
        try:
            return await function(*args, **kwargs)
        finally:
            tracer.end(name, token)

    return wrapper


class _ArrivalReader:
    """Delegates to a StreamReader, noting when the request head was
    available: ``read_request`` blocks on an idle keep-alive connection,
    and that wait is the client's think time, not the server's work."""

    def __init__(self, reader: Any) -> None:
        self._reader = reader
        self.arrived = 0

    async def readuntil(self, separator: bytes) -> bytes:
        head = await self._reader.readuntil(separator)
        self.arrived = time.perf_counter_ns()
        return head

    async def readexactly(self, count: int) -> bytes:
        return await self._reader.readexactly(count)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points (process-wide; call once, before serving)."""
    from repro.core.constraints import ConstraintSet
    from repro.query import tql
    from repro.query.planner import PlannedQuery, Planner
    from repro.relation.temporal_relation import TemporalRelation
    from repro.server import app, http, protocol
    from repro.storage import wal
    from repro.storage.logfile import LogFileEngine
    from repro.views.standing import ViewRegistry

    def patch(owner: Any, attribute: str, name: str, wrap: Callable = _sync) -> None:
        setattr(owner, attribute, wrap(tracer, name, getattr(owner, attribute)))

    # server.http: the request root is opened when the head arrives and
    # closed when the response has drained.
    original_read = http.read_request
    original_write = http.write_response
    roots: List[Tuple[int, Optional[int], int]] = []  # the in-flight request's root token

    async def read_request(reader: Any, **limits: Any) -> Any:
        proxy = _ArrivalReader(reader)
        request = await original_read(proxy, **limits)
        if request is None:
            return None
        finished = time.perf_counter_ns()
        tracer.request = int(request.headers.get(SEQ_HEADER, -1))
        root = tracer.begin(started=proxy.arrived)
        roots.append(root)
        tracer.record("server.http.read_request", root[0], proxy.arrived, finished)
        return request

    async def write_response(writer: Any, response: Any, keep_alive: bool) -> None:
        token = tracer.begin()
        try:
            await original_write(writer, response, keep_alive)
        finally:
            tracer.end("server.http.write", token)
            if roots:
                tracer.end(ROOT, roots.pop())

    # app.py binds both names at import, so patch them where they are called.
    app.read_request = read_request
    app.write_response = write_response

    patch(http.Response, "serialize", "server.http.serialize")
    patch(http.Request, "json", "server.protocol.decode")
    for model in ("StatementRequest", "BulkRequest"):
        cls = getattr(protocol, model)
        cls.from_json = classmethod(
            _sync(tracer, "server.protocol.decode", cls.from_json.__func__)
        )
    patch(protocol, "elements_to_json", "server.protocol.encode")
    patch(protocol, "rows_to_json", "server.protocol.encode")
    http.Response.json = classmethod(
        _sync(tracer, "server.protocol.encode", http.Response.json.__func__)
    )
    patch(app.TemporalServer, "_dispatch_timed", "server.app.handler", _async)

    patch(tql, "parse", "query.tql.parse")
    patch(tql, "compile_query", "query.tql.compile")
    patch(Planner, "plan", "query.planner.plan")
    patch(PlannedQuery, "execute", "query.operators.execute")

    for read in ("valid_at", "as_of", "valid_overlapping"):
        patch(TemporalRelation, read, "relation.read")
    patch(TemporalRelation, "append_many", "relation.append_many")
    patch(TemporalRelation, "pin_epoch", "storage.epoch.pin")
    patch(ConstraintSet, "observe_batch", "core.constraints.check")
    patch(LogFileEngine, "extend", "storage.logfile.extend")
    patch(wal, "frame_record", "storage.wal.frame")
    patch(ViewRegistry, "record_insert_many", "views.standing.apply")


# -- analysis ------------------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Self time (ns) of every span: its duration minus the part of
    that interval its direct children cover (overlapping children are
    merged, and clipped to the parent)."""
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _id, parent, _name, _request, started, finished in spans:
        if parent is not None:
            children.setdefault(parent, []).append((started, finished))
    result: Dict[int, int] = {}
    for span_id, _parent, _name, _request, started, finished in spans:
        covered = 0
        cursor = started
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, finished)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (finished - started) - covered
    return result


def by_request(spans: Iterable[Span]) -> Dict[int, Dict[str, float]]:
    """request -> {span name: summed self time in microseconds}, for
    replayed requests only (request >= 0).  ROOT's entry is the time no
    named layer accounts for; ``"wall"`` is the root's duration."""
    spans = list(spans)
    own = self_times(spans)
    table: Dict[int, Dict[str, float]] = {}
    for span_id, _parent, name, request, started, finished in spans:
        if request < 0:
            continue
        layers = table.setdefault(request, {})
        layers[name] = layers.get(name, 0.0) + own[span_id] / 1000.0
        if name == ROOT:
            layers["wall"] = (finished - started) / 1000.0
    return table


def median_layer(
    table: Dict[int, Dict[str, float]],
    name: str,
    per: Optional[Dict[int, int]] = None,
    only: Optional[Iterable[int]] = None,
) -> float:
    """Median self time of layer *name* over the requests that touched
    it (optionally divided by a per-request row count, optionally
    restricted to the requests in *only*); 0.0 when none did."""
    chosen = set(only) if only is not None else None
    values = []
    for request, layers in table.items():
        if name not in layers or (chosen is not None and request not in chosen):
            continue
        value = layers[name]
        if per is not None:
            rows = per.get(request, 0)
            if rows <= 0:
                continue
            value /= rows
        values.append(value)
    return statistics.median(values) if values else 0.0
