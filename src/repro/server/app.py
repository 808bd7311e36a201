"""The temporal database server: single writer, pinned readers, one thread.

Concurrency model
-----------------

All mutations (append / bulk / delete) funnel through one bounded
``asyncio.Queue`` drained by a dedicated **writer task**, which applies
them one at a time through the relation's normal write path (WAL
validate-write-fsync-apply for log-backed engines), then refreshes the
relation's published
:class:`~repro.storage.epoch.EpochPin`.  Admission control is the
queue bound itself: a full queue answers ``429 Too Many Requests``
with ``Retry-After`` instead of buffering without limit.

Every request runs on the event loop's thread.  A route read (current,
timeslice, overlap, rollback) grabs the relation's current pin (an
immutable snapshot handle) and evaluates the query inline as a scan
spec with ``as_of`` set to that pin.  The writer task applies a write
and publishes its pin with no ``await`` in between, so an inline read
never sees a half-applied write and needs no lock; the pin names the
epoch in the body and keys the response cache.  No read goes to a
thread: under the interpreter lock a pool runs no Python in parallel,
and its hand-off costs more than a narrowed read (EXPERIMENTS.md E28).

TQL execution, EXPLAIN and standing-view reads issue *live* specs the
same way, between two commits, so TQL chooses exactly the strategies
the embedded library would: the differential suite holds the server to
that.

Graceful shutdown stops accepting connections, drains the writer
queue, lets in-flight requests finish, and fsyncs every WAL before
returning.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.core.constraints import ConstraintViolation
from repro.database import TemporalDatabase
from repro.observability import metrics as _metrics
from repro.query import cache as _qcache
from repro.query.tql import TQLError
from repro.query import tql as _tql
from repro.relation.element import Element
from repro.relation.errors import ElementNotFound, KeyViolation, SchemaError
from repro.relation.temporal_relation import TemporalRelation
from repro.server import protocol
from repro.server.http import (
    HttpProtocolError,
    Request,
    Response,
    read_request,
    write_response,
)
from repro.server.protocol import ProtocolError
from repro.storage.epoch import EpochPin
from repro.storage.logfile import SHARDS_REMOVED, SQLITE_REMOVED, LogFileEngine
from repro.storage.memory import MemoryEngine


@dataclass
class ServerConfig:
    """Knobs for one :class:`TemporalServer`."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``server.port``).
    port: int = 0
    #: Writer-queue bound: admission control for ingest.
    queue_limit: int = 64
    #: Enable the process MetricsRegistry on startup.
    metrics: bool = True
    max_body_bytes: int = 16 * 1024 * 1024
    #: How long shutdown waits for queue drain / in-flight requests.
    drain_timeout: float = 10.0
    #: Directory for engines created via ``POST /relations`` with
    #: ``"engine": "logfile"``; None restricts creation to memory
    #: engines.
    data_dir: Optional[str] = None
    #: Close relation engines on shutdown (the CLI wants this; tests
    #: that own their engines usually do not).
    close_engines: bool = False
    #: Root directory for compressed cold segment files (``repro serve
    #: --tier-dir``): each created relation tiers into ``<name>.tier``
    #: under it.  None keeps created relations in memory.
    tier_dir: Optional[str] = None
    #: Response-cache entry budget (``repro serve --cache-entries``).
    #: Keys are (endpoint, params, pinned epoch), so a cached body is
    #: exactly what re-evaluating under that pin would produce; writes
    #: advance the pin and stale entries age out by LRU.  0 disables.
    cache_entries: int = 256
    #: Response-cache byte budget (``repro serve --cache-bytes``).
    cache_bytes: int = 16 * 1024 * 1024


@dataclass
class _WriteOp:
    """One queued mutation and the future its submitter awaits."""

    kind: str  # "append" | "bulk" | "delete"
    relation_name: str
    payload: Any
    future: "asyncio.Future[Tuple[Optional[List[Element]], Optional[BaseException]]]"
    rows: int = 1


class TemporalServer:
    """An asyncio HTTP/JSON front door over a :class:`TemporalDatabase`."""

    def __init__(
        self, config: Optional[ServerConfig] = None, database: Optional[TemporalDatabase] = None
    ) -> None:
        self.config = config or ServerConfig()
        self.database = database or TemporalDatabase()
        self._pins: Dict[str, EpochPin] = {}
        self._queue: "asyncio.Queue[_WriteOp]" = asyncio.Queue(maxsize=self.config.queue_limit)
        self._writer_gate = asyncio.Event()
        self._writer_gate.set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._writer_task: Optional["asyncio.Task[None]"] = None
        self._connections: set = set()
        self._shutting_down = False
        #: Epoch-keyed response cache: canonical JSON bodies keyed on
        #: (relation, endpoint, params, pin).  Entries for superseded
        #: pins simply stop being asked for; LRU evicts them.
        self._response_cache: Optional[_qcache.LRUCache] = None
        if self.config.cache_entries > 0:
            self._response_cache = _qcache.LRUCache(
                self.config.cache_entries,
                max_bytes=self.config.cache_bytes,
                layer="server",
            )
        #: Per-relation wakeups for long-polling delta subscribers.
        self._delta_conds: Dict[str, asyncio.Condition] = {}
        for name in self.database.names():
            relation = self.database.relation(name)
            self._pins[name] = relation.pin_epoch()
            self._track_deltas(relation)

    @staticmethod
    def _track_deltas(relation: TemporalRelation) -> None:
        """Instantiate the relation's view registry so every server-side
        write is journaled from the first commit.

        After a restart over a recovered WAL the fresh registry's
        journal floor sits at the recovered pin (the clock was reserved
        past every adopted stamp), so a subscriber reconnecting with a
        pre-crash cursor is never replayed already-delivered deltas: it
        either resumes exactly at the floor or is told to resync
        against a snapshot.
        """
        relation.views  # noqa: B018 - lazy property, touched for effect

    # -- lifecycle ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral port 0 after start)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._metrics_were_enabled = _metrics.enabled()
        if self.config.metrics:
            _metrics.enable()
        self._writer_task = asyncio.get_running_loop().create_task(self._writer_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )

    async def serve_forever(self) -> None:
        """Serve until cancelled (starting first if needed); shuts down
        gracefully."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, fsync, release."""
        self._shutting_down = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Drain the writer queue (release any test-held pause first: a
        # paused writer must not turn shutdown into a deadlock), and
        # wake every long-polling subscriber so it answers and leaves.
        self._writer_gate.set()
        for name in list(self._delta_conds):
            await self._notify_subscribers(name)
        try:
            await asyncio.wait_for(self._queue.join(), timeout=self.config.drain_timeout)
        except asyncio.TimeoutError:
            pass
        if self._writer_task is not None:
            self._writer_task.cancel()
            await asyncio.gather(self._writer_task, return_exceptions=True)
            self._writer_task = None
        # Let in-flight requests finish, then force-close stragglers
        # (idle keep-alive connections block in read_request forever).
        if self._connections:
            done, pending = await asyncio.wait(
                list(self._connections), timeout=self.config.drain_timeout
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        # Final durability barrier: every WAL is fsynced before the
        # server lets go of the engines.
        for name in self.database.names():
            engine = self.database.relation(name).engine
            engine.sync()
            if self.config.close_engines:
                engine.close()
        # Restore the process-global instrumentation state the server
        # found (test isolation: one server must not leave metrics on).
        if self.config.metrics and not getattr(self, "_metrics_were_enabled", True):
            _metrics.disable()

    # -- test/bench hooks -------------------------------------------------------------

    def pause_writer(self) -> None:
        """Stall the writer after its next dequeue (backpressure tests)."""
        self._writer_gate.clear()

    def resume_writer(self) -> None:
        self._writer_gate.set()

    def attach_relation(self, relation: TemporalRelation) -> None:
        """Register a pre-built relation and publish its first pin.

        Its current hot rows are encoded here (~0.35 s for 100k rows), so
        that its first readers do not pay for it (a 480-row range body:
        ~1.7 ms to encode, ~0.2 ms to join)."""
        self.database.attach(relation)
        store = relation.engine.store
        hot = store.elements_range(store.cold_base, len(store))
        protocol.fill_fragments(row for row in hot if row.is_current)
        self._pins[relation.schema.name] = relation.pin_epoch()
        self._track_deltas(relation)

    # -- the writer task --------------------------------------------------------------

    async def _writer_loop(self) -> None:
        while True:
            op = await self._queue.get()
            try:
                await self._run_write(op)
            finally:
                del op  # answered: its payload is not kept until the next write
                self._queue.task_done()
                self._set_queue_gauge()

    async def _run_write(self, op: _WriteOp) -> None:
        await self._writer_gate.wait()
        try:
            elements = self._apply_write(op)
        except Exception as error:  # noqa: BLE001 - mapped to HTTP status
            self._writer_metrics(op, error=True)
            # Without its traceback: the failed write's frames hold `op`,
            # whose future would hold them back (a reference cycle).
            outcome: Tuple[Optional[List[Element]], Optional[BaseException]] = (
                None,
                error.with_traceback(None),
            )
        else:
            relation = self.database.relation(op.relation_name)
            self._pins[op.relation_name] = relation.pin_epoch()
            self._writer_metrics(op, error=False)
            outcome = (elements, None)
            await self._notify_subscribers(op.relation_name)
        if not op.future.done():
            op.future.set_result(outcome)

    def _apply_write(self, op: _WriteOp) -> List[Element]:
        relation = self.database.relation(op.relation_name)
        if op.kind == "append":
            request: protocol.AppendRequest = op.payload
            return [relation.insert(request.object_surrogate, request.vt, request.attributes)]
        if op.kind == "bulk":
            bulk: protocol.BulkRequest = op.payload
            return relation.append_many(bulk.rows)
        if op.kind == "delete":
            delete: protocol.DeleteRequest = op.payload
            return [relation.delete(delete.element_surrogate)]
        raise ValueError(f"unknown write kind {op.kind!r}")

    def _writer_metrics(self, op: _WriteOp, error: bool) -> None:
        if not _metrics.enabled():
            return
        registry = _metrics.registry()
        if error:
            registry.counter("server.writer.errors").inc()
        else:
            registry.counter("server.writer.commits").inc()
            registry.counter("server.writer.rows_committed").inc(op.rows)

    def _set_queue_gauge(self) -> None:
        if _metrics.enabled():
            _metrics.registry().gauge("server.writer_queue_depth").set(self._queue.qsize())

    async def _submit_write(self, op: _WriteOp, wait: bool) -> Response:
        if self._shutting_down:
            return Response.error(503, "server is shutting down")
        try:
            self._queue.put_nowait(op)
        except asyncio.QueueFull:
            if _metrics.enabled():
                _metrics.registry().counter("server.backpressure.rejected").inc()
            return Response.error(
                429,
                f"writer queue is full ({self.config.queue_limit} pending)",
                headers={"Retry-After": "1"},
            )
        self._set_queue_gauge()
        if not wait:
            return Response.json({"queued": True, "rows": op.rows}, status=202)
        elements, error = await op.future
        if error is not None:
            return self._error_response(error)
        assert elements is not None
        envelope = {"count": len(elements), "epoch": self._pins[op.relation_name].to_json()}
        # Joined from the fragments a durable engine framed the rows with.
        body = protocol.element_rows_body(envelope, elements, key="elements", fill=False)
        return Response(status=200, body=body)

    # -- delta subscriptions ----------------------------------------------------------

    def _delta_condition(self, name: str) -> asyncio.Condition:
        condition = self._delta_conds.get(name)
        if condition is None:
            condition = self._delta_conds[name] = asyncio.Condition()
        return condition

    async def _notify_subscribers(self, name: str) -> None:
        condition = self._delta_conds.get(name)
        if condition is not None:
            async with condition:
                condition.notify_all()

    # -- connection handling ----------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        if _metrics.enabled():
            _metrics.registry().gauge("server.connections.open").add(1)
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.config.max_body_bytes
                    )
                except HttpProtocolError as error:
                    await write_response(
                        writer, Response.error(error.status, error.message), keep_alive=False
                    )
                    break
                if request is None:
                    break
                response = await self._dispatch_timed(request)
                keep_alive = request.keep_alive and not self._shutting_down
                await write_response(writer, response, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            # A torn connection (or forced shutdown) ends this handler
            # only; queued writes commit regardless.
            pass
        finally:
            if _metrics.enabled():
                _metrics.registry().gauge("server.connections.open").add(-1)
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError, asyncio.CancelledError):
                # Swallowing CancelledError here is deliberate: the
                # handler is ending anyway, and ending it "completed"
                # keeps asyncio's stream teardown callback quiet.
                pass

    async def _dispatch_timed(self, request: Request) -> Response:
        route, handler = self._route(request)
        if not _metrics.enabled():
            return await self._guarded(handler, request)
        registry = _metrics.registry()
        registry.counter("server.requests").inc()
        in_flight = registry.gauge("server.requests.in_flight")
        in_flight.add(1)
        try:
            with registry.timer(f"server.latency.{route}"):
                response = await self._guarded(handler, request)
        finally:
            in_flight.add(-1)
        registry.counter(f"server.responses.{response.status // 100}xx").inc()
        return response

    async def _guarded(
        self, handler: Callable[[Request], Awaitable[Response]], request: Request
    ) -> Response:
        try:
            return await handler(request)
        except HttpProtocolError as error:
            return Response.error(error.status, error.message)
        except Exception as error:  # noqa: BLE001 - the server must answer
            return self._error_response(error)

    def _error_response(self, error: BaseException) -> Response:
        if isinstance(error, ElementNotFound):
            return Response.error(404, str(error))
        if isinstance(error, (ConstraintViolation, KeyViolation)):
            return Response.error(409, str(error))
        if isinstance(error, (ProtocolError, TQLError, SchemaError, ValueError, TypeError)):
            return Response.error(400, str(error))
        return Response.error(500, f"{type(error).__name__}: {error}")

    # -- routing ----------------------------------------------------------------------

    def _route(
        self, request: Request
    ) -> Tuple[str, Callable[[Request], Awaitable[Response]]]:
        parts = [part for part in request.path.split("/") if part]
        method = request.method
        if parts == ["health"] and method == "GET":
            return "health", self._handle_health
        if parts == ["metrics"] and method == "GET":
            return "metrics", self._handle_metrics
        if parts == ["query"] and method == "POST":
            return "query", self._handle_query
        if parts == ["relations"]:
            if method == "GET":
                return "relations", self._handle_list_relations
            if method == "POST":
                return "create", self._handle_create_relation
        if len(parts) == 2 and parts[0] == "relations" and method == "GET":
            return "relation", self._with_name(parts[1], self._handle_relation_stats)
        if len(parts) == 3 and parts[0] == "relations":
            name, verb = parts[1], parts[2]
            table = {
                ("POST", "append"): ("append", self._handle_append),
                ("POST", "bulk"): ("bulk", self._handle_bulk),
                ("POST", "delete"): ("delete", self._handle_delete),
                ("POST", "explain"): ("explain", self._handle_explain),
                ("POST", "views"): ("register_view", self._handle_register_view),
                ("GET", "current"): ("current", self._handle_current),
                ("GET", "timeslice"): ("timeslice", self._handle_timeslice),
                ("GET", "overlap"): ("overlap", self._handle_overlap),
                ("GET", "rollback"): ("rollback", self._handle_rollback),
                ("GET", "views"): ("views", self._handle_list_views),
                ("GET", "subscribe"): ("subscribe", self._handle_subscribe),
            }
            entry = table.get((method, verb))
            if entry is not None:
                label, handler = entry
                return label, self._with_name(name, handler)
        if (
            len(parts) == 4
            and parts[0] == "relations"
            and parts[2] == "views"
            and method == "GET"
        ):
            name, view_name = parts[1], parts[3]

            async def bound(request: Request) -> Response:
                return await self._handle_read_view(request, name, view_name)

            return "view", bound
        return "unknown", self._handle_unknown

    @staticmethod
    def _with_name(
        name: str, handler: Callable[[Request, str], Awaitable[Response]]
    ) -> Callable[[Request], Awaitable[Response]]:
        async def bound(request: Request) -> Response:
            return await handler(request, name)

        return bound

    async def _handle_unknown(self, request: Request) -> Response:
        return Response.error(404, f"no route for {request.method} {request.path}")

    # -- catalog + introspection handlers ---------------------------------------------

    async def _handle_health(self, request: Request) -> Response:
        return Response.json(
            {
                "status": "shutting-down" if self._shutting_down else "ok",
                "relations": self.database.names(),
                "queue_depth": self._queue.qsize(),
            }
        )

    async def _handle_metrics(self, request: Request) -> Response:
        if not _metrics.enabled():
            return Response.json({"enabled": False, "metrics": {}})
        return Response.json(
            {"enabled": True, "metrics": _metrics.registry().snapshot()}
        )

    async def _handle_list_relations(self, request: Request) -> Response:
        listing = {}
        for name in self.database.names():
            relation = self.database.relation(name)
            pin = self._pins[name]
            listing[name] = {
                "elements": len(relation),
                "version": relation.version,
                "kind": relation.schema.valid_time_kind.value,
                "specializations": relation.schema.specialization_names(),
                "epoch": pin.to_json(),
            }
        return Response.json({"relations": listing})

    async def _handle_create_relation(self, request: Request) -> Response:
        create = protocol.CreateRelationRequest.from_json(request.json())
        body = request.json() or {}
        # Check the name before building an engine: a duplicate must
        # not reopen (and replay) the live relation's files.
        if create.schema.name in self.database:
            raise SchemaError(f"relation {create.schema.name!r} already exists")
        engine = self._build_engine(body.get("engine", "memory"), create.schema.name)
        relation = self.database.create_relation(create.schema, engine=engine)
        self._pins[create.schema.name] = relation.pin_epoch()
        self._track_deltas(relation)
        return Response.json(
            {"created": create.schema.name, "epoch": self._pins[create.schema.name].to_json()},
            status=200,
        )

    def _relation_tier_dir(self, name: str) -> Optional[str]:
        """Relation *name*'s cold-segment root under ``--tier-dir``."""
        import os

        if self.config.tier_dir is None:
            return None
        tier_dir = os.path.join(self.config.tier_dir, f"{name}.tier")
        os.makedirs(tier_dir, exist_ok=True)
        return tier_dir

    def _build_engine(self, kind: Any, name: str):
        import os

        if kind == "memory":
            return MemoryEngine(tier_dir=self._relation_tier_dir(name))
        if kind != "logfile":
            raise ProtocolError(f"unknown engine {kind!r} (expected 'memory' or 'logfile')")
        data_dir = self.config.data_dir
        if data_dir is None:
            raise ProtocolError(
                "engine 'logfile' needs the server started with a data directory "
                "(repro serve --data-dir ...)"
            )
        # Never start an empty log beside history it cannot read.
        if os.path.isdir(os.path.join(data_dir, f"{name}.shards")):
            raise ProtocolError(f"relation {name!r}: {SHARDS_REMOVED}")
        if os.path.exists(os.path.join(data_dir, f"{name}.sqlite")):
            raise ProtocolError(f"relation {name!r}: {SQLITE_REMOVED}")
        os.makedirs(data_dir, exist_ok=True)
        path = os.path.join(data_dir, f"{name}.logfile")
        return LogFileEngine(path, tier_dir=self._relation_tier_dir(name))

    async def _handle_relation_stats(self, request: Request, name: str) -> Response:
        relation = self.database.relation(name)
        pin = self._pins[name]
        return Response.json(
            {
                "name": name,
                "elements": len(relation),
                "live": relation.live_count(),
                "version": relation.version,
                "statistics": relation.statistics(),
                "epoch": pin.to_json(),
            }
        )

    # -- write handlers ---------------------------------------------------------------

    def _wants_wait(self, request: Request) -> bool:
        return request.query.get("wait", "true").lower() != "false"

    async def _handle_append(self, request: Request, name: str) -> Response:
        relation = self.database.relation(name)
        decoded = protocol.AppendRequest.from_json(request.json(), relation.schema)
        op = _WriteOp(
            kind="append",
            relation_name=name,
            payload=decoded,
            future=asyncio.get_running_loop().create_future(),
        )
        return await self._submit_write(op, wait=self._wants_wait(request))

    async def _handle_bulk(self, request: Request, name: str) -> Response:
        relation = self.database.relation(name)
        decoded = protocol.BulkRequest.from_json(request.json(), relation.schema)
        op = _WriteOp(
            kind="bulk",
            relation_name=name,
            payload=decoded,
            future=asyncio.get_running_loop().create_future(),
            rows=len(decoded.rows),
        )
        return await self._submit_write(op, wait=self._wants_wait(request))

    async def _handle_delete(self, request: Request, name: str) -> Response:
        self.database.relation(name)  # 404 before queueing
        decoded = protocol.DeleteRequest.from_json(request.json())
        op = _WriteOp(
            kind="delete",
            relation_name=name,
            payload=decoded,
            future=asyncio.get_running_loop().create_future(),
        )
        return await self._submit_write(op, wait=self._wants_wait(request))

    # -- read handlers ----------------------------------------------------------------

    def _reader_context(self, name: str) -> Tuple[TemporalRelation, EpochPin]:
        relation = self.database.relation(name)
        return relation, self._pins[name]

    @staticmethod
    def _micro_param(request: Request, name: str) -> int:
        raw = request.query.get(name)
        if raw is None:
            raise ProtocolError(f"query parameter {name!r} is required")
        try:
            return int(raw)
        except ValueError:
            raise ProtocolError(
                f"query parameter {name!r} must be a microsecond integer, got {raw!r}"
            ) from None

    def _rows_response(self, pin: EpochPin, elements: List[Element], **members: Any) -> Response:
        if _metrics.enabled():
            _metrics.registry().counter("server.rows_served").inc(len(elements))
        envelope = {"count": len(elements), "epoch": pin.to_json(), **members}
        return Response.json(envelope, rows=elements)

    # -- response cache ---------------------------------------------------------------
    #
    # Read responses are pure functions of (endpoint, params, pinned
    # epoch): epoch pinning makes the cache race-free without locks,
    # because a body computed under a pin is stored under that same
    # pin's key even if the writer advances the published pin
    # meanwhile -- the stale entry is simply never asked for again.
    # Bodies are canonical JSON (Response.json sorts keys), so a hit is
    # byte-identical to re-evaluation; only the X-Repro-Cache header
    # tells the two apart.

    def _cache_key(
        self, name: str, endpoint: str, pin: EpochPin, *params: Any
    ) -> Optional[tuple]:
        if self._response_cache is None:
            return None
        return (name, endpoint, params, pin.tt_micro, pin.elements, pin.version)

    def _cache_get(self, key: Optional[tuple]) -> Optional[Response]:
        if key is None or self._response_cache is None:
            return None
        hit = self._response_cache.get(key)
        if hit is None:
            return None
        body, rows = hit
        if _metrics.enabled():
            _metrics.registry().counter("server.rows_served").inc(rows)
        return Response(status=200, body=body, headers={"X-Repro-Cache": "hit"})

    def _cache_put(self, key: Optional[tuple], response: Response, rows: int) -> Response:
        if key is None or self._response_cache is None or response.status != 200:
            return response
        self._response_cache.put(key, (response.body, rows), nbytes=len(response.body))
        response.headers["X-Repro-Cache"] = "miss"
        return response

    async def _handle_current(self, request: Request, name: str) -> Response:
        relation, pin = self._reader_context(name)
        key = self._cache_key(name, "current", pin)
        cached = self._cache_get(key)
        if cached is not None:
            return cached
        # Pinned current state == rollback to the pin: stored-at-pin
        # elements whose existence interval is still open at the pin.
        elements = relation.as_of(pin.as_of)
        return self._cache_put(key, self._rows_response(pin, elements), len(elements))

    async def _handle_timeslice(self, request: Request, name: str) -> Response:
        relation, pin = self._reader_context(name)
        vt = Timestamp(self._micro_param(request, "vt"), "microsecond")
        as_of = pin.as_of
        if "as_of" in request.query:
            as_of = pin.clamp(Timestamp(self._micro_param(request, "as_of"), "microsecond"))
        key = self._cache_key(name, "timeslice", pin, vt.microseconds, as_of.microseconds)
        cached = self._cache_get(key)
        if cached is not None:
            return cached
        elements = relation.valid_at(vt, as_of_tt=as_of)
        return self._cache_put(key, self._rows_response(pin, elements), len(elements))

    async def _handle_overlap(self, request: Request, name: str) -> Response:
        relation, pin = self._reader_context(name)
        start = self._micro_param(request, "start")
        end = self._micro_param(request, "end")
        if end <= start:
            raise ProtocolError(f"overlap window must have start < end, got [{start}, {end})")
        window = Interval(
            Timestamp(start, "microsecond"), Timestamp(end, "microsecond")
        )
        as_of = pin.as_of
        if "as_of" in request.query:
            as_of = pin.clamp(Timestamp(self._micro_param(request, "as_of"), "microsecond"))
        key = self._cache_key(name, "overlap", pin, start, end, as_of.microseconds)
        cached = self._cache_get(key)
        if cached is not None:
            return cached
        elements = relation.valid_overlapping(window, as_of_tt=as_of)
        return self._cache_put(key, self._rows_response(pin, elements), len(elements))

    async def _handle_rollback(self, request: Request, name: str) -> Response:
        relation, pin = self._reader_context(name)
        tt = pin.clamp(Timestamp(self._micro_param(request, "tt"), "microsecond"))
        key = self._cache_key(name, "rollback", pin, tt.microseconds)
        cached = self._cache_get(key)
        if cached is not None:
            return cached
        elements = relation.as_of(tt)
        return self._cache_put(key, self._rows_response(pin, elements), len(elements))

    # -- standing views + subscriptions -----------------------------------------------

    async def _handle_list_views(self, request: Request, name: str) -> Response:
        relation = self.database.relation(name)
        pin = self._pins[name]
        registry = relation.views
        listing = registry.describe()
        journal = {"floor": registry.journal_floor, "last": registry.last_epoch}
        return Response.json(
            {"views": listing, "journal": journal, "epoch": pin.to_json()}
        )

    async def _handle_register_view(self, request: Request, name: str) -> Response:
        relation = self.database.relation(name)
        decoded = protocol.RegisterViewRequest.from_json(request.json())
        registry = relation.views
        if decoded.kind == "current":
            view = registry.register_current(decoded.name)
        elif decoded.kind == "timeslice":
            assert decoded.vt is not None
            view = registry.register_timeslice(decoded.name, decoded.vt)
        else:
            assert decoded.window is not None
            view = registry.register_overlap(decoded.name, decoded.window)
        summary = view.describe()
        return Response.json({"registered": summary, "epoch": self._pins[name].to_json()})

    async def _handle_read_view(
        self, request: Request, name: str, view_name: str
    ) -> Response:
        relation = self.database.relation(name)
        pin = self._pins[name]
        view = relation.views.get(view_name)
        elements = view.snapshot()
        summary = view.describe()
        return self._rows_response(pin, elements, view=summary)

    async def _handle_subscribe(self, request: Request, name: str) -> Response:
        """Long-poll the relation's delta stream.

        ``since`` is the subscriber's cursor (a committed epoch
        microsecond -- the ``tt_micro`` of a snapshot's pin, or the
        ``epoch`` of the previous feed; omitted means "from now").  The
        response carries every journaled delta past the cursor, or
        blocks up to ``timeout`` seconds for one to land.  A cursor
        behind the journal floor answers ``resync: true`` with the
        current pin: the subscriber must take a snapshot read and
        resubscribe from that pin's epoch.
        """
        relation = self.database.relation(name)
        registry = relation.views
        if "since" in request.query:
            since = self._micro_param(request, "since")
        else:
            since = registry.last_epoch
        try:
            timeout = float(request.query.get("timeout", "25"))
        except ValueError:
            raise ProtocolError("query parameter 'timeout' must be a number") from None
        timeout = max(0.0, min(timeout, 60.0))
        condition = self._delta_condition(name)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        if _metrics.enabled():
            _metrics.registry().counter("server.subscribe.polls").inc()
        while True:
            feed = registry.deltas_since(since)
            if feed.resync:
                if _metrics.enabled():
                    _metrics.registry().counter("server.subscribe.resyncs").inc()
                return Response.json(
                    {
                        "resync": True,
                        "deltas": [],
                        "count": 0,
                        "epoch": self._pins[name].to_json(),
                    }
                )
            if feed.deltas or self._shutting_down:
                break
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            async with condition:
                try:
                    await asyncio.wait_for(condition.wait(), timeout=remaining)
                except asyncio.TimeoutError:
                    break
        if _metrics.enabled():
            _metrics.registry().counter("server.subscribe.deltas_served").inc(
                len(feed.deltas)
            )
        return Response.json(
            {
                "resync": False,
                "deltas": protocol.deltas_to_json(feed.deltas),
                "count": len(feed.deltas),
                "cursor": feed.epoch,
                "epoch": self._pins[name].to_json(),
            }
        )

    # -- TQL + explain ----------------------------------------------------------------

    async def _handle_query(self, request: Request) -> Response:
        statement = protocol.StatementRequest.from_json(request.json())
        # Parsed once: the AST names the relation for the cache key and
        # is what execute() runs (a TQLError here is the request's 400).
        parsed = _tql.parse(statement.tql)
        target = parsed.relation_name
        key = None
        if target in self._pins:
            key = self._cache_key(target, "query", self._pins[target], statement.tql)
            cached = self._cache_get(key)
            if cached is not None:
                return cached
        rows = self.database.execute(parsed)
        if _metrics.enabled():
            _metrics.registry().counter("server.rows_served").inc(len(rows))
        if rows and isinstance(rows[0], Element):
            response = Response.json({"count": len(rows)}, rows=rows)
        else:
            response = Response.json({"rows": protocol.rows_to_json(rows), "count": len(rows)})
        return self._cache_put(key, response, len(rows))

    async def _handle_explain(self, request: Request, name: str) -> Response:
        statement = protocol.StatementRequest.from_json(request.json())
        relation = self.database.relation(name)
        report = relation.explain(statement.tql, execute=statement.execute)
        payload: Dict[str, Any] = {
            "strategy": report.strategy,
            "explanation": report.explanation,
            "decisions": list(report.decisions),
            "algebra": report.algebra,
            "executed": report.executed,
            "rendered": report.render(),
        }
        if report.executed:
            payload["examined"] = report.examined
            payload["returned"] = report.returned
            payload["rows"] = protocol.rows_to_json(report.results)
        return Response.json(payload)
