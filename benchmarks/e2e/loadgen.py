"""The load generator's inner loops: keep-alive connections that send
pre-encoded requests, closed loop, and check every answer.

Nothing here allocates per-request beyond the op record: requests were
encoded before the window opened, counts are read from the canonical
body's fixed prefix (``{"count":N,...`` -- keys are sorted) instead of
parsing megabytes of JSON inside the loop, and full-body comparisons
are deferred to after the window (``Tally.sampled``).
"""

from __future__ import annotations

import json
import re
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.server.client import ClientResponse, ServerClient

import scenario as sc

_COUNT = re.compile(rb'^\{"count":(\d+)[,}]')
_COUNT_EPOCH = re.compile(rb'^\{"count":(\d+),"epoch":\{"elements":(\d+),"tt":(-?\d+),')
_ACK_EPOCH = re.compile(rb'"epoch":\{"elements":(\d+),"tt":(-?\d+),"version":\d+\}\}$')


class Connection(ServerClient):
    """A ServerClient that sends bytes encoded ahead of time."""

    async def send(self, wire: bytes) -> ClientResponse:
        if self._writer is None or self._reader is None:
            await self.connect()
        assert self._writer is not None
        self._writer.write(wire)
        await self._writer.drain()
        return await self._read_response()


class Op(NamedTuple):
    done: float  # perf_counter at completion
    latency: float  # seconds
    kind: str
    rows: int  # rows returned (reads) or acknowledged (writes)
    size: int  # response body bytes
    index: int  # position in the request sequence


class Tally:
    """Everything a pass counts besides timings."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self.cacheable = 0
        self.cache_hits = 0
        #: (request, response body) pairs awaiting the byte-for-byte check.
        self.sampled: List[Tuple[sc.Request, bytes]] = []
        self.ops: List[Op] = []

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 10:
            self.notes.append(note)

    def record(self, op: Op, response: ClientResponse) -> None:
        self.ops.append(op)
        cache = response.headers.get("x-repro-cache")
        if cache is not None:
            self.cacheable += 1
            if cache == "hit":
                self.cache_hits += 1


def _count(body: bytes) -> int:
    match = _COUNT.match(body)
    return int(match.group(1)) if match else -1


def check_read(tally: Tally, index: int, request: sc.Request, response: ClientResponse) -> int:
    """Count-check one read of a pre-built relation; returns rows served."""
    if response.status != 200:
        tally.fail(f"request {index} ({request.kind}): HTTP {response.status}")
        return 0
    count = _count(response.body)
    if count != request.rows:
        tally.fail(f"request {index} ({request.kind}): {count} rows, oracle says {request.rows}")
    elif index % sc.BODY_SAMPLE == 0:
        tally.sampled.append((request, response.body))
    return max(count, 0)


class Cursor:
    """The shared position in a request sequence."""

    def __init__(self, start: int = 0) -> None:
        self.next = start
        self.exhausted = False


async def closed_loop(
    connection: Connection,
    requests: List[sc.Request],
    cursor: Cursor,
    deadline: float,
    tally: Tally,
    stamp: Optional[Callable[[bytes, int], bytes]] = None,
) -> None:
    """Send the next unsent request as soon as the previous one completes,
    until *deadline* (perf_counter) or the end of *requests*."""
    clock = time.perf_counter
    while clock() < deadline:
        index = cursor.next
        if index >= len(requests):
            cursor.exhausted = True
            return
        cursor.next = index + 1
        request = requests[index]
        wire = request.wire if stamp is None else stamp(request.wire, index)
        tally.attempted += 1
        started = clock()
        response = await connection.send(wire)
        finished = clock()
        rows = check_read(tally, index, request, response)
        tally.record(
            Op(finished, finished - started, request.kind, rows, len(response.body), index),
            response,
        )


# -- ingest_durable ------------------------------------------------------------------


class IngestState:
    """How far ingest_durable's connection has come."""

    def __init__(self, ingest: sc.IngestScenario, acked: int) -> None:
        self.ingest = ingest
        #: Highest batch whose ack has been received (batch 0 is set-up).
        self.acked = acked
        self.exhausted = False
        #: (rows, hook): *hook* is called once, when that many rows are acked.
        self.on_rows: Optional[Tuple[int, Callable[[], None]]] = None


def check_ack(
    tally: Tally, state: IngestState, batch: int, response: ClientResponse
) -> bool:
    ingest = state.ingest
    if response.status != 200:
        tally.fail(f"bulk batch {batch}: HTTP {response.status} {response.body[:120]!r}")
        return False
    epoch = _ACK_EPOCH.search(response.body[-120:])
    if _count(response.body) != ingest.BATCH_ROWS or epoch is None:
        tally.fail(f"bulk batch {batch}: malformed ack")
        return False
    elements, tt = int(epoch.group(1)), int(epoch.group(2))
    if elements != (batch + 1) * ingest.BATCH_ROWS or tt != ingest.epoch_tt(batch):
        tally.fail(
            f"bulk batch {batch}: acked at epoch (elements={elements}, tt={tt}), "
            f"predicted ({(batch + 1) * ingest.BATCH_ROWS}, {ingest.epoch_tt(batch)})"
        )
        return False
    if batch % sc.BODY_SAMPLE == 0:
        tally.sampled.append((ingest.batches[batch], response.body))
    return True


async def send_bulk(
    connection: Connection,
    state: IngestState,
    request: sc.Request,
    tally: Tally,
    wire: bytes,
    index: int,
) -> bool:
    """Post one batch and check its ack; False when later stamps are no
    longer predictable and the connection must stop."""
    batch = request.param
    tally.attempted += 1
    started = time.perf_counter()
    response = await connection.send(wire)
    finished = time.perf_counter()
    if not check_ack(tally, state, batch, response):
        return False
    state.acked = batch
    tally.record(
        Op(finished, finished - started, "bulk", request.rows, len(response.body), index), response
    )
    return True


async def send_read(
    connection: Connection,
    state: IngestState,
    request: sc.Request,
    tally: Tally,
    wire: bytes,
    index: int,
) -> None:
    """Send one read of the relation being written and check it."""
    tally.attempted += 1
    started = time.perf_counter()
    response = await connection.send(wire)
    finished = time.perf_counter()
    rows = check_ingest_read(tally, state, request, response)
    tally.record(
        Op(finished, finished - started, request.kind, rows, len(response.body), index), response
    )


async def ingest_loop(
    connection: Connection, state: IngestState, deadline: float, tally: Tally
) -> None:
    """Cycle after cycle, back to back, until *deadline*: a bulk batch,
    a probe of what it committed, a read of the standing view."""
    ingest = state.ingest
    while time.perf_counter() < deadline:
        batch = state.acked + 1
        if batch >= len(ingest.batches):
            state.exhausted = True
            return
        for step, request in enumerate(ingest.cycle(batch)):
            index = 3 * batch + step
            if request.kind != "bulk":
                await send_read(connection, state, request, tally, request.wire, index)
            elif not await send_bulk(connection, state, request, tally, request.wire, index):
                return
        if state.on_rows is not None and (batch + 1) * ingest.BATCH_ROWS >= state.on_rows[0]:
            state.on_rows[1]()
            state.on_rows = None


def check_ingest_read(
    tally: Tally, state: IngestState, request: sc.Request, response: ClientResponse
) -> int:
    ingest = state.ingest
    if response.status != 200:
        tally.fail(f"{request.kind} after a write: HTTP {response.status}")
        return 0
    if request.kind == "view":
        match = _COUNT_EPOCH.match(response.body)
        if match is None:
            tally.fail("view read: malformed body")
            return 0
        count, elements = int(match.group(1)), int(match.group(2))
        # The handler reads its pin before it takes the write lock, so
        # the snapshot may already hold the next commit.
        at_pin = ingest.batch_of_epoch(elements)
        through = ingest.view_rows_through
        allowed = {through[at_pin], through[min(at_pin + 1, len(through) - 1)]}
        if count not in allowed:
            tally.fail(
                f"view read at epoch elements={elements}: {count} rows, ledger says {allowed}"
            )
        return count
    count = _count(response.body)
    if count != request.rows:
        tally.fail(
            f"VALID AT probe of batch {request.param}: {count} rows, ledger says {request.rows}"
        )
    elif request.param % sc.BODY_SAMPLE == 0:
        tally.sampled.append((request, response.body))
    return max(count, 0)


# -- deferred full-body checks ---------------------------------------------------------


def verify_sampled(tally: Tally, oracle: sc.Oracle) -> int:
    """Compare each sampled body of a pre-built relation byte for byte."""
    for request, body in tally.sampled:
        if oracle.body(request) != body:
            tally.fail(f"{request.kind} {request.param}: body differs from the oracle's")
    return len(tally.sampled)


def verify_ingest_sampled(tally: Tally, ingest: sc.IngestScenario) -> int:
    """Compare sampled acks and probe answers field by field with the
    rows the generator sent and the stamps it predicted."""
    for request, body in tally.sampled:
        batch = request.param
        expected = ingest.expected_elements(batch)
        payload = json.loads(body)
        if request.kind == "bulk":
            got = payload["elements"]
            want = expected
        else:
            got = payload["rows"]
            want = [row for row in expected if row[3] == ingest.probe_vt(batch)]
        seen = [(e["surrogate"], e["tt_start"], e["object"], e["vt"]) for e in got]
        if seen != want:
            tally.fail(f"{request.kind} of batch {batch}: elements differ from the rows sent")
    return len(tally.sampled)


def verify_recovered(
    tally: Tally, ingest: sc.IngestScenario, acked: int, recovered: Dict[int, Any]
) -> Tuple[int, int]:
    """(acked rows, of which recovered with identical stamps)."""
    total = missing = 0
    for batch in range(acked + 1):
        for surrogate, tt_start, obj, vt in ingest.expected_elements(batch):
            total += 1
            element = recovered.get(surrogate)
            if (
                element is None
                or element.tt_start.microseconds != tt_start
                or element.vt.microseconds != vt
                or element.object_surrogate != obj
                or not element.is_current
            ):
                missing += 1
    if missing:
        tally.fail(f"{missing} of {total} acknowledged rows not recovered after SIGKILL", missing)
    return total, total - missing
