"""The four workloads: how each relation is built, the seeded request
sequence that drives it, and the answer oracle.

Both processes import this module.  ``server_proc.py`` calls
``build_relation`` (the program under test receives only the seed's
data and, later, the generated requests); ``run.py`` calls it too and
keeps the resulting element list as the oracle -- a plain-Python filter
over that list, never the planner, says what every request must return.

Request ``k`` of a sequence depends only on the seed and ``k``:
sequences extend on demand (``ensure``) and any prefix is byte-identical
for the same seed.
"""

from __future__ import annotations

import bisect
import json
import random
from collections import Counter
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.relation.element import Element
from repro.relation.temporal_relation import TemporalRelation
from repro.server import protocol
from repro.server.http import Response
from repro.storage.segments import DEFAULT_SEGMENT_SIZE
from repro.storage.tiered import DEFAULT_CACHE_SEGMENTS, DEFAULT_HOT_RESERVE
from repro.workloads import generate_general, generate_monitoring

MICRO = 1_000_000
MILLI = 1_000
HOUR = 3_600 * MICRO

DELETE_RATE = 0.15
#: Rows a point-workload range read should return on either relation.
RANGE_ROWS = 480
#: One response in this many is compared byte for byte.
BODY_SAMPLE = 50

RELATION_NAME = {
    "point_specialized": "plant_temperatures",
    "point_general": "general_traffic",
    "history_tiered": "plant_temperatures",
    "ingest_durable": "ingest_log",
}


class Request(NamedTuple):
    kind: str  # tql_at | tql_overlap | tql_deep | timeslice | rollback | bulk | view
    wire: bytes  # the complete pre-encoded HTTP request
    rows: int  # the oracle's row count (-1: decided by the epoch ledger)
    param: Any  # what the body oracle needs to recompute the answer


def is_tql(kind: str) -> bool:
    return kind.startswith("tql")


def encode(method: str, target: str, payload: Any = None) -> bytes:
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {target} HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    ).encode("ascii")
    return head + body


def with_sequence(wire: bytes, sequence: int) -> bytes:
    """*wire* carrying the traced pass's request id header."""
    return wire.replace(b"\r\n\r\n", f"\r\nX-Bench-Seq: {sequence}\r\n\r\n".encode("ascii"), 1)


def tql_request(kind: str, statement: str, rows: int, param: Any) -> Request:
    return Request(kind, encode("POST", "/query", {"tql": statement}), rows, param)


# -- relations -----------------------------------------------------------------------


def build_relation(workload: str, seed: int, elements: int) -> Optional[TemporalRelation]:
    """The pre-built relation of a read workload (None for ingest_durable,
    whose relation is created over HTTP)."""
    if workload in ("point_specialized", "history_tiered"):
        return generate_monitoring(
            sensors=8, samples_per_sensor=elements // 8, seed=seed
        ).relation
    if workload == "point_general":
        # Every generator step either inserts or deletes, so stored
        # elements ~= steps * (1 - delete rate).
        return generate_general(
            inserts=round(elements / (1 - DELETE_RATE)), delete_rate=DELETE_RATE, seed=seed
        ).relation
    return None


def tier_segment_size(elements: int) -> int:
    """Segment size of history_tiered's tiering engine: the library's
    default at full size; smoke-sized relations get proportionally
    smaller segments, so that they too have ~24 of them, 22 cold."""
    return min(DEFAULT_SEGMENT_SIZE, max(64, elements // 24))


# -- the oracle over a pre-built relation -------------------------------------------


class Oracle:
    """Expected answers from the generator's own element list."""

    def __init__(self, relation: TemporalRelation) -> None:
        self.elements: List[Element] = list(relation.engine.scan())
        live = [element for element in self.elements if element.is_current]
        self.live_vts = sorted(element.vt.microseconds for element in live)
        self.vt_counts = Counter(self.live_vts)
        self.starts = sorted(element.tt_start.microseconds for element in self.elements)
        self.stops = sorted(
            element.tt_stop.microseconds for element in self.elements if not element.is_current
        )
        self.pin = relation.pin_epoch()
        #: The server's pin as reported on its READY line (set by run.py
        #: after checking it names the same state as ``self.pin``).
        self.epoch_json: Dict[str, int] = self.pin.to_json()

    # counts, for every request -----------------------------------------------------

    def count_at(self, vt: int) -> int:
        return self.vt_counts.get(vt, 0)

    def count_overlap(self, start: int, end: int) -> int:
        return bisect.bisect_left(self.live_vts, end) - bisect.bisect_left(self.live_vts, start)

    def count_as_of(self, tt: int) -> int:
        return bisect.bisect_right(self.starts, tt) - bisect.bisect_right(self.stops, tt)

    # full bodies, for the sampled requests ---------------------------------------------

    def _rows(self, request: Request) -> List[Element]:
        kind, param = request.kind, request.param
        if kind in ("tql_at", "timeslice"):
            return [e for e in self.elements if e.is_current and e.vt.microseconds == param]
        if kind in ("tql_overlap", "tql_deep"):
            start, end = param
            return [e for e in self.elements if e.is_current and start <= e.vt.microseconds < end]
        if kind == "rollback":
            return [
                e
                for e in self.elements
                if e.tt_start.microseconds <= param
                and (e.is_current or e.tt_stop.microseconds > param)
            ]
        raise ValueError(f"no body oracle for {kind!r}")

    def body(self, request: Request) -> bytes:
        rows = self._rows(request)
        if is_tql(request.kind):
            payload = {"rows": protocol.rows_to_json(rows), "count": len(rows)}
        else:
            payload = {
                "rows": protocol.elements_to_json(rows),
                "count": len(rows),
                "epoch": self.epoch_json,
            }
        return Response.json(payload).body


# -- request sequences over a pre-built relation ------------------------------------


class SequenceExhausted(RuntimeError):
    """The relation has no unused parameters left to draw."""


class PointScenario:
    """One closed-loop connection; per 50 requests, in seeded order, 39
    ``VALID AT`` an existing vt (1 row), 10 ``VALID OVERLAPS`` a window
    sized to ~RANGE_ROWS rows and 1 ``GET .../timeslice``; every
    parameter is drawn without replacement, so no cache layer can hit.

    The pinned timeslice route scans (60-80 ms at 100k elements) where
    a TQL point read takes 0.4 ms.  At 2 % of requests it still takes
    about half the window, so throughput and CPU per request blend the
    three classes, while each class keeps a latency metric to itself:
    the pooled median and ``tql_p50_ms`` fall among the point reads,
    ``read_p95_ms`` among the ranges (78th-98th percentile), and
    ``get_p50_ms`` is the timeslice route alone.  One connection,
    because a second one's TQL reads would wait out the interpreter's
    5 ms switch interval behind the first one's scan and measure that.
    """

    _BLOCK = ("tql_at",) * 39 + ("tql_overlap",) * 10 + ("timeslice",)

    def __init__(self, workload: str, oracle: Oracle, seed: int) -> None:
        self.name = RELATION_NAME[workload]
        self.oracle = oracle
        self._rng = random.Random(seed)
        self._points = sorted(oracle.vt_counts)
        self._rng.shuffle(self._points)
        low, high = oracle.live_vts[0], oracle.live_vts[-1]
        if workload == "point_specialized":
            self.width = HOUR
        else:
            self.width = int(RANGE_ROWS * (high - low) / len(oracle.live_vts))
        self._window_range = (low // MICRO, (high - self.width) // MICRO)
        self._used_windows: set = set()
        self._block: List[str] = []
        self.prologue: List[Request] = []
        self.requests: List[Request] = []

    def ensure(self, count: int) -> None:
        while len(self.requests) < count:
            if not self._block:
                self._block = list(self._BLOCK)
                self._rng.shuffle(self._block)
            self.requests.append(self._make(self._block.pop()))

    def _make(self, kind: str) -> Request:
        oracle = self.oracle
        if kind == "tql_overlap":
            while True:
                start = self._rng.randint(*self._window_range) * MICRO
                if start not in self._used_windows:
                    break
            self._used_windows.add(start)
            end = start + self.width
            statement = f"SELECT * FROM {self.name} VALID OVERLAPS [{start}us, {end}us)"
            return tql_request(kind, statement, oracle.count_overlap(start, end), (start, end))
        if not self._points:
            raise SequenceExhausted(f"{self.name}: every stored valid time has been asked for")
        vt = self._points.pop()
        if kind == "tql_at":
            statement = f"SELECT * FROM {self.name} VALID AT {vt}us"
            return tql_request(kind, statement, oracle.count_at(vt), vt)
        wire = encode("GET", f"/relations/{self.name}/timeslice?vt={vt}")
        return Request(kind, wire, oracle.count_at(vt), vt)


class HistoryScenario:
    """One closed-loop connection; large reads of old history with
    two-class popularity, and one read in five of a cold segment that
    the tier's decode cache does not hold.

    The pool holds POOL parameter sets, alternately ``GET .../rollback``
    into the first 4-8 % of transaction time (4k-8k rows, ~0.9-1.7 MB)
    and a 12 h ``VALID OVERLAPS`` (5 760 rows, ~1.2 MB): ~120 MB of
    bodies against the server's 16 MiB response cache.  Each block of
    five requests, in seeded order, asks for

    * one of the two *hot* sets (the first rollback and the first range,
      alternately): asked for again after ~9 MB of other bodies, so it
      always hits the response cache;
    * three *cold* sets, walking the other 94 cyclically: each comes
      round again after ~115 MB, so it never hits;
    * one *deep* read, a 15 min ``VALID OVERLAPS`` (120 rows) in the
      middle of a cold segment, walking the cold segments beyond the
      pool's own cyclically: there are more of them than the tier
      caches, so each pays the segment file's open, column decode and
      element decode again (one promotion per deep read, exactly).

    The response-cache hit ratio is therefore 1/5 and the cold-decode
    rate one segment per five requests by construction, not by the luck
    of a popularity draw -- which is what lets a 10 s window repeat.
    The popularity classes are synthetic, not measured from traffic.
    """

    POOL = 96
    HOT = 2
    COLD_PER_BLOCK = 3
    WINDOW = 12 * HOUR
    ROLLBACK_SHARES = (0.04, 0.08)
    #: The pool's reads stay inside this many of the oldest cold
    #: segments.  Every range and all but the smallest rollbacks touch
    #: both, so the deep walk never pushes them out of the tier's LRU:
    #: evicting one would cost ~1 s to decode its elements again, which
    #: no 10 s window can average out.
    RESIDENT = 2
    #: Rows of a deep read at full size.
    DEEP_ROWS = 120

    def __init__(self, workload: str, oracle: Oracle, seed: int) -> None:
        self.name = RELATION_NAME[workload]
        self.oracle = oracle
        self._rng = rng = random.Random(seed)
        elements = oracle.elements
        size = tier_segment_size(len(elements))
        tt_low, tt_high = oracle.starts[0], oracle.starts[-1]

        def vt_at(position: int) -> int:
            return elements[position].vt.microseconds // MICRO * MICRO

        # Smoke-sized segments span less than WINDOW; a segment and a
        # half keeps the same shape there.
        window = min(self.WINDOW, vt_at(size * 3 // 2) - vt_at(0))
        # A range ends two minutes of valid time before the first row
        # past the resident segments: the planner's transaction-time
        # window reaches up to 55 s beyond the range.
        window_high = vt_at(self.RESIDENT * size) - 120 * MICRO - window
        rollbacks = self.POOL // 2
        self.pool: List[Request] = []
        starts: set = set()
        for rank in range(self.POOL):
            if rank % 2 == 0:
                # Strata, visited in a fixed scattered order, keep the
                # pool's total bytes (and which sets are large) the
                # same for every seed; the seed moves tt within them.
                stratum = (rank // 2 * 7) % rollbacks
                low, high = self.ROLLBACK_SHARES
                share = low + (high - low) * (stratum + rng.random()) / rollbacks
                tt = tt_low + int(share * (tt_high - tt_low))
                wire = encode("GET", f"/relations/{self.name}/rollback?tt={tt}")
                self.pool.append(Request("rollback", wire, oracle.count_as_of(tt), tt))
            else:
                while True:
                    start = rng.randint(vt_at(0) // MICRO, window_high // MICRO) * MICRO
                    if start not in starts:
                        break
                starts.add(start)
                self.pool.append(self._range("tql_overlap", start, start + window))

        cold_segments = len(elements) // size - DEFAULT_HOT_RESERVE
        deep_segments = range(self.RESIDENT + 1, cold_segments)
        if len(deep_segments) <= DEFAULT_CACHE_SEGMENTS:
            raise ValueError(
                f"{len(deep_segments)} cold segments beyond the pool's fit the tier cache"
            )
        rows = min(self.DEEP_ROWS, size // 4)
        self.deep: List[Request] = [
            self._range(
                "tql_deep",
                vt_at(ordinal * size + size // 2),
                vt_at(ordinal * size + size // 2 + rows),
            )
            for ordinal in deep_segments
        ]
        #: Asked once before warm-up, so that the first-touch decode of
        #: the resident segments is paid before anything is timed.
        self.prologue: List[Request] = list(self.pool)
        self.requests: List[Request] = []
        self._blocks = 0

    def _range(self, kind: str, start: int, end: int) -> Request:
        statement = f"SELECT * FROM {self.name} VALID OVERLAPS [{start}us, {end}us)"
        return tql_request(kind, statement, self.oracle.count_overlap(start, end), (start, end))

    def ensure(self, count: int) -> None:
        cold = self.POOL - self.HOT
        while len(self.requests) < count:
            number = self._blocks
            block = [self.pool[number % self.HOT], self.deep[number % len(self.deep)]]
            for step in range(self.COLD_PER_BLOCK):
                block.append(
                    self.pool[self.HOT + (number * self.COLD_PER_BLOCK + step) % cold]
                )
            self._rng.shuffle(block)
            self.requests.extend(block)
            self._blocks += 1


# -- the write workload ---------------------------------------------------------------


class IngestScenario:
    """Bulk batches for a relation whose clock is known, so every row's
    transaction time -- and hence a compliant valid time -- is computed
    before the request is sent.

    The server child runs ``LogicalClock(start=CLOCK_START_MS,
    "millisecond")`` and only this workload's bulk appends draw stamps,
    so row ``i`` of batch ``k`` is stored at ``CLOCK_START_MS + k *
    BATCH_ROWS + i`` ms with surrogate ``k * BATCH_ROWS + i + 1``.  The
    declared region is *retroactive* and *strongly retroactively
    bounded(3600 s)*: every vt lies within the hour before its tt.

    Three kinds of valid time: a *probe* vt per batch (whole
    milliseconds, shared by ``1 + k % 3`` rows of that batch and no
    other row ever), the standing view's vt (``VIEW_ROWS`` rows of
    batch 0, then one more row every ``VIEW_EVERY`` batches), and
    everything else at half-millisecond offsets, which neither a probe
    nor the view can match.
    """

    NAME = RELATION_NAME["ingest_durable"]
    VIEW = "watch"
    CLOCK_START_MS = 10_000_000
    BATCH_ROWS = 500
    BOUND_MS = 3_600_000
    VIEW_ROWS = 32
    VIEW_EVERY = 64
    _PROBE_SLOTS = (0, 100, 200)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.view_vt = (self.CLOCK_START_MS - 2) * MILLI
        self.batches: List[Request] = []
        self.probes: List[Request] = []
        #: view_rows_through[k]: rows at the view's vt in batches 0..k.
        self.view_rows_through: List[int] = []
        self.view_request = Request(
            "view", encode("GET", f"/relations/{self.NAME}/views/{self.VIEW}"), -1, None
        )

    def create_spec(self) -> Dict[str, Any]:
        return {
            "name": self.NAME,
            "engine": "logfile",
            "time_varying": ["reading", "batch"],
            "specializations": [
                "retroactive",
                f"strongly retroactively bounded({self.BOUND_MS // MILLI}s)",
            ],
        }

    def view_spec(self) -> Dict[str, Any]:
        return {"name": self.VIEW, "kind": "timeslice", "vt": self.view_vt}

    def first_tt(self, batch: int) -> int:
        """Transaction time (us) of row 0 of *batch*."""
        return (self.CLOCK_START_MS + batch * self.BATCH_ROWS) * MILLI

    def epoch_tt(self, batch: int) -> int:
        """The pin the server publishes once *batch* has committed."""
        return self.first_tt(batch + 1) - 1

    def probe_vt(self, batch: int) -> int:
        return self.first_tt(batch) - MILLI

    def rows(self, batch: int) -> List[List[Any]]:
        """The rows of *batch*: a pure function of (seed, batch)."""
        rng = random.Random(self.seed * 1_000_003 + batch)
        first = self.first_tt(batch)
        number = batch * self.BATCH_ROWS
        rows: List[List[Any]] = []
        for i in range(self.BATCH_ROWS):
            offset = rng.randrange(1, self.BOUND_MS - 1_000) * MILLI + MILLI // 2
            rows.append(
                [
                    f"unit-{(number + i) % 997}",
                    first + i * MILLI - offset,
                    {"reading": round(rng.random() * 100, 3), "batch": batch},
                ]
            )
        for slot in self._PROBE_SLOTS[: 1 + batch % 3]:
            rows[slot][1] = self.probe_vt(batch)
        for slot in self._view_slots(batch):
            rows[slot][1] = self.view_vt
        return rows

    def _view_slots(self, batch: int) -> Sequence[int]:
        if batch == 0:
            return range(1, 1 + self.VIEW_ROWS)
        in_bound = self.first_tt(batch + 1) - self.view_vt < self.BOUND_MS * MILLI
        return (1,) if batch % self.VIEW_EVERY == 0 and in_bound else ()

    def ensure(self, count: int) -> None:
        for batch in range(len(self.batches), count):
            wire = encode("POST", f"/relations/{self.NAME}/bulk", {"rows": self.rows(batch)})
            self.batches.append(Request("bulk", wire, self.BATCH_ROWS, batch))
            vt = self.probe_vt(batch)
            statement = f"SELECT * FROM {self.NAME} VALID AT {vt}us"
            self.probes.append(tql_request("tql_at", statement, 1 + batch % 3, batch))
            before = self.view_rows_through[-1] if self.view_rows_through else 0
            self.view_rows_through.append(before + len(self._view_slots(batch)))

    def cycle(self, batch: int) -> List[Request]:
        """What the one connection sends for *batch*: the batch, a probe
        of a valid time only it stored, a read of the standing view."""
        return [self.batches[batch], self.probes[batch], self.view_request]

    def batch_of_epoch(self, elements: int) -> int:
        """Which batch's commit an epoch with *elements* stored rows names."""
        return elements // self.BATCH_ROWS - 1

    def expected_elements(self, batch: int) -> List[Tuple[int, int, str, int]]:
        """(surrogate, tt_start, object, vt) of every row of *batch*, as
        the server must have stored them."""
        first, number = self.first_tt(batch), batch * self.BATCH_ROWS
        return [
            (number + slot + 1, first + slot * MILLI, row[0], row[1])
            for slot, row in enumerate(self.rows(batch))
        ]
