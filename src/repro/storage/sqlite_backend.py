"""A persistent storage engine over the standard-library ``sqlite3``.

One table per engine instance holds the full bitemporal element set;
transaction-time and valid-time B-tree indexes serve rollback and
timeslice queries.  Time-stamps are stored as microsecond integers (the
common exact time-line), so an element read back compares equal to the
one stored even when its original granularity was coarser.

Attribute values must be JSON-serializable (ints, floats, strings,
booleans, lists, dicts); object surrogates must be strings, integers,
or None.
"""

from __future__ import annotations

import json
import sqlite3
import time
from typing import Any, Callable, Iterable, Iterator, Optional, Tuple, TypeVar

from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, TimePoint, Timestamp
from repro.observability import metrics as _metrics
from repro.relation.element import Element
from repro.storage.base import StorageEngine
from repro.storage.columnar import decode_point, encode_point

_T = TypeVar("_T")

#: Busy/locked retry schedule: attempts and first backoff (seconds).
#: Exponential doubling, so the defaults wait ~1+2+4+8+16 = 31ms total.
_BUSY_ATTEMPTS = 6
_BUSY_BASE_DELAY = 0.001


def _is_busy(error: sqlite3.OperationalError) -> bool:
    return "locked" in str(error).lower() or "busy" in str(error).lower()


def _with_busy_retry(operation: Callable[[], _T]) -> _T:
    """Run *operation*, retrying SQLITE_BUSY/LOCKED with backoff.

    Other connections to the same file (another process, a second
    engine) can cause transient lock contention that sqlite3's own busy
    timeout does not always absorb -- notably immediate "database is
    locked" on connect-time schema reads.  Retries are bounded; a held
    lock still surfaces as the original ``OperationalError`` after the
    schedule is exhausted.
    """
    for attempt in range(_BUSY_ATTEMPTS):
        try:
            return operation()
        except sqlite3.OperationalError as error:
            if not _is_busy(error) or attempt == _BUSY_ATTEMPTS - 1:
                raise
            if _metrics.enabled():
                _metrics.registry().counter("storage.sqlite.busy_retries").inc()
            time.sleep(_BUSY_BASE_DELAY * (2**attempt))
    raise AssertionError("unreachable")


class SQLiteEngine(StorageEngine):
    """Bitemporal storage in a SQLite table (file-backed or in-memory)."""

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS elements (
            element_surrogate INTEGER PRIMARY KEY,
            object_surrogate  TEXT,
            tt_start          INTEGER NOT NULL,
            tt_stop           INTEGER,
            vt_kind           TEXT NOT NULL CHECK (vt_kind IN ('event', 'interval')),
            vt_start          INTEGER NOT NULL,
            vt_end            INTEGER,
            time_invariant    TEXT NOT NULL,
            time_varying      TEXT NOT NULL,
            user_times        TEXT NOT NULL
        );
        CREATE INDEX IF NOT EXISTS elements_tt_start ON elements (tt_start);
        CREATE INDEX IF NOT EXISTS elements_vt_start ON elements (vt_start);
    """

    def __init__(self, path: str = ":memory:") -> None:
        self._connection = sqlite3.connect(path)
        self._connection.executescript(self._SCHEMA)
        self._connection.commit()
        self._mutations = 0

    def close(self) -> None:
        self._connection.close()

    def mutation_count(self) -> int:
        """Monotone epoch bumped by every committed mutation.

        Statistics snapshots and the plan/result caches key on this;
        without it a delete (which leaves ``len()`` unchanged) would
        keep serving the pre-delete answer.
        """
        return self._mutations

    def __enter__(self) -> "SQLiteEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- mutation -----------------------------------------------------------------

    @staticmethod
    def _encode(element: Element) -> Tuple[Any, ...]:
        vt = element.vt
        if isinstance(vt, Interval):
            kind, vt_start, vt_end = "interval", encode_point(vt.start), encode_point(vt.end)
        else:
            kind, vt_start, vt_end = "event", vt.microseconds, None
        return (
            element.element_surrogate,
            json.dumps(element.object_surrogate),
            element.tt_start.microseconds,
            None if element.tt_stop is FOREVER else encode_point(element.tt_stop),
            kind,
            vt_start,
            vt_end,
            json.dumps(dict(element.time_invariant)),
            json.dumps(dict(element.time_varying)),
            json.dumps({k: v.microseconds for k, v in element.user_times.items()}),
        )

    def append(self, element: Element) -> None:
        try:
            _with_busy_retry(
                lambda: self._connection.execute(
                    "INSERT INTO elements VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    self._encode(element),
                )
            )
        except sqlite3.IntegrityError as error:
            raise ValueError(
                f"element surrogate {element.element_surrogate} already stored"
            ) from error
        _with_busy_retry(self._connection.commit)
        self._mutations += 1
        if _metrics.enabled():
            registry = _metrics.registry()
            registry.counter("storage.sqlite.rows_appended").inc()
            registry.counter("storage.sqlite.commits").inc()

    def extend(self, elements: Iterable[Element]) -> int:
        """Bulk insert: the whole batch in one transaction, one
        ``executemany``, one commit.  SQLite's transaction rollback
        makes the batch atomic -- an integrity failure anywhere leaves
        the table byte-identical to its pre-batch state."""
        rows = [self._encode(element) for element in elements]
        if not rows:
            return 0
        try:
            _with_busy_retry(
                lambda: self._connection.executemany(
                    "INSERT INTO elements VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)", rows
                )
            )
        except sqlite3.IntegrityError as error:
            self._connection.rollback()
            raise ValueError(
                "a batch element surrogate is already stored; batch rolled back"
            ) from error
        _with_busy_retry(self._connection.commit)
        self._mutations += 1
        if _metrics.enabled():
            registry = _metrics.registry()
            registry.counter("storage.sqlite.batch_appends").inc()
            registry.counter("storage.sqlite.rows_appended").inc(len(rows))
            registry.counter("storage.sqlite.commits").inc()
        return len(rows)

    def close_element(self, element_surrogate: int, tt_stop: Timestamp) -> Element:
        element = self.get(element_surrogate)  # raises if absent
        closed = element.closed(tt_stop)  # validates ordering / double delete
        _with_busy_retry(
            lambda: self._connection.execute(
                "UPDATE elements SET tt_stop = ? WHERE element_surrogate = ?",
                (tt_stop.microseconds, element_surrogate),
            )
        )
        _with_busy_retry(self._connection.commit)
        self._mutations += 1
        return closed

    # -- lookup -------------------------------------------------------------------

    def get(self, element_surrogate: int) -> Element:
        row = self._connection.execute(
            "SELECT * FROM elements WHERE element_surrogate = ?", (element_surrogate,)
        ).fetchone()
        if row is None:
            raise self._not_found(element_surrogate)
        return self._decode(row)

    def _emit(self, rows: Iterable[Tuple[Any, ...]]) -> Iterator[Element]:
        """Decode result rows, counting rows scanned when enabled."""
        if not _metrics.enabled():
            for row in rows:
                yield self._decode(row)
            return
        counter = _metrics.registry().counter("storage.sqlite.rows_scanned")
        for row in rows:
            counter.inc()
            yield self._decode(row)

    def scan(self) -> Iterator[Element]:
        cursor = self._connection.execute("SELECT * FROM elements ORDER BY tt_start")
        yield from self._emit(cursor)

    def __len__(self) -> int:
        (count,) = self._connection.execute("SELECT COUNT(*) FROM elements").fetchone()
        return count

    # -- temporal access via SQL ------------------------------------------------------

    def current(self) -> Iterator[Element]:
        cursor = self._connection.execute(
            "SELECT * FROM elements WHERE tt_stop IS NULL ORDER BY tt_start"
        )
        yield from self._emit(cursor)

    def as_of(self, tt: TimePoint) -> Iterator[Element]:
        if not isinstance(tt, Timestamp):
            if tt.is_positive:
                yield from self.current()
            return
        cursor = self._connection.execute(
            "SELECT * FROM elements WHERE tt_start <= ?"
            " AND (tt_stop IS NULL OR tt_stop > ?) ORDER BY tt_start",
            (tt.microseconds, tt.microseconds),
        )
        yield from self._emit(cursor)

    def valid_at(
        self, vt: Timestamp, as_of_tt: Optional[TimePoint] = None
    ) -> Iterator[Element]:
        if as_of_tt is not None:
            yield from super().valid_at(vt, as_of_tt)
            return
        coordinate = vt.microseconds
        cursor = self._connection.execute(
            "SELECT * FROM elements WHERE tt_stop IS NULL AND ("
            " (vt_kind = 'event' AND vt_start = ?) OR"
            " (vt_kind = 'interval' AND vt_start <= ? AND vt_end > ?)"
            ") ORDER BY tt_start",
            (coordinate, coordinate, coordinate),
        )
        yield from self._emit(cursor)

    def valid_overlapping(
        self, window: Interval, as_of_tt: Optional[TimePoint] = None
    ) -> Iterator[Element]:
        if as_of_tt is not None:
            yield from super().valid_overlapping(window, as_of_tt)
            return
        low = encode_point(window.start)
        high = encode_point(window.end)
        cursor = self._connection.execute(
            "SELECT * FROM elements WHERE tt_stop IS NULL AND ("
            " (vt_kind = 'event' AND vt_start >= ? AND vt_start < ?) OR"
            " (vt_kind = 'interval' AND vt_start < ? AND vt_end > ?)"
            ") ORDER BY tt_start",
            (low, high, high, low),
        )
        yield from self._emit(cursor)

    # -- codecs --------------------------------------------------------------------------

    @staticmethod
    def _decode(row: Tuple[Any, ...]) -> Element:
        (
            surrogate,
            object_surrogate,
            tt_start,
            tt_stop,
            vt_kind,
            vt_start,
            vt_end,
            invariant,
            varying,
            user_times,
        ) = row
        if vt_kind == "interval":
            vt: Any = Interval(decode_point(vt_start), decode_point(vt_end))
        else:
            vt = Timestamp(vt_start, "microsecond")
        return Element(
            element_surrogate=surrogate,
            object_surrogate=json.loads(object_surrogate),
            tt_start=Timestamp(tt_start, "microsecond"),
            tt_stop=FOREVER if tt_stop is None else Timestamp(tt_stop, "microsecond"),
            vt=vt,
            time_invariant=json.loads(invariant),
            time_varying=json.loads(varying),
            user_times={
                key: Timestamp(value, "microsecond")
                for key, value in json.loads(user_times).items()
            },
        )

    def max_surrogate(self) -> int:
        """Largest stored element surrogate (0 when empty); used to
        re-seed the surrogate generator when re-opening a relation."""
        (value,) = self._connection.execute(
            "SELECT COALESCE(MAX(element_surrogate), 0) FROM elements"
        ).fetchone()
        return value
