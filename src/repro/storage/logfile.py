"""Durable backlog persistence: the framed WAL and its JSON-lines ancestor.

The backlog representation [JMRS90] is naturally a log; this module
serializes it one operation record at a time, giving the in-memory
engines a durability/replication story: write the log as
updates happen (or export post hoc), ship it, replay it elsewhere.

Two formats are understood everywhere:

* **v1** (written by default) -- the framed, checksummed WAL of
  :mod:`repro.storage.wal`: length-prefixed CRC32-guarded JSON frames,
  a bulk batch in one frame and single operations under a commit
  marker, so replay is all-or-nothing per batch and a torn tail is
  recoverable instead of fatal.
* **v0** (legacy, still read and writable) -- bare JSON lines
  ``{"op": "insert"|"delete", "tt": micro, "surrogate": n, ...}`` with
  insert lines carrying the full element payload.

Timestamps are microsecond integers on the shared exact time-line;
attribute values must be JSON-serializable (the same contract as the
wire protocol).

:class:`LogFileEngine` turns the format into a live storage engine: a
:class:`~repro.storage.memory.MemoryEngine` that writes every mutation
to a write-ahead log on disk before applying it.
Single appends flush and fsync per operation (each acknowledged update
is durable); :meth:`LogFileEngine.extend` writes the whole batch as one
frame and fsyncs once -- the batched-ingestion durability
amortization.  Re-opening an existing log runs torn-tail recovery
first (:func:`repro.storage.wal.recover_file`), then replays exactly
the committed prefix.
"""

from __future__ import annotations

import json
import os
from typing import IO, Any, Dict, Iterable, Iterator, List, Optional

from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.observability import metrics as _metrics
from repro.relation.element import Element, build_trusted, frozen_map
from repro.storage import wal
from repro.storage.backlog import Backlog, Operation, OperationKind
from repro.storage.columnar import decode_point, encode_point
from repro.storage.memory import MemoryEngine
from repro.storage.wal import RecoveryReport, recover_file

#: The sharded serve mode (deleted in PR 22, EXPERIMENTS.md E20) kept a
#: relation as a directory ``{name}.shards/`` holding this manifest and
#: one ``shard-NNN.log`` per shard.  No reader is kept: the server and
#: the CLI refuse such a directory with one message, never shadow it.
SHARDS_MANIFEST = "shards.manifest"
SHARDS_REMOVED = (
    "sharded data directories were removed in PR 22; "
    "open them at the previous release and re-ingest"
)
#: Nor is a reader kept for the retired relational engine's one file per
#: relation; the server refuses it by name.
SQLITE_REMOVED = (
    "the SQLite engine was removed; open this relation's .sqlite file "
    "at the previous release and re-ingest"
)

def _encode_element(element: Element) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "surrogate": element.element_surrogate,
        "object": element.object_surrogate,
        "tt_start": element.tt_start.microseconds,
        "invariant": element.time_invariant,  # read-only maps need no copy
        "varying": element.time_varying,
        "user_times": {k: v.microseconds for k, v in element.user_times.items()},
    }
    if isinstance(element.vt, Interval):
        record["vt"] = [encode_point(element.vt.start), encode_point(element.vt.end)]
    else:
        record["vt"] = element.vt.microseconds
    return record


def _decode_element(record: Dict[str, Any]) -> Element:
    raw_vt = record["vt"]
    if isinstance(raw_vt, list):
        vt: Any = Interval(decode_point(raw_vt[0]), decode_point(raw_vt[1]))
    else:
        vt = Timestamp(raw_vt, "microsecond")
    user = {key: Timestamp(value, "microsecond") for key, value in record["user_times"].items()}
    return build_trusted(
        record["surrogate"], record["object"], Timestamp(record["tt_start"], "microsecond"), vt,
        frozen_map(record["invariant"]), frozen_map(record["varying"]), frozen_map(user),
    )


# -- operation <-> record codecs ----------------------------------------------------


def _operation_record(
    operation: Operation, replaced_by: Optional[int] = None
) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "op": operation.kind.value,
        "tt": operation.tt.microseconds,
        "surrogate": operation.element_surrogate,
    }
    if operation.kind is OperationKind.INSERT:
        record["element"] = _encode_element(operation.element)  # type: ignore[arg-type]
    elif replaced_by is not None:
        # Modification lineage: this deletion and the insertion of
        # `replaced_by` are two halves of one modification.
        record["replaced_by"] = replaced_by
    return record


def _decode_record(record: Dict[str, Any]) -> Operation:
    kind = OperationKind(record["op"])
    tt = Timestamp(record["tt"], "microsecond")
    if kind is OperationKind.INSERT:
        return Operation(kind, tt, record["surrogate"], _decode_element(record["element"]))
    return Operation(kind, tt, record["surrogate"])


def _modification_pairs(operations: List[Operation]) -> Dict[int, int]:
    """Map each DELETE's position to the surrogate of its INSERT half.

    Inside a valid :class:`Backlog`, transaction times are strictly
    increasing *except* across the DELETE/INSERT pair written by
    ``record_modification`` -- so same-stamp adjacency is a sound
    lineage witness at dump time (the reader cannot assume this for
    arbitrary logs, which is why the record carries ``replaced_by``).
    """
    pairs: Dict[int, int] = {}
    for position in range(len(operations) - 1):
        first, second = operations[position], operations[position + 1]
        if (
            first.kind is OperationKind.DELETE
            and second.kind is OperationKind.INSERT
            and first.tt == second.tt
        ):
            pairs[position] = second.element_surrogate
    return pairs


# -- dumping ------------------------------------------------------------------------


def dump_operations(operations: Iterable[Operation], stream: IO[str]) -> int:
    """Write operations as v0 JSON lines; returns the line count.

    The portable text export.  Deletions that form a modification pair
    (same stamp as the following insertion) carry a ``replaced_by``
    lineage marker so readers never have to guess from timestamps.
    """
    ordered = list(operations)
    pairs = _modification_pairs(ordered)
    count = 0
    for position, operation in enumerate(ordered):
        record = _operation_record(operation, replaced_by=pairs.get(position))
        stream.write(json.dumps(record, sort_keys=True))
        stream.write("\n")
        count += 1
    return count


def dump_operations_framed(operations: Iterable[Operation], stream: IO[bytes]) -> int:
    """Write operations as a v1 framed WAL; returns the operation count.

    Each operation is its own committed batch, except modification
    pairs, which share one commit marker (they are atomic on replay).
    """
    ordered = list(operations)
    pairs = _modification_pairs(ordered)
    stream.write(wal.MAGIC)
    count = 0
    position = 0
    while position < len(ordered):
        if position in pairs:
            batch = ordered[position : position + 2]
            records = [
                _operation_record(batch[0], replaced_by=pairs[position]),
                _operation_record(batch[1]),
            ]
            position += 2
        else:
            records = [_operation_record(ordered[position])]
            position += 1
        for record in records:
            stream.write(wal.frame_record(record))
        stream.write(wal.commit_marker(len(records)))
        count += len(records)
    return count


def dump_backlog(backlog: Backlog, path: str, format: str = "v1") -> int:
    """Persist a backlog to *path* in the given format (default v1)."""
    if format == "v1":
        with open(path, "wb") as handle:
            return dump_operations_framed(backlog.operations, handle)
    if format == "v0":
        with open(path, "w", encoding="utf-8") as handle:
            return dump_operations(backlog.operations, handle)
    raise ValueError(f"unknown log format {format!r} (expected 'v0' or 'v1')")


# -- loading ------------------------------------------------------------------------


def load_operations(stream: IO[str]) -> Iterator[Operation]:
    """Parse v0 JSON lines back into operations (blank lines skipped).

    Strict: raises :class:`ValueError` on any malformed line.  For
    damage-tolerant reading, use :func:`repro.storage.wal.recover_file`
    (or ``repro recover`` from the command line).
    """
    for line_number, line in enumerate(stream, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"malformed log line {line_number}: {error}") from None
        yield _decode_record(record)


def read_log_batches(path: str) -> Iterator[List[Operation]]:
    """Committed operation batches from a v0 or v1 log file (strict).

    Format is detected from the file header.  Raises ``ValueError`` on
    any damage -- torn tails are a recovery decision, not one a plain
    read should take silently.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    result = wal.scan_wal(data) if wal.is_wal_bytes(data) else wal.scan_v0(data)
    if result.damage is not None:
        raise ValueError(
            f"{result.damage}; run `repro recover {path}` to truncate the damaged tail"
        )
    if result.uncommitted_records:
        raise ValueError(
            f"{result.uncommitted_records} uncommitted trailing operation(s); "
            f"run `repro recover {path}` to truncate them"
        )
    for batch in result.batches:
        yield [_decode_record(record) for record in batch]


def load_backlog(path: str) -> Backlog:
    """Rebuild a backlog (with its live-state cache) from a log file.

    Modification pairs (a DELETE and an INSERT sharing one transaction
    stamp) are re-joined by **surrogate lineage**: the ``replaced_by``
    marker when the log carries one, otherwise the deleted element's
    object surrogate must match the insertion's.  Coincident but
    unrelated operations (one transaction touching several objects)
    stay separate operations sharing the stamp.
    """
    backlog = Backlog()
    live_objects: Dict[int, Any] = {}
    pending: Optional[Dict[str, Any]] = None  # an unflushed DELETE record

    def flush(pending_record: Optional[Dict[str, Any]]) -> None:
        if pending_record is None:
            return
        surrogate = pending_record["surrogate"]
        backlog.record_delete(
            surrogate,
            Timestamp(pending_record["tt"], "microsecond"),
            coincident=pending_record["tt"] == _last_tt(),
        )
        live_objects.pop(surrogate, None)

    def _last_tt() -> Optional[int]:
        operations = backlog.operations
        return operations[-1].tt.microseconds if operations else None

    for batch in read_log_batches(path):
        for operation in batch:
            record_tt = operation.tt.microseconds
            if operation.kind is OperationKind.INSERT:
                element = operation.element
                assert element is not None
                if pending is not None and pending["tt"] == record_tt:
                    lineage = pending.get("replaced_by")
                    paired = (
                        lineage == element.element_surrogate
                        if lineage is not None
                        else live_objects.get(pending["surrogate"])
                        == element.object_surrogate
                    )
                    if paired:
                        backlog.record_modification(pending["surrogate"], element)
                        live_objects.pop(pending["surrogate"], None)
                        live_objects[element.element_surrogate] = element.object_surrogate
                        pending = None
                        continue
                flush(pending)
                pending = None
                backlog.record_insert(element, coincident=record_tt == _last_tt())
                live_objects[element.element_surrogate] = element.object_surrogate
            else:
                flush(pending)
                pending = _raw_delete_record(operation)
    flush(pending)
    return backlog


def _raw_delete_record(operation: Operation) -> Dict[str, Any]:
    return {
        "op": operation.kind.value,
        "tt": operation.tt.microseconds,
        "surrogate": operation.element_surrogate,
    }


class LogFileEngine(MemoryEngine):
    """A durable storage engine: a :class:`MemoryEngine` that logs first.

    The write protocol is *validate, write, apply*: every mutation is
    validated against the in-memory state first (a rejected mutation
    touches nothing), then written and fsynced to the log, and only
    then applied in memory -- so memory never acknowledges state that
    is not durable, and a failed disk write (ENOSPC, fsync error) leaves
    it exactly as it was.  Reads are the inherited in-memory ones (with
    their transaction-time / valid-time indexes and the same
    pinned-paths-only thread-safety guarantee).

    Durability granularity is the point of the class:

    * :meth:`append` / :meth:`close_element` write one committed batch
      and flush+fsync per operation;
    * :meth:`extend` encodes the whole batch as one frame (one length,
      one CRC32, itself the commit), writes it in one call, and fsyncs
      once -- the per-batch amortization batched ingestion relies on,
      all-or-nothing across a crash by construction.

    Re-opening an existing log first runs torn-tail recovery
    (:attr:`last_recovery` reports what it did), then replays the
    committed prefix through the in-memory mutators, runs of insertions
    in bulk.  Legacy v0 JSON-lines logs are detected and kept in their
    own format; new logs are v1.
    """

    def __init__(
        self,
        path: str,
        fsync: bool = True,
        segment_size: Optional[int] = None,
        tier_dir: Optional[str] = None,
    ) -> None:
        super().__init__(segment_size=segment_size, tier_dir=tier_dir)
        self._path = path
        self._fsync = fsync
        self._failed = False
        self.last_recovery: Optional[RecoveryReport] = None
        self._format = "v1"
        if os.path.exists(path) and os.path.getsize(path) > 0:
            self._recover_and_replay()
            if os.path.getsize(path) == 0:
                # Recovery truncated everything (e.g. a crash inside the
                # very first record): start the file over as v1.
                with open(path, "wb") as handle:
                    handle.write(wal.MAGIC)
                self._format = "v1"
        else:
            with open(path, "wb") as handle:
                handle.write(wal.MAGIC)
        self._handle: IO[bytes] = open(path, "ab")
        self._offset = os.path.getsize(path)

    def _recover_and_replay(self) -> None:
        batches, report = recover_file(self._path)
        self.last_recovery = report
        self._format = report.format
        # Runs of consecutive insertions replay through one bulk extend
        # (every batch here is committed, so a run may span batches);
        # deletions apply in order between the runs.  Replay applies in
        # memory only: the records are already in the log.
        run: List[Element] = []
        for batch in batches:
            for record in batch:
                operation = _decode_record(record)
                if operation.kind is OperationKind.INSERT:
                    run.append(operation.element)  # type: ignore[arg-type]
                else:
                    super().extend(run)
                    run = []
                    super().close_element(operation.element_surrogate, operation.tt)
        super().extend(run)

    # -- log writing --------------------------------------------------------------

    @staticmethod
    def _insert_record(element: Element) -> Dict[str, Any]:
        return {
            "op": OperationKind.INSERT.value,
            "tt": element.tt_start.microseconds,
            "surrogate": element.element_surrogate,
            "element": _encode_element(element),
        }

    def _encode_batch(self, records: List[Dict[str, Any]]) -> bytes:
        """One committed batch in the engine's on-disk format."""
        if self._format == "v0":
            # Legacy logs stay JSON lines (no markers: each line is its
            # own commit, exactly as the v0 reader expects).
            return b"".join(
                json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
                for record in records
            )
        if len(records) > 1:
            try:
                return wal.frame_record({"op": wal.BATCH_OP, "ops": records})
            except ValueError:
                pass  # too large for one frame: per-record frames under a marker
        framed = b"".join(wal.frame_record(record) for record in records)
        return framed + wal.commit_marker(len(records))

    def _sync(self) -> None:
        self._handle.flush()
        if self._fsync:
            fsync = getattr(self._handle, "fsync", None)
            if fsync is not None:
                # Fault-injection handles provide their own fsync.
                fsync()
            else:
                os.fsync(self._handle.fileno())
            if _metrics.enabled():
                _metrics.registry().counter("storage.logfile.fsyncs").inc()

    def _commit(self, payload: bytes) -> None:
        """Write+sync one committed batch; on failure, repair the tail.

        After a failed write the on-disk tail may hold a torn frame.
        Recovery would discard it on the next open, but this process
        may keep writing -- so the tail is truncated back to the last
        committed offset *now*, keeping later acknowledged writes
        replayable.
        """
        if self._failed:
            raise OSError(
                f"log file {self._path} is in a failed state after an unrepairable write error"
            )
        try:
            self._handle.write(payload)
            self._sync()
        except Exception:
            self._repair_tail()
            raise
        self._offset += len(payload)
        if _metrics.enabled():
            _metrics.registry().counter("storage.logfile.bytes_written").inc(len(payload))

    def _repair_tail(self) -> None:
        """Drop buffered bytes and truncate the file to the committed
        offset (best effort; marks the engine failed if it cannot)."""
        try:
            self._handle.close()  # drops the user-space buffer with the fd
        except OSError:
            pass
        try:
            with open(self._path, "r+b") as handle:
                handle.truncate(self._offset)
                handle.flush()
                os.fsync(handle.fileno())
            self._handle = open(self._path, "ab")
        except OSError:
            self._failed = True
            if _metrics.enabled():
                _metrics.registry().counter("storage.logfile.write_failures").inc()
            return
        if _metrics.enabled():
            _metrics.registry().counter("storage.logfile.write_rollbacks").inc()

    # -- mutation -----------------------------------------------------------------

    def append(self, element: Element) -> None:
        self.validate_append(element)  # raises before any I/O
        self._commit(self._encode_batch([self._insert_record(element)]))
        super().append(element)  # cannot fail: validated above

    def extend(self, elements: Iterable[Element]) -> int:
        """Store a batch with one buffered write and one fsync."""
        batch = list(elements)
        if not batch:
            return 0
        self.validate_extend(batch)  # all-or-nothing; raises before I/O
        records = [self._insert_record(element) for element in batch]
        self._commit(self._encode_batch(records))
        return super().extend(batch)

    def close_element(self, element_surrogate: int, tt_stop: Timestamp) -> Element:
        self.validate_close(element_surrogate, tt_stop)
        record = {
            "op": OperationKind.DELETE.value,
            "tt": tt_stop.microseconds,
            "surrogate": element_surrogate,
        }
        self._commit(self._encode_batch([record]))
        return super().close_element(element_surrogate, tt_stop)

    # -- lifecycle ------------------------------------------------------------------

    def sync(self) -> None:
        """Flush and fsync the log now (graceful-shutdown durability point).

        Every acknowledged mutation is already durable; this exists for
        callers -- the server's shutdown path -- that want an explicit
        final durability barrier before releasing the file.
        """
        if not self._handle.closed and not self._failed:
            self._sync()

    def close(self) -> None:
        if not self._handle.closed:
            if not self._failed:
                self._sync()
            self._handle.close()
        super().close()

    def __enter__(self) -> "LogFileEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def path(self) -> str:
        return self._path

    @property
    def log_format(self) -> str:
        """The on-disk format this engine reads and appends ("v0"/"v1")."""
        return self._format

    def log_bytes(self) -> int:
        """Current size of the on-disk log (after a flush)."""
        self._handle.flush()
        return os.stat(self._path).st_size
