"""Framed, checksummed write-ahead-log records and torn-tail recovery.

The v1 log format produced by :class:`repro.storage.logfile.LogFileEngine`.
A log file is a magic header followed by *frames*::

    %REPRO-WAL1\\n
    [4-byte LE payload length][4-byte LE CRC32 of payload][payload]...

Each payload is one UTF-8 JSON record.  Operation records carry the
same keys as the v0 JSON-lines format (``op``/``tt``/``surrogate``/
``element``).  A committed batch is written in one of two forms, which
readers accept side by side in one file:

* **batch frame** -- ``{"op": "batch", "ops": [record, ...]}``: the whole
  batch under one length + CRC32, itself the commit.  A frame is intact
  or it is not, which is what makes ``extend()`` all-or-nothing across a
  crash;
* **records + commit marker** -- one frame per operation record, then a
  ``{"op": "commit", "n": N}`` record marking the previous *N* as one
  atomic batch (single appends / closes, batches too large for one
  frame, and every log written before batch frames existed).  Replay
  applies such a batch only once its marker has been read intact.

Recovery (:func:`recover_file`) scans the tail on open: any torn frame,
checksum failure, unparsable record, or uncommitted trailing operation
run is quarantined into a ``<path>.corrupt`` sidecar and truncated from
the log, leaving exactly the longest committed prefix.  v0 JSON-lines
logs get the analogous treatment (every complete line is its own
committed batch; a torn suffix is quarantined and truncated), so logs
written by earlier releases keep replaying transparently.

Everything here works on raw record dicts; element encoding/decoding
and the live engine live in :mod:`repro.storage.logfile`.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.observability import metrics as _metrics

#: First bytes of every v1 log.
MAGIC = b"%REPRO-WAL1\n"

#: Frame header: payload length, then CRC32 of the payload (little endian).
_FRAME_HEADER = struct.Struct("<II")

#: Upper bound on a single record; a length field beyond this is treated
#: as corruption rather than an attempt to allocate garbage.
MAX_RECORD_BYTES = 64 * 1024 * 1024

#: Record key marking a batch boundary.
COMMIT_OP = "commit"

#: Record key of a frame that carries a whole committed batch (``ops``).
BATCH_OP = "batch"


def frame_record(record: Mapping[str, Any]) -> bytes:
    """Encode one record dict as a length-prefixed, CRC32-guarded frame.

    Raises ``ValueError`` for a payload beyond :data:`MAX_RECORD_BYTES`:
    readers treat such a length as corruption, so writing it would lose
    the record and everything after it.
    """
    # Keys stay in insertion order: sorting every small dict of a 500-row
    # batch costs a fifth of the encode, and no reader depends on it.
    payload = json.dumps(record).encode("utf-8")
    if len(payload) > MAX_RECORD_BYTES:
        raise ValueError(
            f"record of {len(payload)} bytes exceeds the {MAX_RECORD_BYTES}-byte frame bound"
        )
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def commit_marker(count: int) -> bytes:
    """The frame committing the preceding *count* operation records."""
    return frame_record({"op": COMMIT_OP, "n": count})


def is_wal_bytes(head: bytes) -> bool:
    """Do these leading bytes identify a v1 framed log?"""
    return head.startswith(MAGIC)


@dataclass
class ScanResult:
    """What a tail scan of raw v1 log bytes found."""

    #: Committed operation batches, in order (batch frames unwrapped,
    #: commit markers stripped).
    batches: List[List[Dict[str, Any]]]
    #: Byte offset one past the last intact batch frame or commit marker
    #: -- the durable prefix recovery keeps.
    committed_end: int
    #: Total bytes scanned.
    total_bytes: int
    #: Why the scan stopped early (None when every frame was intact).
    damage: Optional[str]
    #: Well-formed operation records after the last commit marker; these
    #: were never committed and are discarded on recovery.
    uncommitted_records: int

    @property
    def clean(self) -> bool:
        return self.damage is None and self.uncommitted_records == 0

    @property
    def committed_operations(self) -> int:
        return sum(len(batch) for batch in self.batches)


def scan_wal(data: bytes) -> ScanResult:
    """Parse v1 log bytes, stopping at the first sign of damage.

    Never raises on damage: the result records how far the committed
    prefix extends and what the tail held, so callers can decide whether
    to truncate (the engine, ``repro recover``) or to refuse (strict
    loads).
    """
    if not data.startswith(MAGIC):
        raise ValueError("not a v1 framed log (missing %REPRO-WAL1 header)")
    offset = len(MAGIC)
    total = len(data)
    batches: List[List[Dict[str, Any]]] = []
    pending: List[Dict[str, Any]] = []
    committed_end = offset
    damage: Optional[str] = None
    while offset < total:
        if total - offset < _FRAME_HEADER.size:
            damage = f"torn frame header at byte {offset}"
            break
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        if not 0 < length <= MAX_RECORD_BYTES:
            damage = f"implausible frame length {length} at byte {offset}"
            break
        start = offset + _FRAME_HEADER.size
        end = start + length
        if end > total:
            damage = f"torn frame payload at byte {offset}"
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            damage = f"checksum mismatch at byte {offset}"
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            damage = f"unparsable record at byte {offset}"
            break
        if not isinstance(record, dict) or "op" not in record:
            damage = f"malformed record at byte {offset}"
            break
        if record["op"] == BATCH_OP:
            if pending:
                damage = (
                    f"batch frame at byte {offset} follows {len(pending)} "
                    "uncommitted operations"
                )
                break
            if not _is_operation_list(record.get("ops")):
                damage = f"malformed batch frame at byte {offset}"
                break
            batches.append(record["ops"])
            committed_end = end
        elif record["op"] == COMMIT_OP:
            if record.get("n") != len(pending):
                damage = (
                    f"commit marker at byte {offset} claims {record.get('n')} "
                    f"operations but {len(pending)} precede it"
                )
                break
            batches.append(pending)
            pending = []
            committed_end = end
        else:
            pending.append(record)
        offset = end
    return ScanResult(
        batches=batches,
        committed_end=committed_end,
        total_bytes=total,
        damage=damage,
        uncommitted_records=len(pending),
    )


def _is_operation_list(operations: Any) -> bool:
    """A batch frame's ``ops``: operation records, none itself a marker."""
    return isinstance(operations, list) and all(
        isinstance(operation, dict) and operation.get("op") not in (None, COMMIT_OP, BATCH_OP)
        for operation in operations
    )


def scan_v0(data: bytes) -> ScanResult:
    """Scan v0 JSON-lines bytes with the same contract as :func:`scan_wal`.

    Every complete, parsable line is its own committed single-operation
    batch (v0 had no batch markers); the committed prefix ends at the
    first unparsable or unterminated line.
    """
    batches: List[List[Dict[str, Any]]] = []
    committed_end = 0
    damage: Optional[str] = None
    offset = 0
    total = len(data)
    line_number = 0
    while offset < total:
        newline = data.find(b"\n", offset)
        if newline < 0:
            damage = f"unterminated final line at byte {offset}"
            break
        line_number += 1
        raw = data[offset:newline].strip()
        if raw:
            try:
                record = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                damage = f"malformed log line {line_number} at byte {offset}"
                break
            if not isinstance(record, dict) or "op" not in record:
                damage = f"malformed log line {line_number} at byte {offset}"
                break
            batches.append([record])
        offset = newline + 1
        committed_end = offset
    return ScanResult(
        batches=batches,
        committed_end=committed_end,
        total_bytes=total,
        damage=damage,
        uncommitted_records=0,
    )


@dataclass
class RecoveryReport:
    """What recovery did (or, dry-run, would do) to one log file."""

    path: str
    format: str  # "v0" | "v1"
    total_bytes: int
    committed_bytes: int
    committed_batches: int
    committed_operations: int
    truncated_bytes: int
    discarded_records: int
    damage: Optional[str]
    sidecar: Optional[str]
    dry_run: bool

    @property
    def clean(self) -> bool:
        return self.truncated_bytes == 0

    def render(self) -> str:
        lines = [
            f"log       : {self.path}",
            f"format    : {self.format}",
            f"size      : {self.total_bytes} bytes",
            (
                f"committed : {self.committed_batches} batches, "
                f"{self.committed_operations} operations, "
                f"{self.committed_bytes} bytes"
            ),
        ]
        if self.clean:
            lines.append("damage    : none")
            return "\n".join(lines)
        lines.append(f"damage    : {self.damage or 'uncommitted trailing operations'}")
        detail = (
            f"{self.truncated_bytes} bytes "
            f"({self.discarded_records} uncommitted operation records)"
        )
        if self.dry_run:
            lines.append(f"action    : none (dry run); would truncate {detail}")
        else:
            lines.append(f"action    : truncated {detail}")
            lines.append(f"sidecar   : {self.sidecar}")
        return "\n".join(lines)


def sidecar_path(path: str) -> str:
    return path + ".corrupt"


def _count_recovery(report: RecoveryReport) -> None:
    if not _metrics.enabled():
        return
    registry = _metrics.registry()
    registry.counter("storage.logfile.recovery.scans").inc()
    registry.counter("storage.logfile.recovery.batches_replayed").inc(
        report.committed_batches
    )
    registry.counter("storage.logfile.recovery.ops_replayed").inc(
        report.committed_operations
    )
    if not report.clean and not report.dry_run:
        registry.counter("storage.logfile.recovery.truncations").inc()
        registry.counter("storage.logfile.recovery.truncated_bytes").inc(
            report.truncated_bytes
        )
        registry.counter("storage.logfile.recovery.ops_discarded").inc(
            report.discarded_records
        )


def recover_file(
    path: str, dry_run: bool = False
) -> Tuple[List[List[Dict[str, Any]]], RecoveryReport]:
    """Scan *path*, quarantine + truncate any non-committed suffix.

    Returns the committed operation batches (raw record dicts, ready for
    replay) and a report.  With ``dry_run`` the file is left untouched
    and no sidecar is written.  Format (v0 JSON lines vs v1 frames) is
    detected from the header, so logs written by earlier releases
    recover through the same entry point.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if is_wal_bytes(data):
        log_format, result = "v1", scan_wal(data)
    else:
        log_format, result = "v0", scan_v0(data)
    truncated = result.total_bytes - result.committed_end
    sidecar: Optional[str] = None
    if truncated and not dry_run:
        sidecar = sidecar_path(path)
        with open(sidecar, "ab") as quarantine:
            quarantine.write(data[result.committed_end :])
        with open(path, "r+b") as handle:
            handle.truncate(result.committed_end)
            handle.flush()
            os.fsync(handle.fileno())
    report = RecoveryReport(
        path=path,
        format=log_format,
        total_bytes=result.total_bytes,
        committed_bytes=result.committed_end,
        committed_batches=len(result.batches),
        committed_operations=result.committed_operations,
        truncated_bytes=truncated,
        discarded_records=result.uncommitted_records,
        damage=result.damage,
        sidecar=sidecar,
        dry_run=dry_run,
    )
    _count_recovery(report)
    return result.batches, report
