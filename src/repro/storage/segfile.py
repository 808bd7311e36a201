"""The ``.seg`` segment file: compressed stamp columns + element payloads.

One file per sealed segment, written by the tier manager
(:mod:`repro.storage.tiered`) when a segment demotes to the cold tier.
The paper's recognized regularities are exactly what make the columns
compressible: ``tt_start`` is globally sorted (append order *is*
transaction order) so it delta-encodes into a few bits per row;
``tt_stop`` is FOREVER-heavy and the live bitmap is long runs of ones,
so both run-length encode; valid times of event runs are often
clustered enough for a dictionary.  Every encoder is tried and the
smallest encoding wins, with raw int64 as the always-available
fallback -- a column never grows past 8 bytes/row.

File layout (all integers little-endian)::

    %REPRO-SEG1\\n                        magic, 12 bytes
    <column payloads><element payload>    byte blocks, footer-indexed
    <footer JSON>                         names, offsets, lengths, CRCs
    [footer_len u32][footer_crc u32]SEG1END\\n   fixed 16-byte trailer

The footer indexes every block with a CRC32, so a torn or corrupted
file is detected on open (trailer/footer) or on first decode (block
CRC) and never served -- the write-ahead log stays the durability
root, and a damaged segment file is simply rebuilt from it.  Writes
follow the WAL/manifest discipline: write-new, fsync, atomic rename.

The delta encoding is block-structured: a block index holds each
block's absolute first value, so :meth:`SegmentFileReader.bisect_right`
binary-searches the index and decodes at most ONE block -- the
transaction-time bisect fast path works on the compressed form without
decompressing the column.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from array import array
from itertools import accumulate
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, NEGATIVE_INFINITY, Timestamp
from repro.relation.element import Element, build_trusted, frozen_map
from repro.storage.columnar import NEG_SENTINEL, POS_SENTINEL

MAGIC = b"%REPRO-SEG1\n"
TRAILER_MAGIC = b"SEG1END\n"
_TRAILER = struct.Struct("<II8s")

#: Values per delta block; the unit the compressed bisect decodes.
DELTA_BLOCK = 256

#: The stamp columns every segment file carries, in payload order.
COLUMN_NAMES = ("tt_start", "tt_stop", "vt_start", "vt_stop", "live")

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_INDEX_ENTRY = struct.Struct("<qI")


class SegmentFileError(Exception):
    """A segment file is torn, corrupt, or structurally invalid."""


# -- varint / zigzag primitives -------------------------------------------------------


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63)


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _write_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(buffer: bytes, offset: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(buffer):
            raise SegmentFileError("truncated varint")
        byte = buffer[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise SegmentFileError("varint overflow")


# -- column encodings -----------------------------------------------------------------
#
# Each encoder returns the payload bytes for one int64 sequence; the
# footer records which encoding a column used.  Decoders verify the row
# count so a wrong-but-checksummed block still fails loudly.


def _encode_raw(values: Sequence[int]) -> bytes:
    return _U32.pack(len(values)) + array("q", values).tobytes()


def _decode_raw(buffer: bytes) -> "array[int]":
    (count,) = _U32.unpack_from(buffer, 0)
    column = array("q")
    column.frombytes(buffer[4 : 4 + count * 8])
    if len(column) != count:
        raise SegmentFileError("raw column truncated")
    return column


def _encode_rle(values: Sequence[int]) -> bytes:
    out = bytearray(_U32.pack(len(values)))
    runs = bytearray()
    nruns = 0
    index = 0
    total = len(values)
    while index < total:
        value = values[index]
        run = index + 1
        while run < total and values[run] == value:
            run += 1
        _write_varint(runs, _zigzag(value))
        _write_varint(runs, run - index)
        nruns += 1
        index = run
    out += _U32.pack(nruns)
    out += runs
    return bytes(out)


def _decode_rle(buffer: bytes) -> "array[int]":
    (count,) = _U32.unpack_from(buffer, 0)
    (nruns,) = _U32.unpack_from(buffer, 4)
    column = array("q")
    offset = 8
    for _ in range(nruns):
        raw, offset = _read_varint(buffer, offset)
        length, offset = _read_varint(buffer, offset)
        column.extend([_unzigzag(raw)] * length)
    if len(column) != count:
        raise SegmentFileError("rle column row count mismatch")
    return column


def _encode_dict(values: Sequence[int], distinct: List[int]) -> bytes:
    out = bytearray(_U32.pack(len(values)))
    out += _U32.pack(len(distinct))
    for value in distinct:
        out += _I64.pack(value)
    codes = {value: code for code, value in enumerate(distinct)}
    body = bytearray()
    for value in values:
        _write_varint(body, codes[value])
    out += body
    return bytes(out)


def _decode_dict(buffer: bytes) -> "array[int]":
    (count,) = _U32.unpack_from(buffer, 0)
    (nvalues,) = _U32.unpack_from(buffer, 4)
    offset = 8
    table = array("q")
    table.frombytes(buffer[offset : offset + nvalues * 8])
    if len(table) != nvalues:
        raise SegmentFileError("dict table truncated")
    offset += nvalues * 8
    column = array("q")
    for _ in range(count):
        code, offset = _read_varint(buffer, offset)
        if code >= nvalues:
            raise SegmentFileError("dict code out of range")
        column.append(table[code])
    return column


def _encode_delta(values: Sequence[int]) -> bytes:
    """Block-structured delta+varint for a non-decreasing sequence.

    Layout: ``u32 count | u32 block | u32 nblocks | nblocks * (i64
    first, u32 offset) | payload``.  Each block's payload is the zigzag
    varint deltas of its values after the first; the index entry holds
    the block's absolute first value and payload byte offset, which is
    what lets :func:`_delta_bisect_right` touch one block only.
    """
    count = len(values)
    nblocks = (count + DELTA_BLOCK - 1) // DELTA_BLOCK
    index = bytearray()
    payload = bytearray()
    for block in range(nblocks):
        start = block * DELTA_BLOCK
        stop = min(start + DELTA_BLOCK, count)
        index += _INDEX_ENTRY.pack(values[start], len(payload))
        previous = values[start]
        for position in range(start + 1, stop):
            value = values[position]
            _write_varint(payload, _zigzag(value - previous))
            previous = value
    return bytes(
        _U32.pack(count) + _U32.pack(DELTA_BLOCK) + _U32.pack(nblocks) + index + payload
    )


def _delta_header(buffer: bytes) -> Tuple[int, int, int, int, int]:
    (count,) = _U32.unpack_from(buffer, 0)
    (block,) = _U32.unpack_from(buffer, 4)
    (nblocks,) = _U32.unpack_from(buffer, 8)
    if block < 1 or nblocks != (count + block - 1) // max(block, 1):
        raise SegmentFileError("delta column header invalid")
    index_at = 12
    payload_at = index_at + nblocks * _INDEX_ENTRY.size
    if payload_at > len(buffer):
        raise SegmentFileError("delta column index truncated")
    return count, block, nblocks, index_at, payload_at


def _delta_block_values(
    buffer: bytes, header: Tuple[int, int, int, int, int], which: int
) -> "array[int]":
    count, block, nblocks, index_at, payload_at = header
    first, offset = _INDEX_ENTRY.unpack_from(buffer, index_at + which * _INDEX_ENTRY.size)
    rows = min(block, count - which * block)
    values = array("q", [first])
    at = payload_at + offset
    previous = first
    for _ in range(rows - 1):
        raw, at = _read_varint(buffer, at)
        previous += _unzigzag(raw)
        values.append(previous)
    return values


def _decode_delta(buffer: bytes) -> "array[int]":
    header = _delta_header(buffer)
    count, _block, nblocks = header[0], header[1], header[2]
    column = array("q")
    for which in range(nblocks):
        column.extend(_delta_block_values(buffer, header, which))
    if len(column) != count:
        raise SegmentFileError("delta column row count mismatch")
    return column


def _delta_bisect_right(buffer: bytes, probe: int) -> int:
    """``bisect_right`` over the encoded column, decoding at most one block."""
    header = _delta_header(buffer)
    count, block, nblocks, index_at, _payload_at = header
    if count == 0:
        return 0
    # Binary search the block firsts for the last block whose first <= probe.
    lo, hi = 0, nblocks
    while lo < hi:
        mid = (lo + hi) // 2
        first, _offset = _INDEX_ENTRY.unpack_from(buffer, index_at + mid * _INDEX_ENTRY.size)
        if first <= probe:
            lo = mid + 1
        else:
            hi = mid
    if lo == 0:
        return 0  # probe precedes every value
    which = lo - 1
    values = _delta_block_values(buffer, header, which)
    from bisect import bisect_right

    return which * block + bisect_right(values, probe)


def encode_column(values: Sequence[int], non_decreasing: Optional[bool] = None) -> Tuple[str, bytes]:
    """The smallest applicable encoding for one int64 sequence.

    Candidates: delta+varint (non-decreasing sequences), run-length
    (repetitive sequences), dictionary (few distinct values), raw
    (always).  Deterministic: smallest payload wins, ties break toward
    the earlier candidate in that order.
    """
    candidates: List[Tuple[str, bytes]] = []
    if non_decreasing is None:
        non_decreasing = all(b >= a for a, b in zip(values, values[1:]))
    if non_decreasing:
        candidates.append(("delta", _encode_delta(values)))
    runs = 1 + sum(1 for a, b in zip(values, values[1:]) if a != b) if values else 0
    if runs * 11 < 8 * len(values):
        candidates.append(("rle", _encode_rle(values)))
    distinct = sorted(set(values))
    if len(distinct) <= 256 and values:
        candidates.append(("dict", _encode_dict(values, distinct)))
    candidates.append(("raw", _encode_raw(values)))
    return min(candidates, key=lambda candidate: len(candidate[1]))


_DECODERS = {
    "raw": _decode_raw,
    "rle": _decode_rle,
    "dict": _decode_dict,
    "delta": _decode_delta,
}


def decode_column(encoding: str, buffer: bytes) -> "array[int]":
    decoder = _DECODERS.get(encoding)
    if decoder is None:
        raise SegmentFileError(f"unknown column encoding {encoding!r}")
    return decoder(buffer)


# -- element payload codec ------------------------------------------------------------
#
# The same JSON shape the write-ahead log uses (proven round-trip by the
# durability suite), plus the ``tt_stop`` endpoint: the WAL reconstructs
# closes by replaying delete operations, but a segment file snapshots
# elements as stored, closed ones included.


def _encode_ts(ts: Timestamp) -> Any:
    """A timestamp as JSON: a bare microsecond count, or
    ``[ticks, granularity]`` when the granularity is coarser -- the
    repr-exact form the differential suites require (granularity is
    observable through ``repr`` even though coarse and fine stamps at
    the same instant compare equal)."""
    granularity = ts.granularity
    if granularity.value == 1:
        return ts.microseconds
    return [ts.ticks, granularity.name.lower()]


def _decode_ts(raw: Any) -> Timestamp:
    if isinstance(raw, list):
        return Timestamp(raw[0], raw[1])
    return Timestamp(raw, "microsecond")


def _encode_point(point: Any) -> Any:
    if isinstance(point, Timestamp):
        return _encode_ts(point)
    return POS_SENTINEL if point.is_positive else NEG_SENTINEL


def _decode_point(raw: Any) -> Any:
    if isinstance(raw, list):
        return _decode_ts(raw)
    if raw >= POS_SENTINEL:
        return FOREVER
    if raw <= NEG_SENTINEL:
        return NEGATIVE_INFINITY
    return Timestamp(raw, "microsecond")


def encode_element(element: Element) -> bytes:
    record: Dict[str, Any] = {
        "surrogate": element.element_surrogate,
        "object": element.object_surrogate,
        "tt_start": _encode_ts(element.tt_start),
        "tt_stop": _encode_point(element.tt_stop),
        "invariant": dict(element.time_invariant),
        "varying": dict(element.time_varying),
        "user_times": {k: _encode_ts(v) for k, v in element.user_times.items()},
    }
    # Distinct keys keep event and interval shapes unambiguous (an event
    # stamp with coarse granularity also encodes as a list).
    if isinstance(element.vt, Interval):
        record["vt_ivl"] = [_encode_point(element.vt.start), _encode_point(element.vt.end)]
    else:
        record["vt"] = _encode_ts(element.vt)
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_element(payload: bytes) -> Element:
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SegmentFileError(f"element payload undecodable: {error}") from error
    if "vt_ivl" in record:
        raw_ivl = record["vt_ivl"]
        vt: Any = Interval(_decode_point(raw_ivl[0]), _decode_point(raw_ivl[1]))
    else:
        vt = _decode_ts(record["vt"])
    user = {key: _decode_ts(value) for key, value in record["user_times"].items()}
    return build_trusted(
        record["surrogate"], record["object"], _decode_ts(record["tt_start"]), vt,
        frozen_map(record["invariant"]), frozen_map(record["varying"]), frozen_map(user),
        _decode_point(record["tt_stop"]),
    )


def _encode_elements_block(elements: Sequence[Element]) -> bytes:
    payloads = [encode_element(element) for element in elements]
    out = bytearray(_U32.pack(len(payloads)))
    for payload in payloads:
        out += _U32.pack(len(payload))
    for payload in payloads:
        out += payload
    return bytes(out)


# -- writing --------------------------------------------------------------------------


def write_segment_file(
    path: str,
    elements: Sequence[Element],
    columns: Dict[str, Sequence[int]],
    unit_only: bool,
    zone: Optional[Dict[str, int]] = None,
) -> Dict[str, Any]:
    """Write one segment file crash-safely; returns the footer written.

    *columns* maps each of :data:`COLUMN_NAMES` to its int sequence
    (``live`` as 0/1 ints).  Discipline: write ``path + ".tmp"``, flush,
    fsync, then atomically rename over *path* -- a crash leaves either
    the old file or the new one, never a torn mix (torn tmp files are
    ignored by every reader).
    """
    blocks: List[bytes] = []
    footer_columns: Dict[str, Dict[str, Any]] = {}
    offset = len(MAGIC)
    for name in COLUMN_NAMES:
        values = columns[name]
        encoding, payload = encode_column(values, non_decreasing=(name == "tt_start") or None)
        blocks.append(payload)
        footer_columns[name] = {
            "enc": encoding,
            "off": offset,
            "len": len(payload),
            "crc": zlib.crc32(payload),
        }
        offset += len(payload)
    element_block = _encode_elements_block(elements)
    blocks.append(element_block)
    footer: Dict[str, Any] = {
        "format": 1,
        "rows": len(elements),
        "unit_only": unit_only,
        "columns": footer_columns,
        "elements": {
            "off": offset,
            "len": len(element_block),
            "crc": zlib.crc32(element_block),
        },
    }
    if zone:
        footer["zone"] = zone
    footer_bytes = json.dumps(footer, sort_keys=True, separators=(",", ":")).encode("utf-8")
    trailer = _TRAILER.pack(len(footer_bytes), zlib.crc32(footer_bytes), TRAILER_MAGIC)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(MAGIC)
        for block in blocks:
            handle.write(block)
        handle.write(footer_bytes)
        handle.write(trailer)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return footer


# -- reading --------------------------------------------------------------------------


class SegmentFileReader:
    """An mmap-backed, lazily-decoded view of one segment file.

    Opening validates the magic, trailer, and footer checksum -- a torn
    or truncated file raises :class:`SegmentFileError` immediately.
    Column payloads stay on the mapping until first use; each column
    decode verifies the block's CRC32 first and the element block is
    verified once, on first use, so flipped bytes inside a payload are
    caught before any value is served.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._file = open(path, "rb")
        try:
            size = os.fstat(self._file.fileno()).st_size
            if size < len(MAGIC) + _TRAILER.size:
                raise SegmentFileError(f"{path}: too short to be a segment file")
            self._map: mmap.mmap = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except SegmentFileError:
            self._file.close()
            raise
        except (OSError, ValueError) as error:
            self._file.close()
            raise SegmentFileError(f"{path}: cannot map: {error}") from error
        try:
            if self._map[: len(MAGIC)] != MAGIC:
                raise SegmentFileError(f"{path}: bad magic")
            footer_len, footer_crc, trailer_magic = _TRAILER.unpack(
                self._map[size - _TRAILER.size :]
            )
            if trailer_magic != TRAILER_MAGIC:
                raise SegmentFileError(f"{path}: bad trailer (torn write?)")
            footer_at = size - _TRAILER.size - footer_len
            if footer_at < len(MAGIC):
                raise SegmentFileError(f"{path}: footer length exceeds file")
            footer_bytes = bytes(self._map[footer_at : footer_at + footer_len])
            if zlib.crc32(footer_bytes) != footer_crc:
                raise SegmentFileError(f"{path}: footer checksum mismatch")
            try:
                self.footer: Dict[str, Any] = json.loads(footer_bytes.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise SegmentFileError(f"{path}: footer undecodable: {error}") from error
            self.rows: int = int(self.footer["rows"])
            self.unit_only: bool = bool(self.footer["unit_only"])
            self._element_offsets: Optional[List[int]] = None
        except Exception:
            self.close()
            raise

    # -- blocks -------------------------------------------------------------------

    def _block(self, entry: Dict[str, Any]) -> bytes:
        off, length = int(entry["off"]), int(entry["len"])
        if off + length > len(self._map):
            raise SegmentFileError(f"{self.path}: block exceeds file")
        payload = bytes(self._map[off : off + length])
        if zlib.crc32(payload) != int(entry["crc"]):
            raise SegmentFileError(f"{self.path}: block checksum mismatch")
        return payload

    def column_entry(self, name: str) -> Dict[str, Any]:
        try:
            return self.footer["columns"][name]
        except KeyError as error:
            raise SegmentFileError(f"{self.path}: no column {name!r}") from error

    def column(self, name: str) -> "array[int]":
        """Decode one column fully (CRC-checked)."""
        entry = self.column_entry(name)
        column = decode_column(entry["enc"], self._block(entry))
        if len(column) != self.rows:
            raise SegmentFileError(f"{self.path}: column {name!r} row count mismatch")
        return column

    def bisect_right(self, name: str, probe: int) -> int:
        """``bisect_right(column, probe)`` without full decompression.

        On the delta encoding this touches the block index plus one
        block; other encodings fall back to a decode-and-bisect.
        """
        entry = self.column_entry(name)
        if entry["enc"] == "delta":
            return _delta_bisect_right(self._block(entry), probe)
        from bisect import bisect_right

        return bisect_right(self.column(name), probe)

    # -- elements -----------------------------------------------------------------

    def _elements_region(self) -> List[int]:
        """Each row's offsets on the mapping (``rows + 1`` of them).

        The element block's bounds and CRC32 are checked on first use,
        then trusted for the life of this reader: segment files are
        written new and renamed into place, never modified, so the
        bytes behind one open mapping cannot change under it.
        """
        if self._element_offsets is None:
            entry = self.footer["elements"]
            base, length = int(entry["off"]), int(entry["len"])
            if base + length > len(self._map):
                raise SegmentFileError(f"{self.path}: block exceeds file")
            # Released on exit: an exported buffer would make close() fail.
            with memoryview(self._map) as mapped, mapped[base : base + length] as block:
                if zlib.crc32(block) != int(entry["crc"]):
                    raise SegmentFileError(f"{self.path}: block checksum mismatch")
                (count,) = _U32.unpack_from(block, 0)
                if count != self.rows or 4 + 4 * count > length:
                    raise SegmentFileError(f"{self.path}: element count mismatch")
                lengths = struct.unpack_from(f"<{count}I", block, 4)
            offsets = list(accumulate(lengths, initial=base + 4 + 4 * count))
            if offsets[-1] != base + length:
                raise SegmentFileError(f"{self.path}: element block length mismatch")
            self._element_offsets = offsets
        return self._element_offsets

    def element(self, local: int) -> Element:
        """Materialize one element (late materialization from cold)."""
        offsets = self._elements_region()
        if not 0 <= local < self.rows:
            raise IndexError(local)
        return decode_element(self._map[offsets[local] : offsets[local + 1]])

    def elements(self) -> List[Element]:
        offsets = self._elements_region()
        return [
            decode_element(self._map[start:stop])
            for start, stop in zip(offsets, offsets[1:])
        ]

    def payload_bytes(self, name: str) -> int:
        """Encoded size of one column (the decode-cost accounting unit)."""
        return int(self.column_entry(name)["len"])

    def total_bytes(self) -> int:
        return os.fstat(self._file.fileno()).st_size

    def close(self) -> None:
        try:
            if getattr(self, "_map", None) is not None:
                self._map.close()
        finally:
            self._file.close()

    def __enter__(self) -> "SegmentFileReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
