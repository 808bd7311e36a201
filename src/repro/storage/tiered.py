"""The two-tier segment manager: hot in-memory, cold on compressed disk.

A :class:`~repro.storage.segments.SegmentedStore` with tiering enabled
*demotes* sealed segments: their ``Element`` objects and stamp-column
rows leave memory for a compressed, checksummed ``.seg`` file
(:mod:`repro.storage.segfile`), and the store keeps only the cheap
global skeleton (the int64 ``tt_start`` run, zone maps, the current
view).  Cold segments are served through this manager:

* **columns** decode lazily, per column, into a
  :class:`ColdStampColumns` the position-list kernels run on unchanged
  -- a rollback query on a cold segment decodes ``tt_stop`` but may
  never decode ``tt_start`` at all, because the transaction-time bisect
  runs on the compressed delta form via the file's block index;
* **elements** materialize late -- per position for kernel survivors,
  per segment for full scans;
* a small **pin/LRU cache** keeps the most recently touched cold
  segments' decoded state in memory (``cache_segments`` of them):
  columns, elements, served elements' wire fragments; eviction drops
  it all and closes the mapping, which is what makes the resident
  footprint O(hot + cache), not O(history);
* **logical deletes** against a cold row become *patches* -- pinned
  closed elements overlaid on every read -- until the next compaction
  rewrite folds them into a fresh file (write-new, fsync, rename).

The WAL remains the durability root: segment files are a rebuildable
spill cache.  On reopen the manager *adopts* an existing file only
after verifying its checksums and comparing its immutable stamp columns
against the replayed store; mismatched or torn files are discarded and
rewritten, so recovery always lands on exactly the pre- or
post-compaction segment set.

Metrics (when enabled): ``storage.tier.hot`` / ``storage.tier.cold``
gauges, ``storage.tier.promotions`` / ``storage.tier.demotions`` /
``storage.tier.decode_bytes`` counters.
"""

from __future__ import annotations

import os
import tempfile
import threading
from array import array
from bisect import bisect_right
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence

from repro.observability import metrics as _metrics
from repro.relation.element import arm
from repro.storage.columnar import StampColumns, encode_point
from repro.storage.segfile import (
    COLUMN_NAMES,
    SegmentFileError,
    SegmentFileReader,
    decode_element,
    encode_element,
    write_segment_file,
)

if TYPE_CHECKING:
    from repro.relation.element import Element

#: Cold segments whose decoded state stays cached (the LRU pin budget).
DEFAULT_CACHE_SEGMENTS = 8

#: Sealed segments kept hot behind the head before auto-demotion; recent
#: history is the most-closed-against and most-queried.
DEFAULT_HOT_RESERVE = 2


def segment_file_name(ordinal: int) -> str:
    return f"seg-{ordinal:06d}.seg"


def _element_cell(element: "Element", name: str) -> int:
    """One element's value for one stamp column (patch overlay)."""
    from repro.chronos.interval import Interval

    if name == "tt_start":
        return element.tt_start.microseconds
    if name == "tt_stop":
        return encode_point(element.tt_stop)
    if name == "live":
        return 1 if element.is_current else 0
    vt = element.vt
    if isinstance(vt, Interval):
        return encode_point(vt.start) if name == "vt_start" else encode_point(vt.end)
    return vt.microseconds if name == "vt_start" else vt.microseconds + 1


class ColdStampColumns(StampColumns):
    """Stamp columns decoded lazily, per column, from a segment file.

    Attribute-compatible with :class:`StampColumns` (it *is* one), but
    the column slots start unset: first access to ``tt_start`` /
    ``tt_stop`` / ``vt_start`` / ``vt_stop`` / ``live`` decodes exactly
    that column (CRC-checked) and applies any patches, so a kernel pays
    only for the columns its predicate reads.  The transaction-time
    prefix cut (:meth:`cut_tt_right`) is answered from the compressed
    delta block index while ``tt_start`` remains undecoded.
    """

    # The column slots stay unset until first touch; unset slots raise
    # AttributeError, which routes through __getattr__ into the decoder.
    __slots__ = ("_segment",)

    def __init__(self, segment: "TieredSegment") -> None:
        self._segment = segment
        self.unit_only = segment.unit_only
        self._sorted_cache = {}

    def __len__(self) -> int:
        return self._segment.rows

    def __getattr__(self, name: str):
        if name in COLUMN_NAMES:
            value = self._segment._decode_column(name)
            setattr(self, name, value)
            return value
        raise AttributeError(name)

    def cut_tt_right(self, tt: int, lo: int, hi: int) -> int:
        """First local position in ``[lo, hi)`` with ``tt_start > tt``.

        Served from the compressed block index when ``tt_start`` is not
        decoded yet -- the bisect fast path on the compressed form.
        """
        try:
            column = object.__getattribute__(self, "tt_start")
        except AttributeError:
            cut = self._segment.bisect_tt_right(tt)
            return min(max(cut, lo), hi)
        return bisect_right(column, tt, lo, hi)


class TieredSegment:
    """One demoted segment: its file, caches, and patches."""

    __slots__ = (
        "ordinal",
        "path",
        "rows",
        "unit_only",
        "patches",
        "_manager",
        "_reader",
        "_columns",
        "_elements",
        "_whole",
    )

    def __init__(
        self, manager: "TierManager", ordinal: int, path: str, rows: int, unit_only: bool
    ) -> None:
        self.ordinal = ordinal
        self.path = path
        self.rows = rows
        self.unit_only = unit_only
        #: local position -> pinned closed Element (post-demotion closes).
        self.patches: Dict[int, "Element"] = {}
        self._manager = manager
        self._reader: Optional[SegmentFileReader] = None
        self._columns: Optional[ColdStampColumns] = None
        self._elements: Optional[List[Optional["Element"]]] = None
        self._whole = False  # _elements holds every row: a range is one slice

    # -- decoded-state lifecycle ----------------------------------------------------

    def reader(self) -> SegmentFileReader:
        if self._reader is None:
            self._reader = SegmentFileReader(self.path)
            self._manager._note_promotion(self)
        return self._reader

    def release(self) -> None:
        """Drop decoded state and close the mapping (LRU eviction).

        Patches survive -- they are the only copy of post-demotion
        closes until the next compaction rewrite.
        """
        self._columns = None
        self._elements = None
        self._whole = False
        if self._reader is not None:
            self._reader.close()
            self._reader = None

    def columns(self) -> ColdStampColumns:
        if self._columns is None:
            self._columns = ColdStampColumns(self)
        self._manager._touch(self)
        return self._columns

    def _decode_column(self, name: str):
        # Kernels decode lazily, after ``columns()`` returned: locked (and
        # back on the LRU) so no other reader's eviction closes the mapping.
        with self._manager._lock:
            self._manager._touch(self)
            reader = self.reader()
            values = reader.column(name)
            self._manager._note_decode(reader.payload_bytes(name))
            for local, element in self.patches.items():
                values[local] = _element_cell(element, name)
        if name == "live":
            # Item-wise copy: bytearray(array('q')) would reinterpret
            # the raw 8-byte buffer instead of the 0/1 items.
            return bytearray(values.tolist())
        return values

    def bisect_tt_right(self, tt: int) -> int:
        with self._manager._lock:  # as for _decode_column
            self._manager._touch(self)
            self._manager._note_decode(0)
            return self.reader().bisect_right("tt_start", tt)

    # -- elements -------------------------------------------------------------------

    def element_at(self, local: int) -> "Element":
        patched = self.patches.get(local)
        if patched is not None:
            return patched
        self._manager._touch(self)
        rows = self._elements
        if rows is not None:
            cached = rows[local]
            if cached is not None:
                return cached
        element = self.reader().element(local)
        arm((element,))  # release() drops it, and so its fragment
        if rows is None:
            rows = self._elements = [None] * self.rows
        rows[local] = element
        return element

    def elements_at(self, locals_: Sequence[int]) -> List["Element"]:
        """:meth:`element_at` of each of *locals_*, touching the LRU once."""
        rows = self._elements = self._elements or [None] * self.rows
        self._manager._touch(self)
        return [rows[local] or self.element_at(local) for local in locals_]

    def elements(self, lo: int = 0, hi: Optional[int] = None) -> List["Element"]:
        """Local rows ``[lo, hi)``, one slice of the cached rows.  The first
        call after a release decodes them all; rows decoded before keep
        their identity (so their fragments), and patches overlay."""
        self._manager._touch(self)
        if not self._whole:
            decoded = self.reader().elements()
            arm(decoded)
            rows = self._elements
            if rows is not None:
                for local, row in enumerate(rows):
                    if row is not None:
                        decoded[local] = row
            for local, element in self.patches.items():
                decoded[local] = element
            self._elements = decoded  # type: ignore[assignment]
            self._whole = True
        return self._elements[lo:hi]  # type: ignore[index,return-value]

    def patch(self, local: int, element: "Element") -> None:
        """Overlay a closed element on a cold row (a logical delete)."""
        self.patches[local] = element
        if self._elements is not None:
            self._elements[local] = element
        columns = self._columns
        if columns is not None:
            # Keep any already-decoded columns in step; undecoded ones
            # apply the patch at decode time.
            for name in COLUMN_NAMES:
                try:
                    decoded = object.__getattribute__(columns, name)
                except AttributeError:
                    continue
                decoded[local] = _element_cell(element, name)


class TierManager:
    """Owns a tier directory and every demoted segment in it.

    Thread-safe: concurrent reader threads of a library caller may
    materialize and decode under the manager lock while a single writer
    demotes or patches.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        cache_segments: int = DEFAULT_CACHE_SEGMENTS,
        hot_reserve: int = DEFAULT_HOT_RESERVE,
    ) -> None:
        # A zero-slot LRU would release every segment the moment it is
        # touched, re-decoding on each read.
        if cache_segments < 1:
            raise ValueError(f"cache_segments must be at least 1, got {cache_segments}")
        if hot_reserve < 0:
            raise ValueError(f"hot_reserve must be at least 0, got {hot_reserve}")
        self._owned: Optional[tempfile.TemporaryDirectory] = None
        if directory is None:
            self._owned = tempfile.TemporaryDirectory(prefix="repro-tier-")
            directory = self._owned.name
        else:
            os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.cache_segments = cache_segments
        self.hot_reserve = hot_reserve
        self.segments: Dict[int, TieredSegment] = {}
        self._lru: "OrderedDict[int, TieredSegment]" = OrderedDict()
        self._lock = threading.RLock()
        #: Monotone counters mirrored into the metrics registry.
        self.promotions = 0
        self.demotions = 0
        self.decode_bytes = 0
        self.adopted = 0
        self.rewrites = 0
        self.bytes_written = 0
        self.encoding_counts: Dict[str, int] = {}

    # -- bookkeeping ----------------------------------------------------------------

    def _note_promotion(self, segment: TieredSegment) -> None:
        self.promotions += 1
        if _metrics.enabled():
            _metrics.registry().counter("storage.tier.promotions").inc()

    def _note_decode(self, nbytes: int) -> None:
        self.decode_bytes += nbytes
        if nbytes and _metrics.enabled():
            _metrics.registry().counter("storage.tier.decode_bytes").inc(nbytes)

    def _note_demotion(self, footer: Dict) -> None:
        self.demotions += 1
        self.rewrites += 1
        for entry in footer["columns"].values():
            self.encoding_counts[entry["enc"]] = self.encoding_counts.get(entry["enc"], 0) + 1
        size = footer["elements"]["off"] + footer["elements"]["len"]
        self.bytes_written += size
        if _metrics.enabled():
            _metrics.registry().counter("storage.tier.demotions").inc()

    def _touch(self, segment: TieredSegment) -> None:
        with self._lock:
            self._lru[segment.ordinal] = segment
            self._lru.move_to_end(segment.ordinal)
            while len(self._lru) > self.cache_segments:
                _ordinal, evicted = self._lru.popitem(last=False)
                evicted.release()

    def publish_gauges(self, hot_segments: int) -> None:
        if _metrics.enabled():
            registry = _metrics.registry()
            registry.gauge("storage.tier.hot").set(hot_segments)
            registry.gauge("storage.tier.cold").set(len(self.segments))

    # -- demotion / adoption ----------------------------------------------------------

    def path_of(self, ordinal: int) -> str:
        return os.path.join(self.directory, segment_file_name(ordinal))

    def demote(
        self,
        ordinal: int,
        elements: Sequence["Element"],
        columns: Dict[str, Sequence[int]],
        unit_only: bool,
        zone: Optional[Dict[str, int]] = None,
    ) -> TieredSegment:
        """Move one sealed segment to the cold tier.

        A segment retained across a vacuum rebuild (:meth:`begin_rebuild`
        vouched for it) is re-adopted as-is, caches and patches included.
        Otherwise an existing CRC-valid file for *ordinal* is adopted
        instead of rewritten when its immutable stamp columns match the
        in-memory rows; rows whose mutable half (``tt_stop`` / live bit)
        differs become patches.  Failing both, the file is (re)written
        crash-safely.
        """
        with self._lock:
            retained = self.segments.get(ordinal)
            if retained is not None:
                return retained
            for element in elements:
                # The codec is JSON-backed; an element whose surrogates
                # or attributes do not survive it (tuples, arbitrary
                # objects) must keep its segment hot rather than come
                # back subtly different.  Raises TypeError on
                # unserializable values; the inequality covers lossy
                # round-trips (tuple -> list).
                decoded = decode_element(encode_element(element))
                if decoded != element or repr(decoded) != repr(element):
                    raise SegmentFileError(
                        "element does not survive the segment codec"
                    )
            path = self.path_of(ordinal)
            segment = self._try_adopt(ordinal, path, elements, columns, unit_only)
            if segment is None:
                footer = write_segment_file(path, elements, columns, unit_only, zone)
                self._note_demotion(footer)
                segment = TieredSegment(self, ordinal, path, len(elements), unit_only)
            self.segments[ordinal] = segment
            return segment

    def _try_adopt(
        self,
        ordinal: int,
        path: str,
        elements: Sequence["Element"],
        columns: Dict[str, Sequence[int]],
        unit_only: bool,
    ) -> Optional[TieredSegment]:
        """Adopt an existing file if its immutable columns match memory.

        The store (replayed from the WAL) is authoritative; the file is
        a cache.  Immutable columns (``tt_start``, valid times) must be
        byte-equal or the file is stale/foreign and gets rewritten;
        mutable drift (closes that happened after the file was written)
        is re-derived into patches, pinning only the drifted rows.
        """
        if not os.path.exists(path):
            return None
        try:
            with SegmentFileReader(path) as reader:
                if reader.rows != len(elements) or reader.unit_only != unit_only:
                    return None
                for name in ("tt_start", "vt_start", "vt_stop"):
                    if reader.column(name) != array("q", columns[name]):
                        return None
                stored = reader.elements()
        except SegmentFileError:
            # Torn or corrupt (a crash mid-rewrite): discard, rewrite.
            return None
        segment = TieredSegment(self, ordinal, path, len(elements), unit_only)
        for local, element in enumerate(elements):
            decoded = stored[local]
            # Full-fidelity row check, not just the stamp columns: an
            # element that decodes differently in ANY way (a close that
            # happened after the file was written, but also payload or
            # granularity drift -- e.g. the WAL replay path normalizes
            # timestamps the file kept exact) becomes a patch, so cold
            # reads always agree with the authoritative store.
            if decoded != element or repr(decoded) != repr(element):
                segment.patches[local] = element
        if len(segment.patches) * 2 > len(elements):
            # Mostly drifted: pinning a majority of rows as patches
            # costs more than a fresh file.  Rewrite instead.
            return None
        self.adopted += 1
        self.demotions += 1
        if _metrics.enabled():
            _metrics.registry().counter("storage.tier.demotions").inc()
        return segment

    def begin_rebuild(self, unchanged_ordinals: Sequence[int]) -> None:
        """Prepare for a vacuum rebuild: keep *unchanged_ordinals*' state
        (files, decoded caches, patches) and forget everything else, so
        the rebuilding store re-adopts the unchanged prefix without
        re-verification and rewrites only what vacuum actually touched."""
        with self._lock:
            keep = set(unchanged_ordinals)
            for ordinal in list(self.segments):
                if ordinal not in keep:
                    dropped = self.segments.pop(ordinal)
                    dropped.release()
                    self._lru.pop(ordinal, None)
                    try:
                        # The file describes pre-vacuum positions; the
                        # rebuilding store will write a fresh one.
                        os.unlink(dropped.path)
                    except OSError:
                        pass

    def rewrite_patched(self, store) -> int:
        """Fold every patched segment's closes into a fresh file.

        The compaction rewrite proper: write-new, fsync, rename; on
        success the patches (and their pinned elements) are dropped.
        Returns the number of files rewritten.
        """
        rewritten = 0
        with self._lock:
            for ordinal in sorted(self.segments):
                segment = self.segments[ordinal]
                if not segment.patches:
                    continue
                elements = segment.elements()
                columns = _columns_from_elements(elements)
                footer = write_segment_file(
                    segment.path, elements, columns, segment.unit_only
                )
                self._note_demotion(footer)
                fresh = TieredSegment(
                    self, ordinal, segment.path, segment.rows, segment.unit_only
                )
                segment.release()
                self.segments[ordinal] = fresh
                self._lru.pop(ordinal, None)
                rewritten += 1
        return rewritten

    # -- reads -----------------------------------------------------------------------

    def columns(self, ordinal: int) -> ColdStampColumns:
        with self._lock:
            return self.segments[ordinal].columns()

    def element_at(self, ordinal: int, local: int) -> "Element":
        with self._lock:
            return self.segments[ordinal].element_at(local)

    def elements_at(self, ordinal: int, locals_: Sequence[int]) -> List["Element"]:
        with self._lock:
            return self.segments[ordinal].elements_at(locals_)

    def elements(
        self, ordinal: int, lo: int = 0, hi: Optional[int] = None, decode_whole: bool = True
    ) -> List["Element"]:
        """Local rows ``[lo, hi)``, one slice of the cached rows (decoding
        them all first if need be).  With ``decode_whole=False`` a part
        of a segment not yet decoded whole decodes only its own rows, as
        kernel survivors do, and never pays for the rest of it."""
        with self._lock:
            segment = self.segments[ordinal]
            hi = segment.rows if hi is None else hi
            if decode_whole or segment._whole or hi - lo == segment.rows:
                return segment.elements(lo, hi)
            return segment.elements_at(range(lo, hi))

    def live_locals(self, ordinal: int) -> Iterator[int]:
        """Local positions of live rows (current-view rebuild feed)."""
        with self._lock:
            live = self.segments[ordinal].columns().live
        return (local for local, alive in enumerate(live) if alive)

    def patch(self, ordinal: int, local: int, element: "Element") -> None:
        with self._lock:
            self.segments[ordinal].patch(local, element)

    def has_patches(self, ordinal: int) -> bool:
        segment = self.segments.get(ordinal)
        return bool(segment and segment.patches)

    # -- teardown ----------------------------------------------------------------------

    def release_all(self) -> None:
        with self._lock:
            for segment in self.segments.values():
                segment.release()
            self._lru.clear()

    def close(self) -> None:
        """Release decoded caches and file mappings.

        Deliberately does NOT delete an owned temporary directory:
        vacuum hands one manager from the retired store to its rebuilt
        successor, so a close on either must not pull the files out from
        under the other.  Owned directories are reclaimed by the
        ``TemporaryDirectory`` finalizer once no store references the
        manager (or at interpreter exit).
        """
        self.release_all()

    def statistics(self) -> Dict[str, int]:
        return {
            "segments_cold": len(self.segments),
            "tier_promotions": self.promotions,
            "tier_demotions": self.demotions,
            "tier_decode_bytes": self.decode_bytes,
            "tier_adopted": self.adopted,
            "tier_bytes_written": self.bytes_written,
        }


def _columns_from_elements(elements: Sequence["Element"]) -> Dict[str, List[int]]:
    """Stamp-column arrays derived from element objects (compaction
    rewrites)."""
    staging = StampColumns()
    staging.extend(elements)
    return {
        "tt_start": list(staging.tt_start),
        "tt_stop": list(staging.tt_stop),
        "vt_start": list(staging.vt_start),
        "vt_stop": list(staging.vt_stop),
        "live": list(staging.live),
    }
