"""Segmented transaction-time storage with zone-map pruning.

The append-ordered run the engine keeps (``engine.store``) is organised into
*segments*: elements accumulate in a mutable **head** segment which
seals into immutable segments of :data:`DEFAULT_SEGMENT_SIZE` elements.
Each sealed segment carries a :class:`ZoneMap` -- its transaction-time
range, its valid-time coverage, its live-element count, and whether its
event valid times are sorted -- so a query can decide *per segment*
whether any match is possible before touching a single element.

This extends the paper's leverage from "which algorithm" to "which
data": declared specializations (Figure 1 offset regions, Section 3.1)
tighten the transaction window first, and the zone maps then discard
whole segments inside that window.  :meth:`SegmentedStore.select`
reports how many segments it scanned and pruned, surfaced by
``explain``.

One further facility lives here because every consumer shares it: the
**materialized current-state view** -- an insertion-ordered map of live
elements maintained incrementally on append/close (and rebuilt lazily
after it is invalidated, e.g. by vacuum), making a current-state read
O(live) instead of O(history).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.chronos.interval import Interval
from repro.relation.element import Element, arm
from repro.storage.columnar import (
    NEG_SENTINEL,
    POS_SENTINEL,
    ScanSpec,
    StampColumns,
    encode_point,
    positions,
)
from repro.storage.segfile import SegmentFileError
from repro.storage.tiered import ColdStampColumns, TierManager

#: Elements per sealed segment unless the constructor says otherwise.
DEFAULT_SEGMENT_SIZE = 4096


class ZoneMap:
    """Per-segment statistics a query consults before touching elements.

    All coordinates are microseconds on the shared exact time-line.
    ``vt_lo``/``vt_hi`` cover the union of the segment's valid times
    (interval endpoints widened to the sentinels when unbounded), so a
    probe outside ``[vt_lo, vt_hi]`` cannot match anything inside.
    ``live`` and ``max_closed_tt_stop`` are the only mutable fields:
    logically deleting an element updates them in place (valid times and
    insertion stamps never change after sealing).
    """

    __slots__ = ("tt_lo", "tt_hi", "vt_lo", "vt_hi", "live", "max_closed_tt_stop")

    def __init__(
        self,
        tt_lo: int,
        tt_hi: int,
        vt_lo: int,
        vt_hi: int,
        live: int,
        max_closed_tt_stop: int,
    ) -> None:
        self.tt_lo = tt_lo
        self.tt_hi = tt_hi
        self.vt_lo = vt_lo
        self.vt_hi = vt_hi
        self.live = live
        self.max_closed_tt_stop = max_closed_tt_stop

    def may_contain_vt(self, lo: int, hi: int) -> bool:
        """Could any element's valid time intersect ``[lo, hi]``?"""
        return not (hi < self.vt_lo or lo > self.vt_hi)

    def alive_at(self, tt_micro: int) -> bool:
        """Could any element's existence interval contain *tt_micro*?

        Conservative: an element inserted at or before the probe matches
        only if it is still live or was closed after the probe.
        """
        if self.tt_lo > tt_micro:
            return False
        return self.live > 0 or self.max_closed_tt_stop > tt_micro

    def __repr__(self) -> str:
        return (
            f"ZoneMap(tt=[{self.tt_lo}, {self.tt_hi}], vt=[{self.vt_lo}, {self.vt_hi}], "
            f"live={self.live})"
        )


class SegmentedStore:
    """The segmented append-ordered element run.

    Invariants (the transaction clock guarantees the first):

    * insertion transaction times are strictly increasing, so positions,
      segments, and transaction times are all co-sorted;
    * sealed segments never change membership -- the only in-place
      mutation is closing an element's existence interval, which updates
      the owning zone map's ``live`` / ``max_closed_tt_stop``.

    The constructor is the whole configuration: ``segment_size=None``
    means :data:`DEFAULT_SEGMENT_SIZE`, and the store is tiered if and
    only if it gets a ``tier_dir`` or a ``tier_manager``.  Every element it holds is armed.
    """

    def __init__(
        self,
        segment_size: Optional[int] = None,
        tier_dir: Optional[str] = None,
        tier_manager: Optional[TierManager] = None,
    ) -> None:
        self.segment_size = DEFAULT_SEGMENT_SIZE if segment_size is None else segment_size
        if self.segment_size < 2:
            raise ValueError(f"segment size must be at least 2, got {self.segment_size}")
        self._tts: List[int] = []
        #: Cold positions hold ``None``; their elements live in segment
        #: files and materialize through the tier manager on demand.
        self._elements: List[Optional[Element]] = []
        self._zones: List[ZoneMap] = []
        #: The tier manager, or None for a flat (all in memory) store.
        self.tiering: Optional[TierManager] = tier_manager
        if tier_manager is None and tier_dir is not None:
            self.tiering = TierManager(tier_dir)
        #: Sealed segments already demoted to the cold tier -- always a
        #: position prefix of the store (cold grows from the left, the
        #: head stays hot on the right).
        self._cold = 0
        #: The materialized current-state view: surrogate -> position,
        #: insertion-ordered (appends arrive in transaction order, so
        #: iterating the dict yields the current state in tt order).
        self._current: Dict[int, int] = {}
        self._view_valid = True
        #: Monotone mutation counter (appends, extends, closes); lets
        #: callers version-check anything they derive from the store.
        self.mutations = 0
        self._live_total = 0
        #: The columnar stamp sidecar (``repro.storage.columnar``): four
        #: int64 stamp columns plus a live bitmap, maintained row-for-row
        #: with ``_elements`` (head segment included; cold rows live in
        #: their segment files instead).
        self.columns = StampColumns()

    # -- mutation -----------------------------------------------------------------

    def append(self, element: Element) -> None:
        tt = element.tt_start.microseconds
        if self._tts and tt <= self._tts[-1]:
            raise ValueError(
                f"transaction times must be strictly increasing; got {tt} after "
                f"{self._tts[-1]}"
            )
        position = len(self._elements)
        arm((element,))
        self._tts.append(tt)
        self._elements.append(element)
        self.columns.append(element)
        if element.is_current:
            self._live_total += 1
            if self._view_valid:
                self._current[element.element_surrogate] = position
        self.mutations += 1
        self._seal_full_blocks()

    def validate_tts(self, tts: Sequence[int]) -> None:
        """Check that *tts* can extend the store, mutating nothing.

        Raises the same ``ValueError`` the mutators would; the log-file
        engine, which must not fail after a durable write (its
        validate/write/apply protocol), calls this first.
        """
        last = self._tts[-1] if self._tts else None
        for tt in tts:
            if last is not None and tt <= last:
                raise ValueError(
                    f"transaction times must be strictly increasing; got {tt} after "
                    f"{last}"
                )
            last = tt

    def extend(self, batch: Sequence[Element]) -> None:
        """Append a whole batch with one ordering pass.

        Validates before mutating, so a bad batch leaves the store (and
        its view and zone maps) untouched.
        """
        if not batch:
            return
        tts = [element.tt_start.microseconds for element in batch]
        self.validate_tts(tts)
        arm(batch)
        base = len(self._elements)
        self._tts.extend(tts)
        self._elements.extend(batch)
        self.columns.extend(batch)
        live = 0
        if self._view_valid:
            view = self._current
            for offset, element in enumerate(batch):
                if element.is_current:
                    live += 1
                    view[element.element_surrogate] = base + offset
        else:
            live = sum(1 for element in batch if element.is_current)
        self._live_total += live
        self.mutations += 1
        self._seal_full_blocks()

    def replace(self, position: int, element: Element) -> None:
        """Swap in a new record at *position* (closing an element).

        Keeps the owning sealed segment's zone map and the current-state
        view in step with the change.
        """
        arm((element,))
        cold_base = self.cold_base
        if position < cold_base:
            # Cold row: the close becomes a patch pinned by the tier
            # manager until the next compaction rewrite folds it in.
            old = self.element_at(position)
            size = self.segment_size
            self.tiering.patch(position // size, position % size, element)  # type: ignore[union-attr]
        else:
            old = self._elements[position]  # type: ignore[assignment]
            self._elements[position] = element
            self.columns.rewrite(position - cold_base, element)
        self.mutations += 1
        was_live = old.is_current
        is_live = element.is_current
        ordinal = position // self.segment_size
        if ordinal < len(self._zones):
            zone = self._zones[ordinal]
            if was_live and not is_live:
                # Stop first, live count second: a pinned reader thread
                # testing ``alive_at`` between the two writes must never
                # see neither.
                zone.max_closed_tt_stop = max(
                    zone.max_closed_tt_stop, encode_point(element.tt_stop)
                )
                zone.live -= 1
            elif is_live and not was_live:
                zone.live += 1
        if was_live and not is_live:
            self._live_total -= 1
            if self._view_valid:
                self._current.pop(old.element_surrogate, None)
        elif is_live:
            if not was_live:
                self._live_total += 1
            if self._view_valid:
                if old.element_surrogate != element.element_surrogate:
                    self._current.pop(old.element_surrogate, None)
                    # Re-keyed mid-run: dict order would break tt order.
                    self._view_valid = False
                    self._current = {}
                else:
                    self._current[element.element_surrogate] = position

    # -- sealing ------------------------------------------------------------------

    def _seal_full_blocks(self) -> None:
        size = self.segment_size
        sealed_any = False
        while (len(self._zones) + 1) * size <= len(self._elements):
            start = len(self._zones) * size
            self._zones.append(self._build_zone(start, start + size))
            sealed_any = True
        if sealed_any and self.tiering is not None:
            # Keep a small reserve of recently sealed segments hot (the
            # most-closed-against, most-queried history) and demote the
            # rest of the sealed prefix to compressed files.
            self._demote_prefix(len(self._zones) - self.tiering.hot_reserve)

    # -- tier demotion ----------------------------------------------------------------

    @property
    def cold_base(self) -> int:
        """First hot position (cold segments are always a prefix)."""
        return self.columns.base

    def _segment_column_lists(self, start: int, stop: int) -> Dict[str, Sequence[int]]:
        """The stamp-column rows for hot positions ``[start, stop)``."""
        columns = self.columns
        lo = start - self.cold_base
        hi = stop - self.cold_base
        return {
            "tt_start": columns.tt_start[lo:hi],
            "tt_stop": columns.tt_stop[lo:hi],
            "vt_start": columns.vt_start[lo:hi],
            "vt_stop": columns.vt_stop[lo:hi],
            "live": list(columns.live[lo:hi]),
        }

    def _demote_prefix(self, through: int) -> None:
        """Demote sealed segments ``[self._cold, through)`` to the cold
        tier.  Best-effort: a failed file write (disk full, unwritable
        directory) leaves the segment hot -- callers on the durable
        write path must never see demotion raise."""
        tiering = self.tiering
        if tiering is None:
            return
        size = self.segment_size
        while self._cold < min(through, len(self._zones)):
            start = self._cold * size
            stop = start + size
            elements = self._elements[start:stop]
            columns = self._segment_column_lists(start, stop)
            unit_only = all(
                hi == lo + 1
                for lo, hi in zip(columns["vt_start"], columns["vt_stop"])
            )
            zone = self._zones[self._cold]
            try:
                tiering.demote(
                    self._cold,
                    elements,  # type: ignore[arg-type]
                    columns,
                    unit_only,
                    zone={
                        "tt_lo": zone.tt_lo,
                        "tt_hi": zone.tt_hi,
                        "vt_lo": zone.vt_lo,
                        "vt_hi": zone.vt_hi,
                    },
                )
            except (OSError, TypeError, ValueError, SegmentFileError):
                break
            for position in range(start, stop):
                self._elements[position] = None
            self.columns = self.columns.without_prefix(size)
            self._cold += 1
        tiering.publish_gauges(len(self._zones) - self._cold + 1)

    def compact(self) -> Dict[str, int]:
        """Demote every sealed segment and fold patches into fresh files.

        The compaction entry point vacuum and ``repro compact`` drive:
        seal-eligible history moves to the compressed cold tier (hot
        reserve included) and every patched cold file is rewritten
        crash-safely (write-new, fsync, rename), dropping its pinned
        patch elements.  No-op on flat stores.
        """
        tiering = self.tiering
        if tiering is None:
            return {"demoted": 0, "rewritten": 0, "cold": 0}
        before = self._cold
        self._demote_prefix(len(self._zones))
        rewritten = tiering.rewrite_patched(self)
        return {
            "demoted": self._cold - before,
            "rewritten": rewritten,
            "cold": self._cold,
        }

    def detach_tiering(self) -> Optional[TierManager]:
        """Materialize the cold tier back into memory and release the
        tier manager, returning it.

        Vacuum's handoff: the rebuilt store inherits the manager (and
        with it every unchanged segment file), while the retired store
        -- still reachable by callers holding the old engine -- becomes
        a plain in-memory store that no longer depends on files the
        rebuild is about to reuse or unlink.  Cheap after a full scan:
        every cold segment's elements are already decoded and cached.
        """
        tiering = self.tiering
        if tiering is None:
            return None
        if self._cold:
            size = self.segment_size
            cold_base = self.cold_base
            rehydrated: List[Element] = []
            for ordinal in range(self._cold):
                rehydrated.extend(tiering.elements(ordinal))
            self._elements[:cold_base] = rehydrated  # type: ignore[assignment]
            prefix = StampColumns()
            prefix.extend(rehydrated)
            hot = self.columns
            merged = StampColumns()
            merged.tt_start = prefix.tt_start + hot.tt_start
            merged.tt_stop = prefix.tt_stop + hot.tt_stop
            merged.vt_start = prefix.vt_start + hot.vt_start
            merged.vt_stop = prefix.vt_stop + hot.vt_stop
            merged.live = prefix.live + hot.live
            merged.unit_only = prefix.unit_only and hot.unit_only
            for (lo, hi), (starts, order) in hot._sorted_cache.items():
                merged._sorted_cache[(lo + cold_base, hi + cold_base)] = (
                    starts,
                    [position + cold_base for position in order],
                )
            self.columns = merged
            self._cold = 0
        self.tiering = None
        return tiering

    def _build_zone(self, start: int, stop: int) -> ZoneMap:
        elements = self._elements
        vt_lo = POS_SENTINEL
        vt_hi = NEG_SENTINEL
        live = 0
        max_closed = NEG_SENTINEL
        for position in range(start, stop):
            element = elements[position]
            vt = element.vt
            if isinstance(vt, Interval):
                lo = encode_point(vt.start)
                hi = encode_point(vt.end)
            else:
                lo = hi = vt.microseconds
            if lo < vt_lo:
                vt_lo = lo
            if hi > vt_hi:
                vt_hi = hi
            if element.is_current:
                live += 1
            else:
                stop_micro = encode_point(element.tt_stop)
                if stop_micro > max_closed:
                    max_closed = stop_micro
        return ZoneMap(
            tt_lo=self._tts[start],
            tt_hi=self._tts[stop - 1],
            vt_lo=vt_lo,
            vt_hi=vt_hi,
            live=live,
            max_closed_tt_stop=max_closed,
        )

    # -- segment access ------------------------------------------------------------

    @property
    def sealed_count(self) -> int:
        return len(self._zones)

    def zone_of(self, ordinal: int) -> ZoneMap:
        return self._zones[ordinal]

    # -- element access ------------------------------------------------------------

    def element_at(self, position: int) -> Element:
        element = self._elements[position]
        if element is None:
            # Cold, however far a concurrent demotion has got: the segment
            # file is registered before its slots are cleared.
            ordinal, local = divmod(position, self.segment_size)
            return self.tiering.element_at(ordinal, local)  # type: ignore[union-attr]
        return element

    def elements_range(self, lo: int, hi: int) -> List[Element]:
        """Elements for positions ``[lo, hi)``, in position (so
        transaction-time) order; each cold segment the range touches is
        one slice of the tier manager's cached rows.

        Safe on a reader thread beside a demotion: ``cold_base`` is read
        once, and a hot slot the demotion has cleared since is re-read
        from its (already registered) segment file.  Demotion clears
        slots in position order and a list slice is atomic, so the
        cleared slots of a slice are a prefix of it: testing the first
        row is testing them all."""
        tiering = self.tiering  # before cold_base: detach_tiering clears it last
        cold_base = self.cold_base
        if lo >= cold_base or lo >= hi:
            found = self._elements[lo:hi]
            if found and found[0] is None:
                return [
                    element if element is not None else self.element_at(position)
                    for position, element in enumerate(found, lo)
                ]
            return found  # type: ignore[return-value]
        size = self.segment_size
        out: List[Element] = []
        while lo < min(hi, cold_base):
            ordinal, local = divmod(lo, size)
            take = min(hi - lo, size - local)
            part = tiering.elements(ordinal, local, local + take)  # type: ignore[union-attr]
            if out:
                out += part
            else:
                out = part  # a one-segment range is the slice itself
            lo += take
        if lo < hi:
            out += self.elements_range(lo, hi)
        return out

    def fetch_elements(self, base: int, positions: Sequence[int]) -> List[Element]:
        """Materialize kernel survivors: *positions* are local to *base*
        (the pairing :meth:`kernel_view` hands out)."""
        elements = self._elements
        fetched = [elements[base + local] for local in positions]
        if self.tiering is not None:  # only then can a slot be a (None) cold row
            for index, element in enumerate(fetched):
                if element is None:
                    fetched[index] = self.element_at(base + positions[index])
        return fetched  # type: ignore[return-value]

    def kernel_view(self, lo: int, hi: int):
        """The column set and base offset covering unit ``[lo, hi)``.

        Hot units share the store's sidecar (rows are position minus its
        ``base``, read from the one object so the pair stays consistent
        while a demotion swaps it under a reader thread); a cold unit
        gets its segment's lazily-decoded column set (rows are
        segment-local).  Units never span the cold/hot boundary: both
        are clipped to segment bounds.
        """
        columns = self.columns
        if lo >= columns.base:
            return columns, columns.base
        ordinal = lo // self.segment_size
        return self.tiering.columns(ordinal), ordinal * self.segment_size  # type: ignore[union-attr]

    def select(self, spec: ScanSpec, stats=None) -> Tuple[List[Element], int]:
        """The elements satisfying *spec*, in tt order, and how many rows
        were examined -- the one range-shaped read of a tt-indexed store.

        Binary search turns the spec's transaction-time window into a
        position range; sealed segments overlapping it are kept only
        when ``spec.may_match`` accepts their zone map (a zone map
        summarises the whole segment, so rejecting one is valid even
        when the range clips it) and the head is always scanned.  A kept
        segment whose zone map ``spec.must_match`` accepts -- every row
        matches, so every position the range leaves of it -- is one
        :meth:`elements_range` slice; every other unit runs the column
        kernel, and elements materialize only for the positions it
        returns.  Both count the unit's positions as examined.  *stats*
        (a ``SegmentStats``) receives the scanned/pruned counts.

        Safe on a reader thread beside the single writer when the spec
        is pinned at or below the published epoch: nothing past the
        pin's position is read, and the sealed count is read once, so a
        segment sealing meanwhile is scanned as the head it was.
        """
        start = bisect.bisect_left(self._tts, spec.tt_lo)
        stop = bisect.bisect_right(self._tts, spec.tt_hi)
        if stop <= start:
            return [], 0
        size = self.segment_size
        sealed = len(self._zones)
        # A unit is (lo, hi, whole, accepted): whole units -- a sealed
        # segment or the head the window did not clip -- recur across
        # queries, so the kernel may answer them from a cached sorted
        # projection; an accepted unit is a sealed segment whose every
        # row the zone map proves a match, served as one slice.
        units: List[Tuple[int, int, bool, bool]] = []
        pruned = 0
        for ordinal in range(start // size, sealed):
            seg_lo = ordinal * size
            if seg_lo >= stop:
                break
            zone = self._zones[ordinal]
            if spec.may_match(zone):
                lo, hi = max(start, seg_lo), min(stop, seg_lo + size)
                units.append((lo, hi, hi - lo == size, spec.must_match(zone, size)))
            else:
                pruned += 1
        head_lo = max(start, sealed * size)
        if head_lo < stop:
            units.append((head_lo, stop, head_lo == sealed * size and stop == len(self), False))
        matches: List[Element] = []
        examined = 0
        tiering = self.tiering  # read once: vacuum's detach_tiering may clear it meanwhile
        for lo, hi, whole, accepted in units:
            examined += hi - lo
            if accepted:
                matches.extend(self.elements_range(lo, hi))
                continue
            columns, base = self.kernel_view(lo, hi)
            found = positions(columns, lo - base, hi - base, spec, whole)
            if isinstance(columns, ColdStampColumns):  # one tier call for the segment's rows
                matches.extend(tiering.elements_at(base // size, found))  # type: ignore[union-attr]
            else:
                matches.extend(self.fetch_elements(base, found))
        if stats is not None:
            stats.scanned += len(units)
            stats.pruned += pruned
            stats.positions_examined += examined
            stats.materialized += len(matches)
            cold_base = self.cold_base
            stats.cold_segments += sum(1 for unit in units if unit[0] < cold_base)
        return matches, examined

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Element]:
        if not self._cold:
            return iter(self._elements)  # type: ignore[arg-type]

        def generate() -> Iterator[Element]:
            tiering = self.tiering
            for ordinal in range(self._cold):
                yield from tiering.elements(ordinal)  # type: ignore[union-attr]
            yield from self._elements[self.cold_base :]  # type: ignore[misc]

        return generate()

    # -- the materialized current-state view -----------------------------------------

    def invalidate_view(self) -> None:
        """Drop the current-state view; it rebuilds lazily on next use."""
        self._view_valid = False
        self._current = {}

    @property
    def view_valid(self) -> bool:
        return self._view_valid

    def _view(self) -> Dict[int, int]:
        if not self._view_valid:
            current: Dict[int, int] = {}
            cold_base = self.cold_base
            if self._cold:
                # Cold segments: decode only the live bitmap, then
                # materialize just the live rows (typically few after
                # the closes that motivated demotion in the first place).
                size = self.segment_size
                tiering = self.tiering
                for ordinal in range(self._cold):
                    start = ordinal * size
                    for local in tiering.live_locals(ordinal):  # type: ignore[union-attr]
                        element = tiering.element_at(ordinal, local)  # type: ignore[union-attr]
                        current[element.element_surrogate] = start + local
            # Current-state feed kernel: walk the live bitmap and
            # materialize only the survivors' surrogates, instead of
            # probing ``is_current`` on every historical object.
            elements = self._elements
            for row, alive in enumerate(self.columns.live):
                if alive:
                    position = cold_base + row
                    current[elements[position].element_surrogate] = position  # type: ignore[union-attr]
            self._current = current
            self._view_valid = True
        return self._current

    def live_count(self) -> int:
        """Number of current elements -- O(1), no scan."""
        return self._live_total

    def iter_current(self) -> Iterator[Element]:
        """The current state in transaction order, O(live) via the view."""
        if self._cold:
            for position in self._view().values():
                yield self.element_at(position)
            return
        elements = self._elements
        for position in self._view().values():
            yield elements[position]  # type: ignore[misc]

    # -- introspection -------------------------------------------------------------

    def statistics(self) -> Dict[str, int]:
        stats = {
            "segments_sealed": len(self._zones),
            "segment_size": self.segment_size,
            "live_elements": self._live_total,
        }
        if self.tiering is not None:
            stats.update(self.tiering.statistics())
            stats["segments_cold"] = self._cold
        return stats

    def close(self) -> None:
        """Release tier resources (decoded caches, mappings; a manager
        that owns a temporary directory deletes it)."""
        if self.tiering is not None:
            self.tiering.close()
