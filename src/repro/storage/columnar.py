"""Columnar stamp sidecar: flat int64 time-stamp columns + kernels.

Any segment that survives zone-map pruning is still, on the object
path, a run of Python ``Element`` objects -- and per-object attribute
access (``is_current``, ``valid_at``, ``stored_during``) dominates the
cost of every range-shaped operator.  This module moves the predicate
work off the objects and onto four append-only ``array('q')`` columns
(``tt_start``, ``tt_stop``, ``vt_start``, ``vt_stop``) plus a live
bitmap, maintained by the :class:`~repro.storage.segments.SegmentedStore`
alongside its element list.

Encoding, shared with the zone maps and the storage codecs:

* every coordinate is a microsecond position on the common time-line;
* ``FOREVER`` / ``NEGATIVE_INFINITY`` become the fixed int64 sentinels
  ``POS_SENTINEL`` / ``NEG_SENTINEL``, so sentinel comparisons are the
  same branch-free integer comparisons as everything else;
* an *event* valid time ``v`` is stored as the half-open unit interval
  ``[v, v+1)``.  Because probes are integer microseconds, point
  containment ``vt_start <= t < vt_stop`` then means exactly ``v == t``
  for events and half-open containment for intervals -- one predicate
  serves both stamp shapes, with no per-row kind flag.

A query against the columns is a :class:`ScanSpec` -- the one record
every range-shaped read is stated in -- and :func:`positions` is the one
kernel entry: it takes a column set, a position range and a spec and
returns a **position list**; callers materialize the surviving
``Element`` objects only afterwards (late materialization).  The object
predicates survive only in the reference operators and
``NaiveExecutor``, the oracles the differential suites compare against.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple, Union

from repro.chronos.granularity import Granularity
from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, NEGATIVE_INFINITY, TimePoint, Timestamp

if TYPE_CHECKING:
    from repro.relation.element import Element

#: Sentinel microsecond coordinates for unbounded endpoints.  The one
#: definition: zone maps, the log-file codec
#: and the wire protocol all import these (both fit in int64).
POS_SENTINEL = 2**62
NEG_SENTINEL = -(2**62)


def encode_point(point: object) -> int:
    """A time point as a sentinel-encoded microsecond coordinate."""
    if isinstance(point, Timestamp):
        return point.microseconds
    return POS_SENTINEL if point.is_positive else NEG_SENTINEL  # type: ignore[attr-defined]


def decode_point(coordinate: int) -> TimePoint:
    """Inverse of :func:`encode_point` (microsecond granularity)."""
    if coordinate >= POS_SENTINEL:
        return FOREVER
    if coordinate <= NEG_SENTINEL:
        return NEGATIVE_INFINITY
    return Timestamp(coordinate, Granularity.MICROSECOND)


@dataclass(frozen=True)
class ScanSpec:
    """One range-shaped read, in integer microseconds.

    The paper's operational claim (Section 3.1, Figure 1) as a record: a
    specialization is a region of offsets ``vt - tt``, so a query need
    only look at the transaction-time window that region allows.  The
    planner derives ``[tt_lo, tt_hi]`` (inclusive, on ``tt_start``) from
    the declared region, and inside it the *sure-match core*
    ``[core_lo, core_hi]``: the rows whose ``tt_start`` lies there have
    a valid time inside the window, so only their existence is tested
    (empty -- ``core_lo > core_hi`` -- by default, and always inside the
    tt window; :meth:`cored` sets it last, since :meth:`narrowed` drops
    it).  The remaining fields are the predicate proper:

    * ``as_of`` -- ``None`` keeps *live* rows (the current state); an
      integer keeps rows whose existence interval contains it (a
      rollback);
    * ``[vt_lo, vt_hi)`` -- ``None`` applies no valid-time predicate;
      otherwise rows whose valid time intersects the half-open window.
      A timeslice at ``t`` is the unit window ``[t, t+1)``, which under
      the unit-interval event encoding means ``vt == t`` for events and
      half-open containment for intervals.

    :meth:`of` is the single place a ``TimePoint`` becomes an int.
    """

    tt_lo: int = NEG_SENTINEL
    tt_hi: int = POS_SENTINEL
    as_of: Optional[int] = None
    vt_lo: Optional[int] = None
    vt_hi: Optional[int] = None
    core_lo: int = POS_SENTINEL
    core_hi: int = NEG_SENTINEL

    @classmethod
    def of(
        cls,
        vt: Union[Timestamp, Interval, None] = None,
        as_of: Optional[TimePoint] = None,
    ) -> "ScanSpec":
        """The spec for a valid-time point / window (or none), against
        the current state or the rollback state at *as_of*.

        ``as_of=FOREVER`` is the limit state, i.e. the current one;
        ``NEGATIVE_INFINITY`` leaves an empty transaction-time window.
        """
        if vt is None:
            vt_lo = vt_hi = None
        elif isinstance(vt, Interval):
            vt_lo, vt_hi = encode_point(vt.start), encode_point(vt.end)
        else:
            vt_lo = vt.microseconds
            vt_hi = vt_lo + 1
        if as_of is None or as_of is FOREVER:
            return cls(vt_lo=vt_lo, vt_hi=vt_hi)
        stamp = encode_point(as_of)
        return cls(tt_hi=stamp, as_of=stamp, vt_lo=vt_lo, vt_hi=vt_hi)

    @property
    def kernel_served(self) -> bool:
        """Does the store's column kernel answer this spec?  Every pinned
        spec and every spec with a narrowed transaction-time window does;
        a live full-window spec reads the current view or the valid-time
        index instead."""
        return self.as_of is not None or self.tt_lo > NEG_SENTINEL or self.tt_hi < POS_SENTINEL

    def narrowed(self, tt_lo: Optional[int], tt_hi: Optional[int]) -> "ScanSpec":
        """This spec with its transaction-time window intersected with
        ``[tt_lo, tt_hi]`` (``None`` leaves that side alone) and no core:
        the core is set last, by :meth:`cored`, on the final window."""
        lo = self.tt_lo if tt_lo is None else max(self.tt_lo, tt_lo)
        hi = self.tt_hi if tt_hi is None else min(self.tt_hi, tt_hi)
        return ScanSpec(lo, hi, self.as_of, self.vt_lo, self.vt_hi)

    def cored(self, core_lo: int, core_hi: int) -> "ScanSpec":
        """This spec with its sure-match core set to ``[core_lo,
        core_hi]`` clipped to the tt window (an empty result is the
        default empty core)."""
        lo, hi = max(core_lo, self.tt_lo), min(core_hi, self.tt_hi)
        if lo > hi:
            lo, hi = POS_SENTINEL, NEG_SENTINEL
        if lo == self.core_lo and hi == self.core_hi:  # a point read's: no copy
            return self
        return ScanSpec(self.tt_lo, self.tt_hi, self.as_of, self.vt_lo, self.vt_hi, lo, hi)

    def may_match(self, summary) -> bool:
        """Could any row under *summary* satisfy this spec?

        *summary* is a ``ZoneMap``: it carries ``tt_lo`` / ``tt_hi`` /
        ``live`` and answers ``alive_at`` / ``may_contain_vt``.
        Conservative: False proves no match.
        """
        if summary.tt_hi < self.tt_lo or summary.tt_lo > self.tt_hi:
            return False
        if self.as_of is None:
            if summary.live <= 0:
                return False
        elif not summary.alive_at(self.as_of):
            return False
        return self.vt_lo is None or summary.may_contain_vt(self.vt_lo, self.vt_hi - 1)

    def must_match(self, summary, rows: int) -> bool:
        """Does every one of a sealed unit's *rows* rows satisfy this
        spec?  The dual of :meth:`may_match`: True proves that the
        kernel would return every position the transaction-time window
        leaves of the unit.

        ``summary.live == rows`` means no row is closed, so every row is
        alive at any pin at or past its ``tt_start`` -- and every row's
        ``tt_start`` is at most ``summary.tt_hi`` and the window's
        ``tt_hi``.  For the valid time, ``[summary.vt_lo, summary.vt_hi]``
        must lie inside ``[vt_lo, vt_hi)``: exact for events (the zone
        keeps ``v``, the row ``[v, v+1)``), one microsecond conservative
        for intervals (the zone keeps their exclusive ``end``; ``start <
        end``, so a row between the zone's bounds meets the window).
        """
        return self.all_exist(summary, rows) and (
            self.vt_lo is None
            or self.vt_lo <= summary.vt_lo and summary.vt_hi < self.vt_hi  # type: ignore[operator]
        )

    def all_exist(self, summary, rows: int) -> bool:
        """Does every one of a sealed unit's *rows* rows exist under this
        spec -- the existence half of :meth:`must_match`, which is all a
        core inside the unit needs."""
        return summary.live == rows and (
            self.as_of is None or min(summary.tt_hi, self.tt_hi) <= self.as_of < POS_SENTINEL
        )


class StampColumns:
    """Append-only int64 stamp columns plus a live bitmap.

    One row per stored element, head segment included (rows append as
    elements do).  The only in-place mutation mirrors the store's only
    one: closing an element's existence interval rewrites its
    ``tt_stop`` cell and clears its live bit.
    """

    __slots__ = (
        "tt_start",
        "tt_stop",
        "vt_start",
        "vt_stop",
        "live",
        "unit_only",
        "base",
        "_sorted_cache",
    )

    #: Per-range sorted-projection cache entries kept before a wholesale
    #: eviction (sealed-segment ranges are stable and hot; clipped head
    #: ranges churn as the store grows, so the cache is bounded).
    SORTED_CACHE_LIMIT = 1024

    def __init__(self) -> None:
        self.tt_start = array("q")
        self.tt_stop = array("q")
        self.vt_start = array("q")
        self.vt_stop = array("q")
        self.live = bytearray()
        #: True while every row is a unit interval ``[v, v+1)`` -- i.e.
        #: an event relation.  Gates the sorted-valid-time bisect path.
        self.unit_only = True
        #: Store position of row 0.  Demotion trims the cold prefix into
        #: a *new* column set carrying its own base, so a reader thread
        #: holding either object pairs rows with positions consistently.
        self.base = 0
        self._sorted_cache: Dict[Tuple[int, int], Tuple[array, List[int]]] = {}

    def __len__(self) -> int:
        return len(self.live)

    def append(self, element: "Element") -> None:
        vt = element.vt
        if isinstance(vt, Interval):
            vt_lo = encode_point(vt.start)
            vt_hi = encode_point(vt.end)
            if vt_hi != vt_lo + 1:
                self.unit_only = False
        else:
            vt_lo = vt.microseconds
            vt_hi = vt_lo + 1  # the unit-interval event encoding
        self.tt_start.append(element.tt_start.microseconds)
        self.tt_stop.append(encode_point(element.tt_stop))
        self.vt_start.append(vt_lo)
        self.vt_stop.append(vt_hi)
        self.live.append(1 if element.is_current else 0)

    def extend(self, batch: Iterable["Element"]) -> None:
        for element in batch:
            self.append(element)

    def rewrite(self, position: int, element: "Element") -> None:
        """Re-encode the row at *position* (a close or in-place swap)."""
        vt = element.vt
        if isinstance(vt, Interval):
            vt_lo = encode_point(vt.start)
            vt_hi = encode_point(vt.end)
            if vt_hi != vt_lo + 1:
                self.unit_only = False
        else:
            vt_lo = vt.microseconds
            vt_hi = vt_lo + 1
        if (self.vt_start[position], self.vt_stop[position]) != (vt_lo, vt_hi):
            # Closes rewrite the same valid time, so this only fires on
            # a genuine in-place swap; the sorted projections are stale.
            self._sorted_cache.clear()
        self.tt_start[position] = element.tt_start.microseconds
        self.tt_stop[position] = encode_point(element.tt_stop)
        self.vt_start[position] = vt_lo
        self.vt_stop[position] = vt_hi
        self.live[position] = 1 if element.is_current else 0

    def cut_tt_right(self, tt: int, lo: int, hi: int) -> int:
        """First position in ``[lo, hi)`` with ``tt_start > tt``.

        ``tt_start`` is globally sorted, so this is a plain bisect here;
        the cold-tier subclass overrides it to binary-search the
        compressed delta blocks on disk instead, which is why the
        transaction-time kernels route through this method rather than
        bisecting the array attribute directly (touching the attribute
        would force a full column decode).
        """
        return bisect_right(self.tt_start, tt, lo, hi)

    def without_prefix(self, count: int) -> "StampColumns":
        """A copy with the first *count* rows dropped (tier demotion of
        the cold prefix): surviving rows keep their relative order, and
        sorted-projection cache entries entirely inside the surviving
        suffix shift down with them."""
        trimmed = StampColumns()
        trimmed.tt_start = self.tt_start[count:]
        trimmed.tt_stop = self.tt_stop[count:]
        trimmed.vt_start = self.vt_start[count:]
        trimmed.vt_stop = self.vt_stop[count:]
        trimmed.live = self.live[count:]
        trimmed.unit_only = self.unit_only
        trimmed.base = self.base + count
        # A snapshot: reader threads insert projections while the writer
        # demotes.
        for (lo, hi), (starts, order) in self._sorted_cache.copy().items():
            if lo >= count:
                trimmed._sorted_cache[(lo - count, hi - count)] = (
                    starts,
                    [i - count for i in order],
                )
        return trimmed

    def sorted_starts(self, lo: int, hi: int) -> Tuple[array, List[int]]:
        """``vt_start`` over ``[lo, hi)`` sorted, with the permutation.

        Lazily built per position range and cached: sealed segments
        present stable ranges, so after the first query each one is a
        reusable sorted projection for the bisect fast paths.  Values in
        the cached ranges are immutable in practice (the store's only
        in-place mutation, closing an element, keeps its valid time;
        :meth:`rewrite` clears the cache if a swap does change one).
        """
        key = (lo, hi)
        cached = self._sorted_cache.get(key)
        if cached is None:
            if len(self._sorted_cache) >= self.SORTED_CACHE_LIMIT:
                self._sorted_cache.clear()
            vt_start = self.vt_start
            order = sorted(range(lo, hi), key=vt_start.__getitem__)
            starts = array("q", [vt_start[i] for i in order])
            cached = (starts, order)
            # The head grows between reads: its earlier, shorter
            # projection can never be asked for again.
            for stale in [old for old in list(self._sorted_cache) if old[0] == lo and old[1] < hi]:
                self._sorted_cache.pop(stale, None)
            self._sorted_cache[key] = cached
        return cached

    def memory_bytes(self) -> int:
        """Approximate sidecar footprint (four int64 columns + bitmap)."""
        return 4 * 8 * len(self.live) + len(self.live)


# -- the position-list kernel ----------------------------------------------------------
#
# One tight integer loop over the columns for positions [lo, hi),
# returning the surviving positions.  Locals are bound once; each loop
# body is index arithmetic and int comparisons only -- no attribute
# access, no isinstance, no method dispatch.  The two predicates are
# each stated once and composed:
#
# * existence -- the live bit, or ``tt_start <= as_of < tt_stop``;
# * valid time -- ``vt_start < vt_hi and vt_stop > vt_lo``.
#
# Two bisect fast paths cut the loops short entirely:
#
# * ``tt_start`` is globally sorted (append order IS transaction order),
#   so the rows with ``tt_start <= as_of`` are a bisectable prefix of any
#   position range -- the transaction-time half of a predicate never
#   needs a full pass;
# * on an event store (``unit_only``), a whole segment's rows sorted by
#   ``vt_start`` turn the valid-time predicate into a binary search over
#   a cached sorted projection (:meth:`StampColumns.sorted_starts`): a
#   unit row ``[v, v+1)`` intersects ``[vt_lo, vt_hi)`` iff
#   ``vt_lo <= v < vt_hi``; existence is then tested on the few hits.


def positions(
    columns: StampColumns, lo: int, hi: int, spec: ScanSpec, whole: bool = False
) -> List[int]:
    """Positions in ``[lo, hi)`` whose rows satisfy *spec*'s predicate.

    The caller has already confined ``[lo, hi)`` to the spec's
    transaction-time window; this applies existence and valid time.
    *whole* says ``[lo, hi)`` is an entire sealed segment (or the entire
    head) rather than a range the window clipped: only those ranges
    recur across queries, so only they are worth a cached sorted
    projection -- a clipped range takes the plain pass.
    """
    as_of = spec.as_of
    win_lo = spec.vt_lo
    win_hi = spec.vt_hi
    cut = hi
    if as_of is not None:
        # The cut runs through the column set so cold segments can answer
        # it from the compressed delta blocks without decoding tt_start.
        cut = columns.cut_tt_right(as_of, lo, hi)
        if cut <= lo:
            return []
    if whole and win_lo is not None and columns.unit_only:
        starts, order = columns.sorted_starts(lo, hi)
        left = bisect_left(starts, win_lo)
        hits = order[left : bisect_left(starts, win_hi, left)]
        # Matches come back in valid-time order; answers are in
        # position (= transaction) order, so re-sort the survivors.
        if as_of is None:
            live = columns.live
            return sorted(i for i in hits if live[i])
        tt_stop = columns.tt_stop
        return sorted(i for i in hits if i < cut and as_of < tt_stop[i])
    if as_of is None:
        live = columns.live
        if win_lo is None:
            return list(compress(range(lo, hi), live[lo:hi]))
        vt_start = columns.vt_start
        vt_stop = columns.vt_stop
        return [
            i for i in range(lo, hi) if live[i] and vt_start[i] < win_hi and vt_stop[i] > win_lo
        ]
    tt_stop = columns.tt_stop
    if win_lo is None:
        return [i for i in range(lo, cut) if as_of < tt_stop[i]]
    vt_start = columns.vt_start
    vt_stop = columns.vt_stop
    return [
        i
        for i in range(lo, cut)
        if as_of < tt_stop[i] and vt_start[i] < win_hi and vt_stop[i] > win_lo
    ]
