"""Whole units: a sealed segment every row of which matches is one slice.

``ScanSpec.must_match`` is the dual of ``may_match``: it accepts a
sealed segment whose zone map proves that every row satisfies the spec
(no row closed, the pin at or past the segment's last ``tt_start``, the
zone's valid times inside the window), and ``SegmentedStore.select``
then serves the rows the transaction-time window leaves of it as one
``elements_range`` slice instead of running the column kernel.  These
tests hold that shortcut to two oracles -- the kernel-only answer
(``must_match`` refusing everything) and ``NaiveExecutor`` over the
element objects -- with the examined count and the ``SegmentStats``
equal to the kernel's, and replay the writer steps a slice can land
inside.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
import tempfile
import threading
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, NEGATIVE_INFINITY, Timestamp
from repro.query import CurrentState, NaiveExecutor, Rollback, Scan, ValidOverlap
from repro.query.operators import SegmentStats
from repro.relation.schema import TemporalSchema, ValidTimeKind
from repro.relation.temporal_relation import TemporalRelation
from repro.storage import codec, segments
from repro.storage.columnar import POS_SENTINEL, ScanSpec, StampColumns, decode_point
from repro.storage.logfile import LogFileEngine
from repro.storage.segments import SegmentedStore
from repro.storage.tiered import TierManager
from tests.storage.test_pinned_scan import event, pinned_at
from tests.storage.test_segments import signature
from tests.strategies import OBJECTS, SMALL_TICKS, topologies


def _refuse(self, summary, rows):
    return False


def kernel_only():
    """The kernel path for every unit: acceptance switched off."""
    return mock.patch.object(ScanSpec, "must_match", _refuse)


def stats_of(stats: SegmentStats):
    return (
        stats.scanned,
        stats.pruned,
        stats.positions_examined,
        stats.materialized,
        stats.cold_segments,
    )


def naive_answer(relation, window, pin):
    """The reference: object predicates over every stored element."""
    scan = Scan(relation)
    naive = NaiveExecutor()
    if pin is None:
        return naive.run(CurrentState(scan) if window is None else ValidOverlap(scan, window))
    rows = naive.run(Rollback(scan, pin))
    if window is None:
        return rows
    return [
        e
        for e in rows
        if (e.vt.overlaps(window) if isinstance(e.vt, Interval) else window.contains_point(e.vt))
    ]


def zone_windows(zone):
    """Valid-time windows that contain, exactly equal, and straddle a
    zone's bounds, plus a point at its low end (``None`` skips a window
    the sentinels make empty)."""
    for lo, hi in (
        (zone.vt_lo - 1, zone.vt_hi + 2),  # contains
        (zone.vt_lo, zone.vt_hi + 1),  # equals an event zone
        (zone.vt_lo, zone.vt_hi),  # equals an interval zone (exclusive end)
        (zone.vt_lo + 1, zone.vt_hi),  # straddles the low bound
        (zone.vt_lo - 1, zone.vt_hi - 1),  # straddles the high bound
        (zone.vt_lo, zone.vt_lo + 1),  # a point
    ):
        try:
            yield Interval(decode_point(lo), decode_point(hi))
        except ValueError:  # both ends decoded to one sentinel, or lo >= hi
            continue


def zone_pins(zone):
    """Pins before, at the start of, inside, at the end of and after a
    segment."""
    return (zone.tt_lo - 1, zone.tt_lo, (zone.tt_lo + zone.tt_hi) // 2, zone.tt_hi, zone.tt_hi + 1)


def assert_slices_are_the_kernel_and_the_reference(relation) -> None:
    """Every pin and window the first sealed zones suggest, and the live
    state and no window besides."""
    store = relation.engine.store
    zones = [store.zone_of(ordinal) for ordinal in range(min(store.sealed_count, 3))]
    windows = [None] + [window for zone in zones for window in zone_windows(zone)]
    pins = [None] + [pin for zone in zones for pin in zone_pins(zone)]
    for window in windows:
        for pin in pins:
            as_of = None if pin is None else decode_point(pin)
            spec = ScanSpec.of(window, as_of)
            # The pin clips the tt window, or (a spec no route builds) not.
            for spec in {spec, dataclasses.replace(spec, tt_hi=POS_SENTINEL)}:
                sliced_stats, kernel_stats = SegmentStats(), SegmentStats()
                sliced, examined = store.select(spec, sliced_stats)
                with kernel_only():
                    kernel, kernel_examined = store.select(spec, kernel_stats)
                assert signature(sliced) == signature(kernel), spec
                assert examined == kernel_examined
                assert stats_of(sliced_stats) == stats_of(kernel_stats)
                assert None not in sliced
                assert signature(sliced) == signature(naive_answer(relation, window, as_of)), spec


@st.composite
def histories(draw):
    """Batches of events or intervals (unbounded ends included), closes
    of drawn rows, compactions and -- on a log -- reopens."""
    interval = draw(st.booleans())
    ops = []
    for _ in range(draw(st.integers(min_value=2, max_value=8))):
        kind = draw(st.sampled_from(["batch", "batch", "batch", "delete", "compact", "reopen"]))
        if kind == "batch":
            rows = []
            for _ in range(draw(st.integers(min_value=1, max_value=9))):
                start = draw(SMALL_TICKS)
                if interval:
                    end = draw(st.one_of(st.just(None), st.integers(start + 1, start + 30)))
                    low = draw(st.sampled_from([start, None]))
                    rows.append((draw(OBJECTS), low, end))
                else:
                    rows.append((draw(OBJECTS), start, None))
            ops.append(("batch", rows))
        elif kind == "delete":
            ops.append(("delete", draw(st.lists(st.integers(0, 80), min_size=1, max_size=3))))
        else:
            ops.append((kind,))
    return interval, ops


class History:
    """A relation on a drawn topology, in memory or on a log."""

    def __init__(self, topology, logged: bool, interval: bool) -> None:
        kind = ValidTimeKind.INTERVAL if interval else ValidTimeKind.EVENT
        self.schema = TemporalSchema(
            name="whole", valid_time_kind=kind, time_varying=("n",), enforce_key=False
        )
        self.topology = topology
        self.clock = SimulatedWallClock(start=0)
        self.directory = tempfile.mkdtemp(prefix="whole-units-") if logged else None
        self.relation = self._open()

    def _open(self) -> TemporalRelation:
        if self.directory is None:
            return self.topology.relation(self.schema, clock=self.clock)
        tier_dir = os.path.join(self.directory, "tier") if self.topology.tiered else None
        engine = LogFileEngine(
            os.path.join(self.directory, "whole.wal"),
            fsync=False,
            segment_size=self.topology.segment_size,
            tier_dir=tier_dir,
        )
        return TemporalRelation(self.schema, clock=self.clock, engine=engine)

    def run(self, ops) -> None:
        tick = 0
        for op in ops:
            tick += 100
            self.clock.advance_to(Timestamp(tick))
            if op[0] == "batch":
                rows = [(obj, self._vt(low, end), {"n": 1}) for obj, low, end in op[1]]
                self.relation.append_many(rows)
            elif op[0] == "delete":
                for which in op[1]:
                    live = self.relation.current()
                    if live:
                        tick += 1
                        self.clock.advance_to(Timestamp(tick))
                        self.relation.delete(live[which % len(live)].element_surrogate)
            elif op[0] == "compact":
                self.relation.engine.store.compact()
            elif self.directory is not None:  # reopen
                self.relation.engine.close()
                self.relation = None
                self.relation = self._open()

    def _vt(self, low, end):
        if not self.schema.is_event:
            return Interval(
                NEGATIVE_INFINITY if low is None else Timestamp(low),
                FOREVER if end is None else Timestamp(end),
            )
        return Timestamp(low)

    def close(self) -> None:
        try:
            if self.relation is not None:
                self.relation.engine.close()
        finally:
            if self.directory is not None:
                shutil.rmtree(self.directory, ignore_errors=True)


@settings(deadline=None, max_examples=60)
@given(topologies(), st.booleans(), histories())
def test_whole_unit_slices_equal_the_kernel_and_the_naive_executor(topology, logged, drawn):
    interval, ops = drawn
    history = History(topology, logged, interval)
    try:
        history.run(ops)
        assert_slices_are_the_kernel_and_the_reference(history.relation)
    finally:
        history.close()


def test_sealed_segments_with_no_close_are_sliced_not_scanned(tmp_path):
    """A rollback past untouched segments slices them, and so does a
    pin inside a segment that clips the tt window there; the same pin
    under an unclipped window, a window one microsecond short of a zone
    and a segment with a close go through the kernel.  Answers never
    differ."""
    tiering = TierManager(str(tmp_path), cache_segments=1, hot_reserve=1)
    store = SegmentedStore(segment_size=4, tier_manager=tiering)
    for position in range(14):  # segments [0, 4) cold, [4, 8) cold, [8, 12) hot, head 12-13
        store.append(event(position))
    assert store.cold_base == 8
    kernel_calls = []
    original = segments.positions

    def counting(columns, lo, hi, spec, whole=False):
        kernel_calls.append(hi - lo)
        return original(columns, lo, hi, spec, whole)

    with mock.patch.object(segments, "positions", counting):
        rows, examined = store.select(pinned_at(13))
        assert examined == 14 and signature(rows) == signature(map(event, range(14)))
        assert kernel_calls == [2]  # the head only: three sealed segments sliced
        kernel_calls.clear()
        # A pin inside segment [4, 8) whose window clips it there: sliced.
        rows, examined = store.select(pinned_at(5))
        assert (signature(rows), examined) == (signature(map(event, range(6))), 6)
        assert kernel_calls == []
        # The same pin with an unclipped window: rows past it need the kernel.
        rows, examined = store.select(ScanSpec(as_of=pinned_at(5).as_of))
        assert (signature(rows), examined) == (signature(map(event, range(6))), 10)
        assert kernel_calls == [4, 2]
        kernel_calls.clear()
        zone = store.zone_of(2)  # vt 8 % 3 .. 11 % 3 = [0, 2]
        store.select(ScanSpec(as_of=pinned_at(13).as_of, vt_lo=zone.vt_lo, vt_hi=zone.vt_hi))
        assert 4 in kernel_calls  # vt_hi is an event's own stamp: not every row is inside
        kernel_calls.clear()
        store.select(ScanSpec(as_of=pinned_at(13).as_of, vt_lo=zone.vt_lo, vt_hi=zone.vt_hi + 1))
        assert 4 not in kernel_calls
    store.replace(1, store.element_at(1).closed(Timestamp(10 * 20)))  # a cold patch
    assert not pinned_at(13).must_match(store.zone_of(0), 4)
    assert pinned_at(13).must_match(store.zone_of(1), 4)
    assert not ScanSpec(as_of=POS_SENTINEL).must_match(store.zone_of(1), 4)
    sliced = store.select(pinned_at(13))[0]
    with kernel_only():
        assert signature(store.select(pinned_at(13))[0]) == signature(sliced)
    store.close()


def test_a_cold_slice_keeps_the_rows_a_kernel_read_decoded(tmp_path):
    """Decoding the rest of a cold segment for a slice keeps the rows an
    earlier read decoded one by one, and so the fragments they filled."""
    store = SegmentedStore(segment_size=4, tier_manager=TierManager(str(tmp_path), hot_reserve=0))
    for position in range(9):
        store.append(event(position))
    assert store.cold_base == 8
    survivor = store.element_at(1)  # a kernel survivor materializes alone
    fragment = codec.fill_fragment(survivor)
    sliced = store.elements_range(0, 4)
    assert sliced[1] is survivor and survivor._wire == fragment
    assert signature(sliced) == signature(map(event, range(4)))
    store.close()


def test_a_slice_taken_inside_a_demotion_reads_its_rows_from_the_tier(tmp_path):
    """Demotion clears a segment's hot slots before it swaps the column
    set that moves ``cold_base``: a slice landing in between reads
    ``None`` slots under a hot base and must re-read them cold."""
    tiering = TierManager(str(tmp_path), hot_reserve=100)  # nothing demotes unasked
    store = SegmentedStore(segment_size=4, tier_manager=tiering)
    for position in range(10):
        store.append(event(position))
    landed = []
    original = StampColumns.without_prefix

    def reader_lands(columns, count):
        assert store._elements[0] is None and store.cold_base == columns.base
        landed.append((store.cold_base, store.elements_range(0, 4), store.elements_range(2, 9)))
        return original(columns, count)

    with mock.patch.object(StampColumns, "without_prefix", reader_lands):
        store.compact()
    assert [base for base, _first, _second in landed] == [0, 4]
    for _base, first, second in landed:
        assert signature(first) == signature(map(event, range(4)))
        assert signature(second) == signature(map(event, range(2, 9)))
    store.close()


def test_whole_unit_slices_beside_a_sealing_and_demoting_writer(tmp_path):
    """Reader threads run pinned rollbacks (every sealed unit accepted)
    while the writer appends, seals and demotes: no answer holds
    ``None`` or a row past its pin."""
    tiering = TierManager(str(tmp_path), cache_segments=1, hot_reserve=0)
    store = SegmentedStore(segment_size=4, tier_manager=tiering)
    for position in range(16):
        store.append(event(position))
    published = [15]
    failures = []
    stop = threading.Event()

    def reader() -> None:
        try:
            while not stop.is_set():
                pin = published[0]
                rows = store.select(pinned_at(pin))[0]
                assert None not in rows
                assert signature(rows) == signature(map(event, range(pin + 1))), pin
        except Exception as error:  # noqa: BLE001 - reported by the assertion below
            failures.append(error)

    threads = [threading.Thread(target=reader) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for position in range(16, 240):
            store.append(event(position))
            published[0] = position  # a pin is published after its write
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    assert store.cold_base == 240
    store.close()
