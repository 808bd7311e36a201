"""The columnar stamp sidecar: encoding, the ``ScanSpec`` contract, the
position-list kernel, late materialization -- and the differential
property that the kernel path answers exactly what ``NaiveExecutor``'s
object predicates do, on every storage topology.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, NEGATIVE_INFINITY, Timestamp
from repro.query import (
    BitemporalSlice,
    NaiveExecutor,
    Planner,
    Rollback,
    Scan,
    ValidOverlap,
    ValidTimeslice,
    operators,
)
from repro.relation.schema import TemporalSchema, ValidTimeKind
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.columnar import (
    NEG_SENTINEL,
    POS_SENTINEL,
    ScanSpec,
    StampColumns,
    positions,
)
from repro.storage.logfile import LogFileEngine
from repro.storage.memory import MemoryEngine
from repro.storage.tiered import TierManager
from tests.storage.test_segments import replay, segment_workloads, signature


def build_events(offsets, specializations=(), segment_size=8):
    schema = TemporalSchema(name="r", specializations=list(specializations))
    clock = SimulatedWallClock(start=0)
    engine = MemoryEngine(segment_size=segment_size)
    relation = TemporalRelation(schema, clock=clock, engine=engine)
    for i, offset in enumerate(offsets):
        clock.advance_to(Timestamp(10 * i))
        relation.insert("o", Timestamp(10 * i + offset), {})
    return relation, clock


def build_intervals(spans, segment_size=8):
    schema = TemporalSchema(name="r", valid_time_kind=ValidTimeKind.INTERVAL)
    clock = SimulatedWallClock(start=0)
    engine = MemoryEngine(segment_size=segment_size)
    relation = TemporalRelation(schema, clock=clock, engine=engine)
    for i, (start, end) in enumerate(spans):
        clock.advance_to(Timestamp(10 * i))
        relation.insert("o", Interval(Timestamp(start), Timestamp(end)), {})
    return relation, clock


#: One second in microsecond coordinates (Timestamp's default unit).
S = Timestamp(1).microseconds


def valid_at(columns, lo, hi, vt):
    return positions(columns, lo, hi, ScanSpec(vt_lo=vt, vt_hi=vt + 1))


def stored_at(columns, lo, hi, tt):
    return positions(columns, lo, hi, ScanSpec(tt_hi=tt, as_of=tt))


class TestStampColumnEncoding:
    def test_event_rows_use_unit_intervals(self):
        relation, _clock = build_events([3, 7])
        columns = relation.engine.store.columns
        assert list(columns.tt_start) == [0, 10 * S]
        # Open existence intervals carry the positive sentinel.
        assert list(columns.tt_stop) == [POS_SENTINEL, POS_SENTINEL]
        assert list(columns.vt_start) == [3 * S, 17 * S]
        assert list(columns.vt_stop) == [3 * S + 1, 17 * S + 1]
        assert bytes(columns.live) == b"\x01\x01"
        # Integer probes make the shared predicate exact equality.
        assert valid_at(columns, 0, 2, 3 * S) == [0]
        assert valid_at(columns, 0, 2, 3 * S + 1) == []

    def test_interval_rows_keep_half_open_bounds(self):
        relation, _clock = build_intervals([(5, 20), (30, 40)])
        columns = relation.engine.store.columns
        assert list(columns.vt_start) == [5 * S, 30 * S]
        assert list(columns.vt_stop) == [20 * S, 40 * S]
        # Half-open: the end point itself is excluded.
        assert valid_at(columns, 0, 2, 20 * S - 1) == [0]
        assert valid_at(columns, 0, 2, 20 * S) == []
        # Overlap window [18s, 31s) touches both rows.
        assert positions(columns, 0, 2, ScanSpec(vt_lo=18 * S, vt_hi=31 * S)) == [0, 1]
        assert positions(columns, 0, 2, ScanSpec(vt_lo=20 * S, vt_hi=30 * S)) == []

    def test_unbounded_interval_endpoints_become_sentinels(self):
        schema = TemporalSchema(name="r", valid_time_kind=ValidTimeKind.INTERVAL)
        clock = SimulatedWallClock(start=0)
        engine = MemoryEngine(segment_size=8)
        relation = TemporalRelation(schema, clock=clock, engine=engine)
        relation.insert("o", Interval(Timestamp(5), FOREVER), {})
        columns = engine.store.columns
        assert list(columns.vt_start) == [5 * S]
        assert list(columns.vt_stop) == [POS_SENTINEL]
        assert NEG_SENTINEL < 0 < POS_SENTINEL
        # An unbounded end contains arbitrarily late probes.
        assert valid_at(columns, 0, 1, 10**15) == [0]

    def test_close_rewrites_tt_stop_and_clears_live_bit(self):
        relation, clock = build_events([0, 0, 0])
        clock.advance_to(Timestamp(1000))
        victim = relation.all_elements()[1]
        relation.delete(victim.element_surrogate)
        columns = relation.engine.store.columns
        assert bytes(columns.live) == b"\x01\x00\x01"
        assert columns.tt_stop[1] == 1000 * S
        assert positions(columns, 0, 3, ScanSpec()) == [0, 2]
        # The rollback predicate still sees the closed row just before
        # the close...
        assert stored_at(columns, 0, 3, 1000 * S - 1) == [0, 1, 2]
        # ...and not at or after it (half-open existence interval).
        assert stored_at(columns, 0, 3, 1000 * S) == [0, 2]

    def test_only_whole_ranges_build_a_sorted_projection(self):
        relation, clock = build_events([5, 0, 5, 3, 5, 0])
        clock.advance_to(Timestamp(1000))
        relation.delete(relation.all_elements()[2].element_surrogate)
        columns = relation.engine.store.columns
        spec = ScanSpec(vt_lo=0, vt_hi=60 * S)
        # A clipped range takes the plain pass and caches nothing...
        assert positions(columns, 1, 5, spec) == [1, 3, 4]
        assert not columns._sorted_cache
        # ...a whole one bisects its cached projection, same answer.
        assert positions(columns, 1, 5, spec, whole=True) == [1, 3, 4]
        assert list(columns._sorted_cache) == [(1, 5)]

    def test_a_growing_head_keeps_one_projection(self):
        """Every write moves the head's upper bound; the projection cached
        for the shorter head can never be asked for again, so caching the
        longer one drops it -- a write -> read loop holds one entry per
        sealed segment plus one for the head, however long it runs."""
        relation, clock = build_events([], segment_size=8)  # flat: demotion re-bases the keys
        store = relation.engine.store
        for i in range(60):
            clock.advance_to(Timestamp(10 * i))
            relation.insert("o", Timestamp((7 * i) % 50), {})
            pin = relation.pin_epoch().as_of
            assert len(relation.valid_at(Timestamp((7 * i) % 50), pin)) >= 1
            assert len(store.columns._sorted_cache) <= store.sealed_count + 1
        assert sorted(store.columns._sorted_cache) == [
            *((lo, lo + 8) for lo in range(0, 56, 8)),
            (56, 60),
        ]

    def test_whole_as_of_ranges_bisect_the_projection_too(self):
        relation, clock = build_events([5, 0, 5, 3, 5, 0])  # tt 0, 10, .. 50
        clock.advance_to(Timestamp(1000))
        relation.delete(relation.all_elements()[2].element_surrogate)
        columns = relation.engine.store.columns
        everything = Interval(Timestamp(0), Timestamp(60))
        cases = {
            # Row 2 was closed at 1000: after as_of, so still stored then...
            Timestamp(999): [0, 1, 2, 3, 4, 5],
            # ...and gone from the close on (half-open existence).
            Timestamp(1000): [0, 1, 3, 4, 5],
            # Rows stored after as_of are cut by position, not by vt.
            Timestamp(25): [0, 1, 2],
            Timestamp(0): [0],
        }
        for as_of, expected in cases.items():
            spec = ScanSpec.of(everything, as_of)
            assert positions(columns, 0, 6, spec) == expected
            assert positions(columns, 0, 6, spec, whole=True) == expected
        assert list(columns._sorted_cache) == [(0, 6)]
        # A narrower window bisects inside the same projection.
        point = ScanSpec.of(Timestamp(25), Timestamp(999))  # row 2's valid time
        assert positions(columns, 0, 6, point, whole=True) == [2]
        assert positions(columns, 0, 6, ScanSpec.of(Timestamp(25), Timestamp(1000)), whole=True) == []

    def test_memory_bytes_tracks_row_count(self):
        columns = StampColumns()
        assert columns.memory_bytes() == 0
        relation, _clock = build_events([0] * 10)
        sidecar = relation.engine.store.columns
        assert sidecar.memory_bytes() == 10 * (4 * 8 + 1)


class TestScanSpec:
    """Construction is the one place a TimePoint becomes an int."""

    def test_timeslice_is_the_unit_window(self):
        spec = ScanSpec.of(Timestamp(7))
        assert (spec.vt_lo, spec.vt_hi, spec.as_of) == (7 * S, 7 * S + 1, None)
        assert (spec.tt_lo, spec.tt_hi) == (NEG_SENTINEL, POS_SENTINEL)

    def test_as_of_clips_the_window(self):
        spec = ScanSpec.of(as_of=Timestamp(40))
        assert (spec.as_of, spec.tt_hi, spec.vt_lo) == (40 * S, 40 * S, None)

    def test_forever_is_live_and_negative_infinity_is_empty(self):
        assert ScanSpec.of(as_of=FOREVER) == ScanSpec()
        assert ScanSpec.of(as_of=NEGATIVE_INFINITY).tt_hi == NEG_SENTINEL

    def test_unbounded_window_sides_are_sentinels(self):
        spec = ScanSpec.of(Interval(NEGATIVE_INFINITY, Timestamp(9)))
        assert (spec.vt_lo, spec.vt_hi) == (NEG_SENTINEL, 9 * S)

    def test_narrowed_intersects(self):
        spec = ScanSpec.of(as_of=Timestamp(40)).narrowed(10 * S, 90 * S)
        assert (spec.tt_lo, spec.tt_hi) == (10 * S, 40 * S)
        assert spec.narrowed(None, None) == spec

    @pytest.mark.parametrize("survivors", [0, 3])
    def test_zone_map_rejects_only_what_no_row_matches(self, survivors):
        """``may_match`` against a sealed segment's zone map is
        conservative: a False verdict proves no stored row satisfies the
        spec (a plain-list filter is the oracle) -- with live rows left
        and with every row closed (the ``max_closed_tt_stop`` arm)."""
        memory = MemoryEngine(segment_size=8)
        schema = TemporalSchema(name="r")
        clock = SimulatedWallClock(start=0)
        relation = TemporalRelation(schema, clock=clock, engine=memory)
        for i in range(8):
            clock.advance_to(Timestamp(10 * i))
            relation.insert("o", Timestamp(10 * i + i % 3), {})
        stored = relation.all_elements()
        for when, victims in ((200, stored[:3]), (300, stored[3 : 8 - survivors])):
            clock.advance_to(Timestamp(when))
            for element in victims:
                relation.delete(element.element_surrogate)
        stored = relation.all_elements()
        zone = memory.store.zone_of(0)
        assert zone.live == survivors

        def satisfies(element, vt, as_of, tt_lo, tt_hi):
            tt = element.tt_start.microseconds
            if (tt_lo is not None and tt < tt_lo) or (tt_hi is not None and tt > tt_hi):
                return False
            if not (element.is_current if as_of is None else element.stored_during(as_of)):
                return False
            if isinstance(vt, Interval):
                return vt.contains_point(element.vt)
            return vt is None or element.valid_at(vt)

        points = [None] + [Timestamp(t) for t in (-5, 0, 35, 72, 199, 250, 300, 400)]
        windows = [None, Timestamp(0), Timestamp(41), Timestamp(90)] + [
            Interval(Timestamp(lo), Timestamp(hi)) for lo, hi in ((-9, 0), (70, 73), (73, 99))
        ]
        tt_windows = ((None, None), (None, -1 * S), (71 * S, None), (20 * S, 30 * S))
        verdicts = set()
        for as_of in points:
            for vt in windows:
                for tt_lo, tt_hi in tt_windows:
                    spec = ScanSpec.of(vt, as_of).narrowed(tt_lo, tt_hi)
                    verdict = spec.may_match(zone)
                    if not verdict:
                        assert not any(
                            satisfies(e, vt, as_of, tt_lo, tt_hi) for e in stored
                        ), spec
                    verdicts.add(verdict)
        assert verdicts == {True, False}


class TestLateMaterialization:
    """The kernel reports positions examined vs Elements materialized."""

    def probe(self, relation, query, strategy):
        report = relation.explain(query)
        assert report.strategy == strategy
        return report

    def test_every_scan_label_reports_columnar_counts(self):
        relation, clock = build_events([0] * 64)
        bounded, _ = build_events(
            [(-1) ** i * 4 for i in range(64)],
            specializations=["strongly bounded(5s, 5s)"],
        )
        degenerate, _ = build_events([0] * 64, specializations=["degenerate"])
        clock.advance_to(Timestamp(1000))
        cases = [
            (relation, Rollback(Scan(relation), Timestamp(300)), "rollback-prefix"),
            (
                relation,
                BitemporalSlice(Scan(relation), vt=Timestamp(0), tt=Timestamp(500)),
                "bitemporal-prefix",
            ),
            (
                bounded,
                ValidTimeslice(Scan(bounded), Timestamp(104)),
                "bounded-tt-window",
            ),
            (
                bounded,
                ValidOverlap(Scan(bounded), Interval(Timestamp(100), Timestamp(140))),
                "bounded-tt-window-overlap",
            ),
            (
                degenerate,
                ValidTimeslice(Scan(degenerate), Timestamp(100)),
                "degenerate-rollback",
            ),
        ]
        for rel, query, strategy in cases:
            report = self.probe(rel, query, strategy)
            assert report.columnar_positions_examined == report.examined, strategy
            assert report.columnar_elements_materialized == report.returned, strategy
            assert report.returned <= report.examined, strategy
            assert "columnar  :" in report.render()

    def test_examined_counts_only_surviving_segments(self):
        relation, _clock = build_events([0] * 64)
        stats = operators.SegmentStats()
        matches, examined = relation.engine.store.select(ScanSpec.of(Timestamp(0)), stats)
        assert len(matches) == 1
        assert examined == stats.positions_examined == 8
        assert stats.scanned == 1
        assert stats.pruned == 7

    def test_stats_accumulate_across_calls(self):
        relation, _clock = build_events([0] * 32)
        stats = operators.SegmentStats()
        for _ in range(2):
            matches, examined = relation.engine.store.select(ScanSpec.of(Timestamp(0)), stats)
        assert stats.positions_examined == 2 * examined > 0
        assert stats.materialized == 2 * len(matches)

    def test_each_execute_starts_fresh_stats(self):
        relation, _clock = build_events([0] * 32)
        plan = Planner(relation).plan(Rollback(Scan(relation), Timestamp(100)))
        plan.execute()
        first = plan.segment_stats
        counted = first.positions_examined
        assert counted > 0
        plan.execute()
        # The second run counts into its own object (all zeros when the
        # result cache answers it); the first run's report is untouched.
        assert plan.segment_stats is not first
        assert plan.segment_stats.positions_examined in (0, counted)
        assert first.positions_examined == counted


class TestCurrentStateFeed:
    def test_view_rebuild_matches_object_scan(self):
        relation, clock = build_events([0] * 40, segment_size=8)
        clock.advance_to(Timestamp(2000))
        for element in relation.all_elements()[::3]:
            relation.delete(element.element_surrogate)
        store = relation.engine.store
        store.invalidate_view()
        from_columns = signature(relation.current())
        from_objects = signature(e for e in relation.engine.scan() if e.is_current)
        assert from_columns == from_objects
        assert len(from_columns) == relation.live_count()


# -- the differential property -----------------------------------------------------


def kernel_and_oracle(relation, probes):
    """``engine.select(spec)`` answers beside ``NaiveExecutor``'s, per query shape."""
    a, b, c = (Timestamp(p) for p in probes)
    lo, hi = sorted((probes[0], probes[1] + 1))
    if lo == hi:  # probes can collide; Interval requires start < end
        hi += 1
    window = Interval(Timestamp(lo), Timestamp(hi))
    source = Scan(relation)
    cases = {
        "rollback": (ScanSpec.of(as_of=c), Rollback(source, c)),
        "rollback_forever": (ScanSpec.of(as_of=FOREVER), Rollback(source, FOREVER)),
        "timeslice": (ScanSpec.of(b), ValidTimeslice(source, b)),
        "overlap": (ScanSpec.of(window), ValidOverlap(source, window)),
        "bitemporal": (ScanSpec.of(b, c), BitemporalSlice(source, b, c)),
        "bitemporal_early": (ScanSpec.of(b, a), BitemporalSlice(source, b, a)),
    }
    naive = NaiveExecutor()
    return {
        name: (signature(relation.engine.select(spec)[0]), signature(naive.run(query)))
        for name, (spec, query) in cases.items()
    }


def pinned_and_listed(relation, probes):
    """The relation's pinned read methods beside a plain-list filter, at
    transaction times before the first stamp, mid-history, at the epoch
    pin, and at and just before the last logical delete."""
    stored = relation.all_elements()
    vt = Timestamp(probes[1])
    lo, hi = sorted((probes[0], probes[1] + 1))
    window = Interval(Timestamp(lo), Timestamp(hi + (lo == hi)))
    points = {"before_first": Timestamp(0), "pin": relation.pin_epoch().as_of}
    if stored:
        points["mid_history"] = stored[len(stored) // 2].tt_start
    closes = [e.tt_stop for e in stored if not e.is_current]
    if closes:
        points["last_delete"] = max(closes)
        points["before_last_delete"] = Timestamp(max(closes).microseconds - 1, "microsecond")
    cases = {}
    for name, as_of in points.items():
        at_tt = [e for e in stored if e.stored_during(as_of)]
        cases[f"valid_at@{name}"] = (
            signature(relation.valid_at(vt, as_of)),
            signature(e for e in at_tt if e.valid_at(vt)),
        )
        cases[f"valid_overlapping@{name}"] = (
            signature(relation.valid_overlapping(window, as_of)),
            signature(e for e in at_tt if window.contains_point(e.vt)),
        )
    return cases


def live_and_listed(relation, probes):
    """The relation's un-pinned reads -- the valid-time index's positions,
    filtered by the live bitmap -- beside a plain-list filter of the
    current state, in exact tt order; windows bounded, half-bounded and
    unbounded."""
    current = [e for e in relation.all_elements() if e.is_current]
    lo, hi = sorted((probes[0], probes[1] + 1))
    windows = {
        "bounded": Interval(Timestamp(lo), Timestamp(hi + (lo == hi))),
        "from": Interval(Timestamp(lo), FOREVER),
        "until": Interval(NEGATIVE_INFINITY, Timestamp(hi)),
        "unbounded": Interval(NEGATIVE_INFINITY, FOREVER),
    }
    cases = {}
    for probe in probes:
        vt = Timestamp(probe)
        cases[f"valid_at({probe})"] = (
            signature(relation.valid_at(vt)),
            signature(e for e in current if e.valid_at(vt)),
        )
    for name, window in windows.items():
        cases[f"valid_overlapping({name})"] = (
            signature(relation.valid_overlapping(window)),
            signature(e for e in current if window.contains_point(e.vt)),
        )
    return cases


@settings(deadline=None)
@given(segment_workloads())
def test_kernel_matches_naive_executor(workload):
    """Element-for-element identical answers, in transaction order: the
    column kernel behind ``scan(spec)`` versus ``NaiveExecutor``'s object
    predicates (snapshot reducibility's oracle) -- and the relation's
    pinned and un-pinned ``valid_at`` / ``valid_overlapping`` versus a
    plain-list filter -- on a never-sealing flat store, tiny and default
    segment sizes, the log-file engine, and the compressed cold
    tier with a one-segment decode cache -- after the same randomized interleaving of appends, batches, logical
    deletes, and vacuums."""
    ops, probes = workload
    with tempfile.TemporaryDirectory() as scratch:
        log = LogFileEngine(os.path.join(scratch, "r.wal"), fsync=False, segment_size=3)
        try:
            tiered = MemoryEngine(segment_size=4, tier_manager=TierManager(cache_segments=1))
            topologies = {
                "flat": replay(ops, 100_000),
                "segments=2": replay(ops, 2),
                "segments=5": replay(ops, 5),
                "segments=default": replay(ops, None),
                "logfile": replay(ops, None, engine=log),
                "tiered": replay(ops, 4, engine=tiered),
            }
            for topology, relation in topologies.items():
                for shape, (kernel, oracle) in kernel_and_oracle(relation, probes).items():
                    assert kernel == oracle, f"divergence on {topology} / {shape}"
                for shape, (pinned, listed) in pinned_and_listed(relation, probes).items():
                    assert pinned == listed, f"divergence on {topology} / {shape}"
                for shape, (live, listed) in live_and_listed(relation, probes).items():
                    assert live == listed, f"divergence on {topology} / {shape}"
            topologies["tiered"].engine.close()
        finally:
            log.close()
