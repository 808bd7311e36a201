"""Unit tests for the physical operators and the reads plans make."""

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, NEGATIVE_INFINITY, Timestamp
from repro.core.taxonomy import IntervalGloballySequential
from repro.query import NaiveExecutor, Planner, Scan, ValidTimeslice, operators
from repro.relation.schema import TemporalSchema, ValidTimeKind
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.columnar import ScanSpec

#: One second in the spec's microsecond coordinates.
S = Timestamp(1).microseconds


def build_events(offsets, specializations=()):
    schema = TemporalSchema(name="r", specializations=list(specializations))
    clock = SimulatedWallClock(start=0)
    relation = TemporalRelation(schema, clock=clock)
    for i, offset in enumerate(offsets):
        clock.advance_to(Timestamp(10 * i))
        relation.insert("o", Timestamp(10 * i + offset), {})
    return relation


class TestFullScans:
    def test_timeslice_full_scan_counts_everything(self):
        relation = build_events([0] * 20)
        results, examined = operators.timeslice_full_scan(relation, Timestamp(50))
        assert examined == 20
        assert len(results) == 1

    def test_rollback_full_scan(self):
        relation = build_events([0] * 20)
        results, examined = operators.rollback_full_scan(relation, Timestamp(95))
        assert examined == 20
        assert len(results) == 10


class TestScanRollback:
    def test_prefix_examines_only_prefix(self):
        relation = build_events([0] * 100)
        results, examined = relation.engine.store.select(ScanSpec.of(as_of=Timestamp(95)))
        assert len(results) == 10
        assert examined == 10

    def test_forever_is_the_current_state(self):
        relation = build_events([0] * 10)
        relation.delete(relation.all_elements()[4].element_surrogate)
        results, examined = relation.engine.store.select(ScanSpec.of(as_of=FOREVER))
        assert len(results) == 9
        assert examined == 10

    def test_negative_infinity_is_an_empty_window(self):
        relation = build_events([0] * 10)
        assert relation.engine.store.select(ScanSpec.of(as_of=NEGATIVE_INFINITY)) == ([], 0)


class TestScanPointWindow:
    """The degenerate shape: the tt window is the probe itself."""

    def test_point_lookup(self):
        relation = build_events([0] * 50, specializations=["degenerate"])
        spec = ScanSpec.of(Timestamp(250)).narrowed(250 * S, 250 * S)
        results, examined = relation.engine.store.select(spec)
        assert len(results) == 1
        assert examined == 1


class TestScanBoundedWindow:
    def test_two_sided(self):
        relation = build_events([3] * 200, specializations=["strongly bounded(5s, 5s)"])
        spec = ScanSpec.of(Timestamp(503)).narrowed(498 * S, 508 * S)
        results, examined = relation.engine.store.select(spec)
        assert len(results) == 1
        assert examined <= 2

    def test_lower_side_only(self):
        """Retroactive side only: scan the suffix from vt on."""
        relation = build_events([-3] * 50)
        spec = ScanSpec.of(Timestamp(247)).narrowed(247 * S, None)
        results, examined = relation.engine.store.select(spec)
        assert len(results) == 1
        # Elements with tt >= vt: positions 25..49 (suffix scan).
        assert examined == 25

    def test_upper_side_only(self):
        relation = build_events([3] * 50)
        spec = ScanSpec.of(Timestamp(253)).narrowed(None, 253 * S)
        results, examined = relation.engine.store.select(spec)
        assert len(results) == 1
        assert examined == 26  # prefix through vt

    def test_full_range_scans_all(self):
        relation = build_events([0] * 10)
        _results, examined = relation.engine.store.select(ScanSpec.of(Timestamp(50)))
        assert examined == 10

    def test_overlap_window(self):
        relation = build_events([3] * 50)
        window = Interval(Timestamp(100), Timestamp(140))
        spec = ScanSpec.of(window).narrowed(95 * S, 145 * S)
        results, examined = relation.engine.store.select(spec)
        assert [e.vt for e in results] == [Timestamp(v) for v in (103, 113, 123, 133)]
        assert examined == 5  # tt 100..140


def planned_timeslice(relation, vt, strategy):
    """The planned timeslice at *vt*: it carries the *strategy* label and
    answers what the reference executor answers."""
    query = ValidTimeslice(Scan(relation), vt)
    plan = Planner(relation).plan(query)
    assert plan.strategy == strategy
    results = plan.execute()
    expected = NaiveExecutor().run(query)
    assert sorted(e.element_surrogate for e in results) == sorted(
        e.element_surrogate for e in expected
    )
    return results, plan.examined


class TestMonotoneOperators:
    """Declared orderings label a read of the valid-time index."""

    def test_ascending_run_collection(self):
        # Duplicate valid times: the full run must be returned.
        schema = TemporalSchema(name="m", specializations=["globally non-decreasing"])
        clock = SimulatedWallClock(start=0)
        relation = TemporalRelation(schema, clock=clock)
        for i, vt in enumerate([0, 10, 10, 10, 20]):
            clock.advance_to(Timestamp(10 * i))
            relation.insert("o", Timestamp(vt), {})
        results, _examined = planned_timeslice(
            relation, Timestamp(10), "monotone-binary-search"
        )
        assert len(results) == 3

    def test_descending(self):
        schema = TemporalSchema(name="m", specializations=["globally non-increasing"])
        clock = SimulatedWallClock(start=0)
        relation = TemporalRelation(schema, clock=clock)
        for i, vt in enumerate([30, 20, 20, 10]):
            clock.advance_to(Timestamp(10 * i))
            relation.insert("o", Timestamp(vt), {})
        results, _examined = planned_timeslice(
            relation, Timestamp(20), "monotone-binary-search-descending"
        )
        assert len(results) == 2

    def test_miss_returns_empty(self):
        relation = build_events([0] * 10, specializations=["globally non-decreasing"])
        results, _examined = planned_timeslice(
            relation, Timestamp(55), "monotone-binary-search"
        )
        assert results == []

    def test_skips_deleted_elements(self):
        relation = build_events([0] * 10, specializations=["globally non-decreasing"])
        victim = relation.all_elements()[5]
        relation.delete(victim.element_surrogate)
        results, _ = planned_timeslice(relation, victim.vt, "monotone-binary-search")
        assert results == []


class TestSequentialIntervalOperator:
    """Declared sequential intervals label one stab of the interval tree."""

    def build_intervals(self):
        schema = TemporalSchema(
            name="weeks",
            valid_time_kind=ValidTimeKind.INTERVAL,
            specializations=[IntervalGloballySequential()],
        )
        clock = SimulatedWallClock(start=0)
        relation = TemporalRelation(schema, clock=clock)
        for week in range(10):
            clock.advance_to(Timestamp(100 * week + 90))
            relation.insert(
                "o", Interval(Timestamp(100 * week), Timestamp(100 * week + 70)), {}
            )
        return relation

    def test_hit(self):
        relation = self.build_intervals()
        results, examined = planned_timeslice(
            relation, Timestamp(350), "sequential-interval-search"
        )
        assert len(results) == 1
        assert results[0].vt.start == Timestamp(300)
        assert examined <= 10

    def test_gap_miss(self):
        relation = self.build_intervals()
        results, _ = planned_timeslice(
            relation, Timestamp(380), "sequential-interval-search"
        )
        assert results == []

    def test_before_first(self):
        relation = self.build_intervals()
        results, _ = planned_timeslice(
            relation, Timestamp(-5), "sequential-interval-search"
        )
        assert results == []

    def test_empty_relation(self):
        schema = TemporalSchema(
            name="w",
            valid_time_kind=ValidTimeKind.INTERVAL,
            specializations=[IntervalGloballySequential()],
        )
        relation = TemporalRelation(schema, clock=SimulatedWallClock(start=0))
        results, examined = planned_timeslice(
            relation, Timestamp(0), "sequential-interval-search"
        )
        assert results == [] and examined == 0


class TestScanBitemporal:
    def test_prefix_and_filter(self):
        relation = build_events([0] * 20)
        victim = relation.all_elements()[3]
        relation.delete(victim.element_surrogate)
        results, examined = relation.engine.store.select(
            ScanSpec.of(victim.vt, as_of=Timestamp(100))
        )
        assert [e.element_surrogate for e in results] == [victim.element_surrogate]
        assert examined <= 11
