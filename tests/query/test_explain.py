"""EXPLAIN coverage: one query per planner strategy.

Each test drives ``TemporalRelation.explain`` through a relation shaped
to trigger exactly one strategy and asserts the report names it, logs
at least one pruning decision, and carries a timed span tree (compile
-- for TQL input -- plan, execute, and the operator span).
"""

from repro.chronos.clock import ManualTimer, SimulatedWallClock
from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.core.taxonomy.event_isolated import Degenerate
from repro.core.taxonomy.interval_inter import IntervalGloballyNonDecreasing
from repro.query import (
    BitemporalSlice,
    CurrentState,
    Rollback,
    Scan,
    TemporalJoin,
    ValidOverlap,
    ValidTimeslice,
)
from repro.relation.schema import TemporalSchema, ValidTimeKind
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.memory import MemoryEngine


def build_events(specializations, offsets, name="r"):
    schema = TemporalSchema(name=name, specializations=list(specializations))
    clock = SimulatedWallClock(start=0)
    relation = TemporalRelation(schema, clock=clock)
    for i, offset in enumerate(offsets):
        clock.advance_to(Timestamp(10 * i))
        relation.insert("o", Timestamp(10 * i + offset), {})
    return relation


def build_intervals(name, spans, specializations):
    schema = TemporalSchema(
        name=name,
        valid_time_kind=ValidTimeKind.INTERVAL,
        specializations=specializations,
    )
    clock = SimulatedWallClock(start=0)
    relation = TemporalRelation(schema, clock=clock)
    for i, (start, end) in enumerate(spans):
        clock.advance_to(Timestamp(10 * i))
        relation.insert("o", Interval(Timestamp(start), Timestamp(end)), {})
    return relation


def assert_report_shape(report, strategy, min_spans=3):
    assert report.strategy == strategy
    assert report.decisions, "the planner should log its decision path"
    assert report.decisions[-1].startswith(f"chosen: {strategy}")
    assert report.trace.span_count() >= min_spans
    names = [span.name for span in report.trace.all_spans()]
    assert "plan" in names
    assert "execute" in names
    assert f"operator:{strategy}" in names
    for span in report.trace.all_spans():
        assert span.duration_seconds >= 0.0


class TestTimesliceStrategies:
    def test_degenerate_rollback(self):
        relation = build_events(["degenerate"], [0] * 30)
        report = relation.explain(ValidTimeslice(Scan(relation), Timestamp(100)))
        assert_report_shape(report, "degenerate-rollback")
        assert any("degenerate" in decision for decision in report.decisions)

    def test_degenerate_tick_window(self):
        schema = TemporalSchema(
            name="g", specializations=[Degenerate(granularity="minute")]
        )
        clock = SimulatedWallClock(start=0)
        relation = TemporalRelation(schema, clock=clock)
        for i in range(60):
            base = 60 * i
            clock.advance_to(Timestamp(base + 30))
            relation.insert("o", Timestamp(base + (i % 25)), {})
        probe = relation.all_elements()[30].vt
        report = relation.explain(ValidTimeslice(Scan(relation), probe))
        assert_report_shape(report, "degenerate-tick-window")

    def test_monotone_binary_search(self):
        relation = build_events(["globally non-decreasing"], [3] * 30)
        report = relation.explain(ValidTimeslice(Scan(relation), Timestamp(103)))
        assert_report_shape(report, "monotone-binary-search")

    def test_monotone_binary_search_descending(self):
        schema = TemporalSchema(name="arch", specializations=["globally non-increasing"])
        clock = SimulatedWallClock(start=0)
        relation = TemporalRelation(schema, clock=clock)
        for i in range(30):
            clock.advance_to(Timestamp(10 * i))
            relation.insert("dig", Timestamp(-10 * i), {})
        report = relation.explain(ValidTimeslice(Scan(relation), Timestamp(-100)))
        assert_report_shape(report, "monotone-binary-search-descending")

    def test_sequential_interval_search(self):
        from repro.core.taxonomy import IntervalGloballySequential

        relation = build_intervals(
            "weeks",
            [(week * 10, week * 10 + 7) for week in range(20)],
            [IntervalGloballySequential()],
        )
        report = relation.explain(ValidTimeslice(Scan(relation), Timestamp(55)))
        assert_report_shape(report, "sequential-interval-search")
        assert report.returned == 1

    def test_bounded_tt_window(self):
        relation = build_events(
            ["strongly bounded(5s, 5s)"], [(-1) ** i * 4 for i in range(30)]
        )
        report = relation.explain(ValidTimeslice(Scan(relation), Timestamp(100)))
        assert_report_shape(report, "bounded-tt-window")
        assert any("window" in decision for decision in report.decisions)

    def test_engine_index_fallback(self):
        relation = build_events([], [7, -20, 3, 40, -11])
        report = relation.explain(ValidTimeslice(Scan(relation), Timestamp(3)))
        assert_report_shape(report, "engine-index")


class TestOtherShapes:
    def test_rollback_prefix(self):
        relation = build_events([], [0] * 10)
        report = relation.explain(Rollback(Scan(relation), Timestamp(50)))
        assert_report_shape(report, "rollback-prefix")

    def test_bitemporal_prefix(self):
        relation = build_events([], [0] * 10)
        report = relation.explain(
            BitemporalSlice(Scan(relation), vt=Timestamp(50), tt=Timestamp(50))
        )
        assert_report_shape(report, "bitemporal-prefix")

    def test_current_state(self):
        relation = build_events([], [0] * 10)
        report = relation.explain(CurrentState(Scan(relation)))
        assert_report_shape(report, "current")

    def test_bounded_tt_window_overlap(self):
        relation = build_events(["strongly bounded(5s, 5s)"], [0] * 30)
        report = relation.explain(
            ValidOverlap(Scan(relation), Interval(Timestamp(100), Timestamp(140)))
        )
        assert_report_shape(report, "bounded-tt-window-overlap")

    def test_engine_overlap(self):
        relation = build_events([], [0] * 30)
        report = relation.explain(
            ValidOverlap(Scan(relation), Interval(Timestamp(100), Timestamp(140)))
        )
        assert_report_shape(report, "engine-overlap")

    def test_naive_fallback(self):
        relation = build_events([], [0])
        report = relation.explain(ValidTimeslice(CurrentState(Scan(relation)), Timestamp(0)))
        assert_report_shape(report, "naive")
        assert any("no rule matched" in d or "naive" in d for d in report.decisions)


class TestJoinStrategies:
    @staticmethod
    def join_of(left, right):
        return TemporalJoin(
            CurrentState(Scan(left)),
            CurrentState(Scan(right)),
            condition=lambda a, b: True,
        )

    def test_merge_join(self):
        left = build_events(["globally non-decreasing"], [3] * 5, name="l")
        right = build_events(["globally non-decreasing"], [3] * 5, name="r")
        report = left.explain(self.join_of(left, right))
        assert_report_shape(report, "merge-join")

    def test_interval_merge_join(self):
        left = build_intervals("li", [(0, 5), (3, 9)], [IntervalGloballyNonDecreasing()])
        right = build_intervals("ri", [(4, 8)], [IntervalGloballyNonDecreasing()])
        report = left.explain(self.join_of(left, right))
        assert_report_shape(report, "interval-merge-join")


def build_segmented(specializations, offsets, segment_size=8, name="r"):
    """Events at tt = 10*i with a small segment size (sealed segments
    appear at realistic test sizes)."""
    schema = TemporalSchema(name=name, specializations=list(specializations))
    clock = SimulatedWallClock(start=0)
    engine = MemoryEngine(segment_size=segment_size)
    relation = TemporalRelation(schema, clock=clock, engine=engine)
    for i, offset in enumerate(offsets):
        clock.advance_to(Timestamp(10 * i))
        relation.insert("o", Timestamp(10 * i + offset), {})
    return relation, clock


class TestSegmentPruning:
    """Every pruning-capable strategy reports its zone-map counts."""

    def test_rollback_prefix_prunes_dead_segments(self):
        relation, clock = build_segmented([], [0] * 64)
        clock.advance_to(Timestamp(1000))
        for element in relation.all_elements()[:16]:
            relation.delete(element.element_surrogate)
        report = relation.explain(Rollback(Scan(relation), Timestamp(2000)))
        assert_report_shape(report, "rollback-prefix")
        # Segments 0-1 (positions 0-15) died before the probe.
        assert report.segments_pruned == 2
        assert report.segments_scanned == 6
        assert "segments  : 6 scanned, 2 pruned by zone maps" in report.render()

    def test_bitemporal_prefix_prunes_on_valid_time(self):
        relation, _clock = build_segmented([], [0] * 64)
        report = relation.explain(
            BitemporalSlice(Scan(relation), vt=Timestamp(0), tt=Timestamp(10_000))
        )
        assert_report_shape(report, "bitemporal-prefix")
        # Only segment 0's valid-time range [0, 70] covers vt=0.
        assert report.segments_scanned == 1
        assert report.segments_pruned == 7
        assert report.returned == 1

    def test_bounded_tt_window_reports_counts(self):
        relation, _clock = build_segmented(
            ["strongly bounded(5s, 5s)"], [(-1) ** i * 4 for i in range(64)]
        )
        report = relation.explain(ValidTimeslice(Scan(relation), Timestamp(104)))
        assert_report_shape(report, "bounded-tt-window")
        assert report.segments_scanned is not None
        assert report.segments_pruned is not None
        assert "segments  :" in report.render()

    def test_bounded_overlap_reports_counts(self):
        relation, _clock = build_segmented(["strongly bounded(5s, 5s)"], [0] * 64)
        report = relation.explain(
            ValidOverlap(Scan(relation), Interval(Timestamp(100), Timestamp(140)))
        )
        assert_report_shape(report, "bounded-tt-window-overlap")
        assert report.segments_scanned is not None
        assert "segments  :" in report.render()

    def test_pinned_timeslice_reports_columnar_counts(self):
        relation, _clock = build_segmented([], [0] * 64)
        # The live timeslice is the valid-time index's (no segment
        # lines); its pinned spelling runs the kernel on the columns.
        live = relation.explain(ValidTimeslice(Scan(relation), Timestamp(0)))
        assert_report_shape(live, "engine-index")
        assert "segments  :" not in live.render()
        pin = relation.pin_epoch().as_of
        report = relation.explain(BitemporalSlice(Scan(relation), vt=Timestamp(0), tt=pin))
        assert_report_shape(report, "bitemporal-prefix")
        assert report.segments_scanned == 1
        assert report.segments_pruned == 7
        assert report.returned == 1
        # Only segment 0's elements were touched.
        assert report.examined == 8
        assert report.columnar_positions_examined == 8
        assert report.columnar_elements_materialized == 1
        assert (
            "columnar  : 8 positions examined, 1 elements materialized"
            in report.render()
        )

    def test_non_pruning_strategy_reports_no_counts(self):
        relation, _clock = build_segmented([], [0] * 64)
        report = relation.explain(ValidTimeslice(Scan(relation), Timestamp(0)))
        assert_report_shape(report, "engine-index")
        assert report.segments_scanned is None
        assert "segments  :" not in report.render()


class TestSmallRelationThreshold:
    """There is none: a relation of a few elements plans as a large one."""

    def test_single_element_keeps_its_declared_strategy(self):
        relation = build_events(["globally non-decreasing"], [3])
        report = relation.explain(ValidTimeslice(Scan(relation), Timestamp(3)))
        assert_report_shape(report, "monotone-binary-search")
        assert report.returned == 1

    def test_degenerate_is_exempt(self):
        relation = build_events(["degenerate"], [0] * 2)
        report = relation.explain(ValidTimeslice(Scan(relation), Timestamp(10)))
        assert_report_shape(report, "degenerate-rollback")


class TestReportMechanics:
    def test_tql_statement_gets_compile_span(self):
        relation = build_events(["strongly bounded(5s, 5s)"], [0] * 30, name="temps")
        report = relation.explain("SELECT * FROM temps VALID AT 100s")
        assert report.statement == "SELECT * FROM temps VALID AT 100s"
        assert report.strategy == "bounded-tt-window"
        names = [span.name for span in report.trace.all_spans()]
        assert names[0] == "compile"
        assert report.trace.span_count() >= 4

    def test_no_execute_plans_only(self):
        relation = build_events(["degenerate"], [0] * 10)
        report = relation.explain(
            ValidTimeslice(Scan(relation), Timestamp(50)), execute=False
        )
        assert report.strategy == "degenerate-rollback"
        assert not report.executed
        assert report.results == []
        names = [span.name for span in report.trace.all_spans()]
        assert "execute" not in names

    def test_manual_timer_makes_deterministic_trace(self):
        relation = build_events(["degenerate"], [0] * 10)
        report = relation.explain(
            ValidTimeslice(Scan(relation), Timestamp(50)), timer=ManualTimer()
        )
        assert all(span.duration_seconds == 0.0 for span in report.trace.all_spans())

    def test_render_mentions_strategy_and_spans(self):
        relation = build_events(["degenerate"], [0] * 10)
        report = relation.explain(ValidTimeslice(Scan(relation), Timestamp(50)))
        rendered = report.render()
        assert "strategy  : degenerate-rollback" in rendered
        assert "decisions :" in rendered
        assert "- plan" in rendered
        assert "operator:degenerate-rollback" in rendered
