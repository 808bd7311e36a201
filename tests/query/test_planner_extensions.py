"""Tests for planner extensions: granularity-degenerate windows."""

from hypothesis import given, settings, strategies as st

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.timestamp import Timestamp
from repro.core.taxonomy.event_isolated import Degenerate
from repro.query import NaiveExecutor, Planner, Scan, ValidTimeslice
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation


def build_granular_degenerate(count=200):
    """Samples stored within the same minute as their measurement."""
    schema = TemporalSchema(name="g", specializations=[Degenerate(granularity="minute")])
    clock = SimulatedWallClock(start=0)
    relation = TemporalRelation(schema, clock=clock)
    for i in range(count):
        base = 60 * i
        clock.advance_to(Timestamp(base + 30))
        relation.insert("o", Timestamp(base + (i % 25)), {})
    return relation


class TestGranularDegenerate:
    def test_strategy_selected(self):
        relation = build_granular_degenerate()
        probe = relation.all_elements()[100].vt
        plan = Planner(relation).plan(ValidTimeslice(Scan(relation), probe))
        assert plan.strategy == "degenerate-tick-window"
        assert "minute" in plan.explanation

    def test_window_examines_one_tick(self):
        relation = build_granular_degenerate()
        probe = relation.all_elements()[100].vt
        plan = Planner(relation).plan(ValidTimeslice(Scan(relation), probe))
        plan.execute()
        assert plan.examined <= 1  # one store per minute in this workload

    @settings(max_examples=30, deadline=None)
    @given(position=st.integers(0, 199), offset=st.integers(-120, 120))
    def test_equivalence_with_reference(self, position, offset):
        relation = build_granular_degenerate()
        anchor = relation.all_elements()[position].vt
        probe = Timestamp(anchor.ticks + offset, "second")
        query = ValidTimeslice(Scan(relation), probe)
        plan = Planner(relation).plan(query)
        fast = plan.execute()
        slow = NaiveExecutor().run(query)
        assert sorted(e.element_surrogate for e in fast) == sorted(
            e.element_surrogate for e in slow
        )

