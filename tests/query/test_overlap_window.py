"""Tests for the bounded-window overlap planner rule."""

from hypothesis import given, settings, strategies as st

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, Timestamp
from repro.query import NaiveExecutor, Planner, Scan, ValidOverlap
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation


def build(offsets, specializations=("strongly bounded(5s, 5s)",)):
    schema = TemporalSchema(name="r", specializations=list(specializations))
    clock = SimulatedWallClock(start=0)
    relation = TemporalRelation(schema, clock=clock)
    for i, offset in enumerate(offsets):
        clock.advance_to(Timestamp(10 * i))
        relation.insert("o", Timestamp(10 * i + offset), {})
    return relation


class TestStrategy:
    def test_bounded_relation_uses_window(self):
        relation = build([0] * 50)
        query = ValidOverlap(Scan(relation), Interval(Timestamp(100), Timestamp(140)))
        plan = Planner(relation).plan(query)
        assert plan.strategy == "bounded-tt-window-overlap"

    def test_unbounded_relation_uses_engine_index(self):
        relation = build([0] * 50, specializations=())
        query = ValidOverlap(Scan(relation), Interval(Timestamp(100), Timestamp(140)))
        assert Planner(relation).plan(query).strategy == "engine-overlap"

    def test_unbounded_window_falls_back_inside_operator(self):
        relation = build([0] * 50)
        query = ValidOverlap(Scan(relation), Interval(Timestamp(100), FOREVER))
        plan = Planner(relation).plan(query)
        results = plan.execute()
        reference = NaiveExecutor().run(query)
        assert sorted(e.element_surrogate for e in results) == sorted(
            e.element_surrogate for e in reference
        )

    def test_work_restricted_to_window(self):
        relation = build([0] * 2_000)
        query = ValidOverlap(Scan(relation), Interval(Timestamp(5_000), Timestamp(5_100)))
        plan = Planner(relation).plan(query)
        plan.execute()
        # Window spans 100s + 10s of slack; spacing 10s -> ~12 candidates.
        assert plan.examined <= 13
        executor = NaiveExecutor()
        executor.run(query)
        assert executor.examined == 2_000


class TestEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        offsets=st.lists(st.integers(-5, 5), min_size=1, max_size=30),
        start=st.integers(-20, 320),
        width=st.integers(1, 80),
    )
    def test_matches_reference(self, offsets, start, width):
        relation = build(offsets)
        window = Interval(Timestamp(start), Timestamp(start + width))
        query = ValidOverlap(Scan(relation), window)
        plan = Planner(relation).plan(query)
        assert plan.strategy == "bounded-tt-window-overlap"
        fast = plan.execute()
        slow = NaiveExecutor().run(query)
        assert sorted(e.element_surrogate for e in fast) == sorted(
            e.element_surrogate for e in slow
        )

    @settings(max_examples=20, deadline=None)
    @given(
        offsets=st.lists(st.integers(-5, 0), min_size=1, max_size=20),
        start=st.integers(-20, 220),
        width=st.integers(1, 60),
    )
    def test_one_sided_retroactive(self, offsets, start, width):
        relation = build(offsets, specializations=("retroactive",))
        window = Interval(Timestamp(start), Timestamp(start + width))
        query = ValidOverlap(Scan(relation), window)
        plan = Planner(relation).plan(query)
        fast = plan.execute()
        slow = NaiveExecutor().run(query)
        assert sorted(e.element_surrogate for e in fast) == sorted(
            e.element_surrogate for e in slow
        )
