"""Unit and property tests for the specialization-aware planner.

Two obligations: (1) the planner picks the strategy the declared
specialization licenses, and (2) every plan returns exactly the
reference executor's answer -- on both engines, under random data.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.query import (
    BitemporalSlice,
    CurrentState,
    NaiveExecutor,
    Planner,
    Rollback,
    Scan,
    ValidOverlap,
    ValidTimeslice,
)
from repro.relation.schema import TemporalSchema, ValidTimeKind
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.logfile import LogFileEngine


def build_relation(specializations, offsets, kind=ValidTimeKind.EVENT, engine=None):
    """A relation whose i-th element has tt = 10*i and vt = tt + offset."""
    schema = TemporalSchema(name="r", valid_time_kind=kind, specializations=specializations)
    clock = SimulatedWallClock(start=0)
    relation = TemporalRelation(schema, clock=clock, engine=engine)
    for i, offset in enumerate(offsets):
        clock.advance_to(Timestamp(10 * i))
        if kind is ValidTimeKind.EVENT:
            relation.insert("obj", Timestamp(10 * i + offset), {})
        else:
            start = 10 * i + offset
            relation.insert("obj", Interval(Timestamp(start), Timestamp(start + 8)), {})
    return relation


class TestStrategySelection:
    def test_degenerate_uses_tt_point_lookup(self):
        relation = build_relation(["degenerate"], [0] * 50)
        plan = Planner(relation).plan(ValidTimeslice(Scan(relation), Timestamp(200)))
        assert plan.strategy == "degenerate-rollback"

    def test_non_decreasing_uses_binary_search(self):
        relation = build_relation(["globally non-decreasing"], [3] * 50)
        plan = Planner(relation).plan(ValidTimeslice(Scan(relation), Timestamp(203)))
        assert plan.strategy == "monotone-binary-search"

    def test_sequential_event_uses_binary_search(self):
        relation = build_relation(["globally sequential"], [-1] * 50)
        plan = Planner(relation).plan(ValidTimeslice(Scan(relation), Timestamp(199)))
        assert plan.strategy == "monotone-binary-search"

    def test_non_increasing_uses_descending_search(self):
        schema = TemporalSchema(name="arch", specializations=["globally non-increasing"])
        clock = SimulatedWallClock(start=0)
        relation = TemporalRelation(schema, clock=clock)
        for i in range(50):
            clock.advance_to(Timestamp(10 * i))
            relation.insert("dig", Timestamp(-10 * i), {})
        plan = Planner(relation).plan(ValidTimeslice(Scan(relation), Timestamp(-200)))
        assert plan.strategy == "monotone-binary-search-descending"

    def test_bounded_uses_tt_window(self):
        relation = build_relation(["strongly bounded(5s, 5s)"], [(-1) ** i * 4 for i in range(50)])
        plan = Planner(relation).plan(ValidTimeslice(Scan(relation), Timestamp(200)))
        assert plan.strategy == "bounded-tt-window"

    def test_one_sided_bound_also_windows(self):
        relation = build_relation(["retroactive"], [-3] * 50)
        plan = Planner(relation).plan(ValidTimeslice(Scan(relation), Timestamp(197)))
        assert plan.strategy == "bounded-tt-window"

    def test_general_relation_falls_back_to_engine_index(self):
        relation = build_relation([], [7, -20, 3, 40, -11])
        plan = Planner(relation).plan(ValidTimeslice(Scan(relation), Timestamp(3)))
        assert plan.strategy == "engine-index"

    def test_per_partition_ordering_does_not_license_global_search(self):
        """Per-partition sequentiality says nothing about the global
        valid-time order, so binary search would be unsound."""
        from repro.core.taxonomy import GloballySequential, PerPartition

        schema = TemporalSchema(
            name="r", specializations=[PerPartition(GloballySequential())]
        )
        relation = TemporalRelation(schema, clock=SimulatedWallClock(start=0))
        planner = Planner(relation)
        plan = planner.plan(ValidTimeslice(Scan(relation), Timestamp(0)))
        assert plan.strategy == "engine-index"

    def test_sequential_intervals_use_binary_search(self):
        from repro.core.taxonomy import IntervalGloballySequential

        schema = TemporalSchema(
            name="weeks",
            valid_time_kind=ValidTimeKind.INTERVAL,
            specializations=[IntervalGloballySequential()],
        )
        clock = SimulatedWallClock(start=0)
        relation = TemporalRelation(schema, clock=clock)
        for week in range(20):
            clock.advance_to(Timestamp(week * 10 + 9))
            relation.insert(
                "emp", Interval(Timestamp(week * 10), Timestamp(week * 10 + 7)), {}
            )
        plan = Planner(relation).plan(ValidTimeslice(Scan(relation), Timestamp(55)))
        assert plan.strategy == "sequential-interval-search"
        assert len(plan.execute()) == 1

    def test_rollback_always_prefix(self):
        relation = build_relation([], [0] * 10)
        plan = Planner(relation).plan(Rollback(Scan(relation), Timestamp(50)))
        assert plan.strategy == "rollback-prefix"

    def test_unknown_shape_falls_back_to_naive(self):
        relation = build_relation([], [0])
        nested = ValidTimeslice(CurrentState(Scan(relation)), Timestamp(0))
        plan = Planner(relation).plan(nested)
        assert plan.strategy == "naive"


class TestWorkSavings:
    def test_degenerate_examines_o1(self):
        relation = build_relation(["degenerate"], [0] * 2000)
        plan = Planner(relation).plan(ValidTimeslice(Scan(relation), Timestamp(10_000)))
        plan.execute()
        assert plan.examined <= 2

    def test_bounded_window_examines_window_only(self):
        relation = build_relation(["strongly bounded(5s, 5s)"], [0] * 2000)
        plan = Planner(relation).plan(ValidTimeslice(Scan(relation), Timestamp(10_000)))
        plan.execute()
        assert plan.examined <= 5

    def test_monotone_examines_log_plus_run(self):
        relation = build_relation(["globally non-decreasing"], [3] * 2000)
        plan = Planner(relation).plan(ValidTimeslice(Scan(relation), Timestamp(10_003)))
        plan.execute()
        assert plan.examined <= 20


class PlanEquivalenceMixin:
    """Plans always produce the reference executor's answer."""

    @staticmethod
    def assert_equivalent(relation, query):
        plan = Planner(relation).plan(query)
        planned = plan.execute()
        reference = NaiveExecutor().run(query)
        assert sorted(e.element_surrogate for e in planned) == sorted(
            e.element_surrogate for e in reference
        ), plan.strategy


class TestPlanEquivalence(PlanEquivalenceMixin):
    @settings(max_examples=25, deadline=None)
    @given(
        offsets=st.lists(st.integers(-5, 5), min_size=1, max_size=40),
        probe=st.integers(-10, 420),
        seed=st.integers(0, 5),
    )
    def test_bounded_random(self, offsets, probe, seed):
        relation = build_relation(["strongly bounded(5s, 5s)"], offsets)
        rng = random.Random(seed)
        for element in list(relation.all_elements()):
            if rng.random() < 0.2:
                relation.delete(element.element_surrogate)
        self.assert_equivalent(
            relation, ValidTimeslice(Scan(relation), Timestamp(probe))
        )

    @settings(max_examples=25, deadline=None)
    @given(
        count=st.integers(1, 40),
        probe=st.integers(-10, 420),
    )
    def test_degenerate_random(self, count, probe):
        relation = build_relation(["degenerate"], [0] * count)
        self.assert_equivalent(
            relation, ValidTimeslice(Scan(relation), Timestamp(probe))
        )

    @settings(max_examples=25, deadline=None)
    @given(
        steps=st.lists(st.integers(0, 4), min_size=1, max_size=40),
        probe=st.integers(-10, 200),
    )
    def test_monotone_random(self, steps, probe):
        schema = TemporalSchema(name="m", specializations=["globally non-decreasing"])
        clock = SimulatedWallClock(start=0)
        relation = TemporalRelation(schema, clock=clock)
        vt = 0
        for i, step in enumerate(steps):
            clock.advance_to(Timestamp(10 * i))
            vt += step
            relation.insert("o", Timestamp(vt), {})
        self.assert_equivalent(
            relation, ValidTimeslice(Scan(relation), Timestamp(probe))
        )

    @settings(max_examples=25, deadline=None)
    @given(
        offsets=st.lists(st.integers(-50, 50), min_size=1, max_size=30),
        tt_probe=st.integers(-5, 350),
    )
    def test_rollback_random(self, offsets, tt_probe):
        relation = build_relation([], offsets)
        self.assert_equivalent(relation, Rollback(Scan(relation), Timestamp(tt_probe)))

    @settings(max_examples=25, deadline=None)
    @given(
        offsets=st.lists(st.integers(-50, 50), min_size=1, max_size=30),
        vt_probe=st.integers(-60, 400),
        tt_probe=st.integers(-5, 350),
    )
    def test_bitemporal_random(self, offsets, vt_probe, tt_probe):
        relation = build_relation([], offsets)
        self.assert_equivalent(
            relation,
            BitemporalSlice(Scan(relation), vt=Timestamp(vt_probe), tt=Timestamp(tt_probe)),
        )

    @settings(max_examples=20, deadline=None)
    @given(
        offsets=st.lists(st.integers(-8, 8), min_size=1, max_size=25),
        low=st.integers(-20, 250),
        width=st.integers(1, 60),
    )
    def test_overlap_random_intervals(self, offsets, low, width):
        relation = build_relation([], offsets, kind=ValidTimeKind.INTERVAL)
        window = Interval(Timestamp(low), Timestamp(low + width))
        self.assert_equivalent(relation, ValidOverlap(Scan(relation), window))

    @settings(max_examples=15, deadline=None)
    @given(
        offsets=st.lists(st.integers(-5, 5), min_size=1, max_size=20),
        probe=st.integers(-10, 220),
    )
    def test_logfile_equivalence(self, tmp_path_factory, offsets, probe):
        engine = LogFileEngine(str(tmp_path_factory.mktemp("plan") / "r.wal"), fsync=False)
        relation = build_relation(["strongly bounded(5s, 5s)"], offsets, engine=engine)
        self.assert_equivalent(
            relation, ValidTimeslice(Scan(relation), Timestamp(probe))
        )
        engine.close()
