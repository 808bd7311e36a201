"""Tests for the sort-merge temporal join planner rule."""

from hypothesis import given, settings, strategies as st

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.timestamp import Timestamp
from repro.query import CurrentState, NaiveExecutor, Planner, Scan, TemporalJoin
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation


def build(name, valid_times, declared=("globally non-decreasing",), deletions=()):
    schema = TemporalSchema(name=name, time_varying=("k",), specializations=list(declared))
    clock = SimulatedWallClock(start=0)
    relation = TemporalRelation(schema, clock=clock)
    stored = []
    for i, vt in enumerate(valid_times):
        clock.advance_to(Timestamp(10 * i))
        stored.append(relation.insert("o", Timestamp(vt), {"k": vt % 3}))
    for position in deletions:
        relation.delete(stored[position].element_surrogate)
    return relation


def join_of(left, right, condition=lambda l, r: True):
    return TemporalJoin(
        CurrentState(Scan(left)), CurrentState(Scan(right)), condition=condition
    )


def pairs_set(results):
    return sorted((a.element_surrogate, b.element_surrogate) for a, b in results)


class TestStrategySelection:
    def test_both_ordered_uses_merge(self):
        left = build("l", [0, 5, 10])
        right = build("r", [5, 10, 15])
        plan = Planner(left).plan(join_of(left, right))
        assert plan.strategy == "merge-join"

    def test_unordered_input_falls_back(self):
        left = build("l", [0, 5, 10])
        right = build("r", [5, 10, 15], declared=())
        plan = Planner(left).plan(join_of(left, right))
        assert plan.strategy == "naive"

    def test_sequential_also_qualifies(self):
        left = build("l", [0, 10, 20], declared=("globally sequential",))
        right = build("r", [10, 20, 30], declared=("globally sequential",))
        assert Planner(left).plan(join_of(left, right)).strategy == "merge-join"

    def test_raw_scan_shape_not_rewritten(self):
        left = build("l", [0, 5])
        right = build("r", [5, 10])
        raw = TemporalJoin(Scan(left), Scan(right))
        assert Planner(left).plan(raw).strategy == "naive"


class TestIntervalMergeJoin:
    @staticmethod
    def build_intervals(name, spans):
        from repro.chronos.interval import Interval
        from repro.core.taxonomy.interval_inter import IntervalGloballyNonDecreasing
        from repro.relation.schema import ValidTimeKind

        schema = TemporalSchema(
            name=name,
            valid_time_kind=ValidTimeKind.INTERVAL,
            specializations=[IntervalGloballyNonDecreasing()],
        )
        clock = SimulatedWallClock(start=0)
        relation = TemporalRelation(schema, clock=clock)
        for i, (start, end) in enumerate(spans):
            clock.advance_to(Timestamp(10 * i))
            relation.insert("o", Interval(Timestamp(start), Timestamp(end)), {})
        return relation

    def test_strategy_selected(self):
        left = self.build_intervals("li", [(0, 5), (3, 9)])
        right = self.build_intervals("ri", [(4, 8)])
        plan = Planner(left).plan(join_of(left, right))
        assert plan.strategy == "interval-merge-join"

    def test_overlap_pairs(self):
        left = self.build_intervals("li", [(0, 5), (3, 9), (20, 30)])
        right = self.build_intervals("ri", [(4, 8), (25, 26)])
        plan = Planner(left).plan(join_of(left, right))
        results = plan.execute()
        assert len(results) == 3  # (0,5)x(4,8), (3,9)x(4,8), (20,30)x(25,26)

    def test_mixed_kinds_fall_back(self):
        left = build("le", [0, 5])
        right = self.build_intervals("ri", [(0, 5)])
        plan = Planner(left).plan(join_of(left, right))
        assert plan.strategy == "naive"

    @settings(max_examples=40, deadline=None)
    @given(
        left_spans=st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 20)), min_size=1, max_size=12
        ),
        right_spans=st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 20)), min_size=1, max_size=12
        ),
    )
    def test_sweep_equals_naive(self, left_spans, right_spans):
        def cumulative(spans):
            start, out = 0, []
            for gap, width in spans:
                start += gap
                out.append((start, start + width))
            return out

        left = self.build_intervals("li", cumulative(left_spans))
        right = self.build_intervals("ri", cumulative(right_spans))
        query = join_of(left, right)
        plan = Planner(left).plan(query)
        assert plan.strategy == "interval-merge-join"
        assert pairs_set(plan.execute()) == pairs_set(NaiveExecutor().run(query))


class TestCorrectness:
    def test_equal_stamp_runs_cross_product(self):
        left = build("l", [5, 5, 10])
        right = build("r", [5, 5, 5])
        plan = Planner(left).plan(join_of(left, right))
        results = plan.execute()
        assert len(results) == 6  # 2 x 3 on stamp 5

    def test_condition_applied(self):
        left = build("l", [0, 1, 2])
        right = build("r", [0, 1, 2])
        plan = Planner(left).plan(
            join_of(left, right, condition=lambda l, r: l.attributes["k"] == 0)
        )
        results = plan.execute()
        assert all(l.attributes["k"] == 0 for l, _ in results)

    def test_deleted_elements_excluded(self):
        left = build("l", [0, 5, 10], deletions=(1,))
        right = build("r", [5, 10])
        plan = Planner(left).plan(join_of(left, right))
        results = plan.execute()
        assert all(l.vt != Timestamp(5) for l, _ in results)

    @settings(max_examples=40, deadline=None)
    @given(
        left_steps=st.lists(st.integers(0, 3), min_size=1, max_size=15),
        right_steps=st.lists(st.integers(0, 3), min_size=1, max_size=15),
    )
    def test_merge_equals_naive(self, left_steps, right_steps):
        def cumulative(steps):
            total, out = 0, []
            for step in steps:
                total += step
                out.append(total)
            return out

        left = build("l", cumulative(left_steps))
        right = build("r", cumulative(right_steps))
        query = join_of(left, right)
        plan = Planner(left).plan(query)
        assert plan.strategy == "merge-join"
        assert pairs_set(plan.execute()) == pairs_set(NaiveExecutor().run(query))

    def test_work_savings(self):
        n = 400
        left = build("l", list(range(0, 2 * n, 2)))
        right = build("r", list(range(1, 2 * n, 2)))  # disjoint stamps
        query = join_of(left, right)
        plan = Planner(left).plan(query)
        assert plan.execute() == []
        executor = NaiveExecutor()
        executor.run(query)
        assert plan.examined == 2 * n
        assert executor.examined >= n * n
