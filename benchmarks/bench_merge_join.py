"""E16 -- the merge-join payoff of ordering declarations (extension).

A valid-time equality join of two non-decreasing event relations runs
as one merge pass (O(n + m)) instead of the nested loop's O(n * m);
the examined-element ratio is the reproduced shape.
"""

import pytest

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.timestamp import Timestamp
from repro.query import CurrentState, NaiveExecutor, Planner, Scan, TemporalJoin
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation

SIZE = 600


def build(name):
    schema = TemporalSchema(
        name=name, time_varying=("k",), specializations=["globally non-decreasing"]
    )
    clock = SimulatedWallClock(start=0)
    relation = TemporalRelation(schema, clock=clock)
    for i in range(SIZE):
        clock.advance_to(Timestamp(10 * i))
        relation.insert("o", Timestamp(5 * i), {"k": i % 7})
    return relation


@pytest.fixture(scope="module")
def relations():
    return build("left_feed"), build("right_feed")


@pytest.fixture(scope="module")
def query(relations):
    left, right = relations
    return TemporalJoin(
        CurrentState(Scan(left)),
        CurrentState(Scan(right)),
        condition=lambda l, r: l.attributes["k"] == r.attributes["k"],
        label="k=k",
    )


def test_nested_loop_baseline(benchmark, query):
    results = benchmark(lambda: NaiveExecutor().run(query))
    assert results


def test_merge_join(benchmark, relations, query):
    left, _right = relations
    planner = Planner(left)
    plan = planner.plan(query)
    assert plan.strategy == "merge-join"
    results = benchmark(lambda: planner.plan(query).execute())
    assert results


def test_examined_ratio(relations, query):
    left, _right = relations
    plan = Planner(left).plan(query)
    fast = plan.execute()
    executor = NaiveExecutor()
    slow = executor.run(query)
    assert len(fast) == len(slow)
    assert plan.examined == 2 * SIZE
    assert executor.examined >= SIZE * SIZE
