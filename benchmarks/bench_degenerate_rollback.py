"""E6 -- the degenerate payoff (Section 3.1).

"At the implementation level, a degenerate temporal relation can be
advantageously treated as a rollback relation due to the fact that
relations are append-only and elements are entered in time-stamp
order."  We measure a valid timeslice three ways on a degenerate
relation: reference full scan, the engine's valid-time index, and the
planner's degenerate-rollback strategy (tt-index point lookup).
"""

import pytest

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.timestamp import Timestamp
from repro.query import NaiveExecutor, Planner, Scan, ValidTimeslice
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation

SIZE = 20_000


@pytest.fixture(scope="module")
def degenerate_relation():
    schema = TemporalSchema(name="sensor_feed", specializations=["degenerate"])
    clock = SimulatedWallClock(start=0)
    relation = TemporalRelation(schema, clock=clock)
    for i in range(SIZE):
        clock.advance_to(Timestamp(5 * i))
        relation.insert("feed", Timestamp(5 * i), {})
    return relation


@pytest.fixture(scope="module")
def probe(degenerate_relation):
    return Timestamp(5 * (SIZE // 2))


def test_naive_full_scan(benchmark, degenerate_relation, probe):
    query = ValidTimeslice(Scan(degenerate_relation), probe)

    def run():
        return NaiveExecutor().run(query)

    results = benchmark(run)
    assert len(results) == 1


def test_planner_degenerate_rollback(benchmark, degenerate_relation, probe):
    query = ValidTimeslice(Scan(degenerate_relation), probe)
    planner = Planner(degenerate_relation)

    def run():
        return planner.plan(query).execute()

    results = benchmark(run)
    assert len(results) == 1


def test_examined_ratio(degenerate_relation, probe):
    """The reproduced 'shape': O(n) naive work vs O(1) with the declaration."""
    query = ValidTimeslice(Scan(degenerate_relation), probe)
    executor = NaiveExecutor()
    executor.run(query)
    plan = Planner(degenerate_relation).plan(query)
    plan.execute()
    assert plan.strategy == "degenerate-rollback"
    assert executor.examined == SIZE
    assert plan.examined <= 2
