"""E7 -- the sequential payoff (Section 3.2).

"In globally sequential relations ... valid time can be approximated
with transaction time, yielding an append-only relation that can
support historical (as well as transaction time) queries."  The
declaration makes the valid-time event index a plain append, so a
historical (valid-time) query on a sequential event relation is one
bisect of it (the ``monotone-binary-search`` label); we compare against
the reference full scan and measure the sequential-interval variant
(one stab of the interval tree) too.
"""

import pytest

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.timestamp import Timestamp
from repro.core.taxonomy.interval_inter import IntervalGloballySequential
from repro.query import NaiveExecutor, Planner, Scan, ValidTimeslice
from repro.relation.schema import TemporalSchema, ValidTimeKind
from repro.relation.temporal_relation import TemporalRelation

SIZE = 20_000


@pytest.fixture(scope="module")
def sequential_events():
    schema = TemporalSchema(name="paced", specializations=["globally sequential"])
    clock = SimulatedWallClock(start=0)
    relation = TemporalRelation(schema, clock=clock)
    for i in range(SIZE):
        clock.advance_to(Timestamp(10 * i))
        relation.insert("obj", Timestamp(10 * i - 4), {})
    return relation


@pytest.fixture(scope="module")
def sequential_intervals(assignments_workload):
    return assignments_workload.relation


def test_naive_event_timeslice(benchmark, sequential_events):
    probe = Timestamp(10 * (SIZE // 2) - 4)
    query = ValidTimeslice(Scan(sequential_events), probe)
    results = benchmark(lambda: NaiveExecutor().run(query))
    assert len(results) == 1


def test_planner_event_timeslice(benchmark, sequential_events):
    probe = Timestamp(10 * (SIZE // 2) - 4)
    query = ValidTimeslice(Scan(sequential_events), probe)
    planner = Planner(sequential_events)
    results = benchmark(lambda: planner.plan(query).execute())
    assert len(results) == 1
    assert planner.plan(query).strategy == "monotone-binary-search"


def test_planner_interval_timeslice(benchmark, sequential_intervals):
    elements = sequential_intervals.all_elements()
    midpoint = elements[len(elements) // 2].vt.start
    # Declare global sequentiality (the workload is per-surrogate
    # sequential AND globally non-decreasing; build a per-object view).
    badge = elements[0].object_surrogate
    schema = TemporalSchema(
        name="one_employee",
        valid_time_kind=ValidTimeKind.INTERVAL,
        specializations=[IntervalGloballySequential()],
    )
    clock = SimulatedWallClock(start=0)
    single = TemporalRelation(schema, clock=clock)
    for element in elements:
        if element.object_surrogate == badge:
            clock.advance_to(element.tt_start)
            single.insert(badge, element.vt, {})
    query = ValidTimeslice(Scan(single), midpoint)
    planner = Planner(single)
    plan = planner.plan(query)
    assert plan.strategy == "sequential-interval-search"
    results = benchmark(lambda: planner.plan(query).execute())
    assert len(results) <= 1


def test_event_examined_ratio(sequential_events):
    probe = Timestamp(10 * (SIZE // 2) - 4)
    query = ValidTimeslice(Scan(sequential_events), probe)
    executor = NaiveExecutor()
    executor.run(query)
    plan = Planner(sequential_events).plan(query)
    plan.execute()
    assert executor.examined == SIZE
    assert plan.examined <= 2 * SIZE.bit_length()
