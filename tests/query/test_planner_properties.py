"""Differential properties: every planner strategy equals the naive executor.

For each access path the planner can choose (degenerate rollback,
monotone binary search, sequential interval search, bounded tt-window,
engine index, rollback prefix, bitemporal prefix, current state), a
random *compliant* workload is generated -- built with ``append_many``
batches and single inserts mixed, plus deletions -- and random
timeslice / rollback / overlap / bitemporal queries are answered both
by the planned operator and by :class:`NaiveExecutor`.  The answers
must be identical element sets, and the planner must actually have
chosen the strategy the declaration licenses.  Every example draws its
storage topology (:func:`tests.strategies.topologies`).
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager

import pytest
from hypothesis import given, strategies as st

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
    TemporalJoin,
    ValidOverlap,
    ValidTimeslice,
)
from repro.core.constraints import EnforcementMode
from repro.core.taxonomy import IntervalGloballySequential
from repro.core.taxonomy.regions import enumerate_regions
from repro.relation.schema import TemporalSchema, ValidTimeKind
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.memory import MemoryEngine
from tests.strategies import (
    EVENT_DECLARATIONS,
    compliant_vt_ticks,
    region_declarations,
    topologies,
)

pytestmark = pytest.mark.slow

#: Which timeslice strategy each declaration must produce (memory engine).
EXPECTED_TIMESLICE_STRATEGY = {
    (): "engine-index",
    ("degenerate",): "degenerate-rollback",
    ("retroactive",): "bounded-tt-window",
    ("predictive",): "bounded-tt-window",
    ("globally non-decreasing",): "monotone-binary-search",
    ("globally non-increasing",): "monotone-binary-search-descending",
    ("globally sequential",): "monotone-binary-search",
    ("strongly bounded(5s, 5s)",): "bounded-tt-window",
    ("retroactively bounded(30s)",): "bounded-tt-window",
}


def surrogates(elements) -> list:
    return sorted(e.element_surrogate for e in elements)


@contextmanager
def scan_calls():
    """Every ``MemoryEngine.select`` made inside the block, as ``(spec,
    examined)`` -- how much a relation read method looked at."""
    calls = []
    real = MemoryEngine.select

    def recording(engine, spec, stats=None):
        results, examined = real(engine, spec, stats)
        calls.append((spec, examined))
        return results, examined

    MemoryEngine.select = recording
    try:
        yield calls
    finally:
        MemoryEngine.select = real


def count_in_window(relation, tt_lo, tt_hi) -> int:
    return sum(
        1
        for element in relation.all_elements()
        if (tt_lo is None or tt_lo <= element.tt_start.microseconds)
        and (tt_hi is None or element.tt_start.microseconds <= tt_hi)
    )


def assert_plan_agrees(relation, query, expect_strategy=None) -> None:
    plan = Planner(relation).plan(query)
    if expect_strategy is not None:
        assert plan.strategy == expect_strategy, plan.explanation
    assert surrogates(plan.execute()) == surrogates(NaiveExecutor().run(query))


@st.composite
def event_workloads(draw):
    """A compliant event relation plus interesting probe coordinates.

    Element i is stored at ``tt = i`` exactly -- the dense stamp
    sequence both unit-spaced single inserts and ``append_many``
    batches produce -- with valid times built compliant to the drawn
    declaration by :func:`tests.strategies.compliant_vt_ticks`.  The
    arrival sequence is split into a random mix of single inserts and
    batches; a random subset of elements is then deleted.
    """
    topology = draw(topologies())
    names = draw(st.sampled_from(EVENT_DECLARATIONS))
    count = draw(st.integers(min_value=1, max_value=24))
    vts = draw(compliant_vt_ticks(names, count))

    schema = TemporalSchema(name="r", time_varying=("v",), specializations=list(names))
    clock = SimulatedWallClock(start=0)
    relation = topology.relation(schema, clock=clock)
    rows = [("obj", Timestamp(vt), {"v": i}) for i, vt in enumerate(vts)]

    position = 0
    while position < count:
        size = draw(st.integers(min_value=1, max_value=count - position))
        clock.advance_to(Timestamp(position))
        chunk = rows[position : position + size]
        if size == 1 and draw(st.booleans()):
            relation.insert(*chunk[0])
        else:
            relation.append_many(chunk)
        position += size

    stored = relation.current()
    to_delete = draw(
        st.lists(
            st.sampled_from([e.element_surrogate for e in stored]),
            max_size=min(4, len(stored)),
            unique=True,
        )
    )
    clock.advance_to(Timestamp(count + 100))
    for surrogate in to_delete:
        relation.delete(surrogate)

    lo, hi = min(vts), max(vts)
    probe_vt = draw(st.integers(min_value=lo - 10, max_value=hi + 10))
    probe_tt = draw(st.integers(min_value=-5, max_value=count + 200))
    width = draw(st.integers(min_value=1, max_value=40))
    return topology, names, relation, Timestamp(probe_vt), Timestamp(probe_tt), width


@given(event_workloads())
def test_timeslice_matches_naive_and_uses_declared_path(workload):
    topology, names, relation, vt, _tt, _width = workload
    expected = EXPECTED_TIMESLICE_STRATEGY[names]
    query = ValidTimeslice(Scan(relation), vt)
    assert_plan_agrees(relation, query, expected)
    # Probe an exactly-stored valid time too, not just a random one.
    elements = relation.all_elements()
    assert_plan_agrees(
        relation,
        ValidTimeslice(Scan(relation), elements[len(elements) // 2].vt),
        expected,
    )
    topology.close(relation)


@given(event_workloads())
def test_rollback_and_bitemporal_match_naive(workload):
    topology, _names, relation, vt, tt, _width = workload
    assert_plan_agrees(relation, Rollback(Scan(relation), tt), "rollback-prefix")
    assert_plan_agrees(
        relation, BitemporalSlice(Scan(relation), vt, tt), "bitemporal-prefix"
    )
    topology.close(relation)


@given(event_workloads())
def test_overlap_and_current_match_naive(workload):
    topology, _names, relation, vt, _tt, width = workload
    window = Interval(vt, Timestamp(vt.ticks + width))
    assert_plan_agrees(relation, ValidOverlap(Scan(relation), window))
    assert_plan_agrees(relation, CurrentState(Scan(relation)), "current")
    topology.close(relation)


@pytest.mark.parametrize("name", sorted(enumerate_regions()))
@given(data=st.data())
def test_every_figure1_region_narrows_the_scan(name, data):
    """The window is derived, not hand-written per strategy: for every
    Section 3.1 region -- including the ones no operator was ever
    written for -- with drawn bounds and a compliant workload, the
    planned timeslice and overlap equal ``NaiveExecutor``, and the plan
    never examines more elements than the derived transaction-time
    window ``[vt - upper, vt - lower]`` holds."""
    specialization, (low, high) = data.draw(region_declarations(name))
    count = data.draw(st.integers(min_value=1, max_value=30))
    schema = TemporalSchema(name="r", time_varying=("v",), specializations=[specialization])
    topology = data.draw(topologies())
    relation = topology.relation(schema, clock=SimulatedWallClock(start=0))
    relation.append_many(
        [
            ("obj", Timestamp(i + data.draw(st.integers(min_value=low, max_value=high))), {"v": i})
            for i in range(count)
        ]
    )
    region = specialization.region()
    probe = data.draw(st.integers(min_value=low - 5, max_value=count + high + 5))
    width = data.draw(st.integers(min_value=1, max_value=40))
    second = Timestamp(1).microseconds
    window = Interval(Timestamp(probe), Timestamp(probe + width))
    queries = [
        (ValidTimeslice(Scan(relation), Timestamp(probe)), probe * second, probe * second),
        (ValidOverlap(Scan(relation), window), probe * second, (probe + width) * second - 1),
    ]
    stored = relation.all_elements()
    pins = [relation.pin_epoch().as_of, stored[count // 2].tt_start]
    for query, vt_first, vt_last in queries:
        plan = Planner(relation).plan(query)
        assert surrogates(plan.execute()) == surrogates(NaiveExecutor().run(query))
        in_window = count_in_window(relation, *region.tt_window(vt_first, vt_last))
        assert plan.examined <= in_window, (plan.strategy, plan.examined, in_window)
        if region.line_count:
            assert plan.strategy.startswith("bounded-tt-window"), plan.strategy
        # The relation's own pinned read derives the same window.
        for as_of in pins:
            at_tt = [element for element in stored if element.stored_during(as_of)]
            with scan_calls() as calls:
                if isinstance(query, ValidTimeslice):
                    pinned = relation.valid_at(query.vt, as_of)
                    listed = [element for element in at_tt if element.valid_at(query.vt)]
                else:
                    pinned = relation.valid_overlapping(query.window, as_of)
                    listed = [e for e in at_tt if query.window.contains_point(e.vt)]
            assert [e.element_surrogate for e in pinned] == [e.element_surrogate for e in listed]
            assert sum(examined for _spec, examined in calls) <= in_window
    topology.close(relation)


def test_pinned_timeslice_examines_the_declared_window_not_the_prefix():
    """The served shape (``GET .../timeslice`` always passes the pin): on
    the paper's monitoring relation, delayed 30 s and bounded 55 s, a
    reading valid at ``v`` was stored in ``[v + 30 s, v + 55 s]`` -- the
    pinned read looks at the rows stamped inside those 25 s and nothing
    else, however long the prefix under the pin is."""
    from repro.workloads.monitoring import generate_monitoring

    relation = generate_monitoring(sensors=4, samples_per_sensor=500).relation
    stored = relation.all_elements()
    assert len(stored) == 2000
    second = Timestamp(1).microseconds
    pin = relation.pin_epoch().as_of
    for target in (stored[3], stored[1000], stored[-1]):
        vt = target.vt.microseconds
        with scan_calls() as calls:
            answer = relation.valid_at(target.vt, as_of_tt=pin)
        assert target in answer
        assert answer == [e for e in stored if e.is_current and e.vt == target.vt]
        [(spec, examined)] = calls
        # (the newest reading's window is also cut at the pin itself)
        assert spec.tt_lo == vt + 30 * second
        assert spec.tt_hi == min(vt + 55 * second, pin.microseconds)
        assert examined == count_in_window(relation, spec.tt_lo, spec.tt_hi)
        assert 1 <= examined <= 4  # one reading per sensor per minute, not 2000


def test_calendric_declarations_narrow_like_any_other():
    """Calendric bounds join the one window derivation (widened as
    ``tests/core/test_regions.py`` checks).  A fact stored on 1 March and
    valid from 1 February is exactly one month back -- 28 days, the
    edge of both declarations -- and must sit inside the scanned window."""
    from repro.chronos.duration import CalendricDuration
    from repro.core.taxonomy import DelayedRetroactive, StronglyRetroactivelyBounded

    month = CalendricDuration(months=1)
    schema = TemporalSchema(
        name="r",
        time_varying=("v",),
        specializations=[StronglyRetroactivelyBounded(month), DelayedRetroactive(month)],
    )
    clock = SimulatedWallClock(start=Timestamp.from_date(2026, 1, 1).microseconds // 10**6)
    relation = TemporalRelation(schema, clock=clock)
    for month_number in range(2, 12):
        clock.advance_to(Timestamp.from_date(2026, month_number, 1))
        relation.insert("o", Timestamp.from_date(2026, month_number - 1, 1), {"v": month_number})
    probe = Timestamp.from_date(2026, 2, 1)
    query = ValidTimeslice(Scan(relation), probe)
    plan = Planner(relation).plan(query)
    assert plan.strategy == "bounded-tt-window"
    assert surrogates(plan.execute()) == surrogates(NaiveExecutor().run(query))
    assert plan.examined == 1 < len(relation)
    assert len(relation.valid_at(probe, as_of_tt=relation.pin_epoch().as_of)) == 1


def _event_relation(name, declared, mode, valid_times):
    """*valid_times* stored at tt 10, 20, ...; *mode* keeps the violators."""
    schema = TemporalSchema(
        name=name, time_varying=("v",), specializations=[declared], enforcement=mode
    )
    clock = SimulatedWallClock(start=0)
    relation = TemporalRelation(schema, clock=clock)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # WARN mode warns once per violation
        for i, vt in enumerate(valid_times):
            clock.advance_to(Timestamp(10 * (i + 1)))
            relation.insert("o", Timestamp(vt), {"v": i})
    return relation


def _degenerate(mode):
    # Stored at 130 with vt 137: not degenerate, stored anyway.
    stamps = [10 * (i + 1) + (7 if i == 12 else 0) for i in range(20)]
    relation = _event_relation("r", "degenerate", mode, stamps)
    return relation, ValidTimeslice(Scan(relation), Timestamp(137))


def _ordered_events(declared, valid_times, probe):
    def build(mode):
        relation = _event_relation("r", declared, mode, valid_times)
        return relation, ValidTimeslice(Scan(relation), Timestamp(probe))

    return build


def _sequential_intervals(mode):
    schema = TemporalSchema(
        name="weeks",
        valid_time_kind=ValidTimeKind.INTERVAL,
        time_varying=("v",),
        specializations=[IntervalGloballySequential()],
        enforcement=mode,
    )
    clock = SimulatedWallClock(start=0)
    relation = TemporalRelation(schema, clock=clock)
    spans = [(100 * i, 100 * i + 50) for i in range(10)] + [(110, 400)]  # overlaps
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, (start, end) in enumerate(spans):
            clock.advance_to(Timestamp(100 * i + 60))
            relation.insert("o", Interval(Timestamp(start), Timestamp(end)), {"v": i})
    return relation, ValidTimeslice(Scan(relation), Timestamp(120))


def _merge_join(mode):
    left = _event_relation("l", "globally non-decreasing", mode, [*range(10, 100, 10), 15])
    right = _event_relation(
        "r", "globally non-decreasing", EnforcementMode.REJECT, [10, *range(15, 100, 5)]
    )
    return left, TemporalJoin(CurrentState(Scan(left)), CurrentState(Scan(right)))


_UNGUARANTEED_CASES = {
    "degenerate": _degenerate,
    "non-decreasing": _ordered_events("globally non-decreasing", [*range(10, 110, 10), 15], 15),
    "sequential": _ordered_events("globally sequential", [*range(10, 110, 10), 15], 15),
    "non-increasing": _ordered_events("globally non-increasing", [*range(100, 0, -10), 95], 95),
    "sequential-intervals": _sequential_intervals,
    "merge-join": _merge_join,
}


def _answer(rows) -> list:
    return sorted(
        tuple(e.element_surrogate for e in row) if isinstance(row, tuple)
        else row.element_surrogate
        for row in rows
    )


def _assert_planned_equals_reference(case, mode):
    relation, query = _UNGUARANTEED_CASES[case](mode)
    assert len(relation.constraints.recorded) == 1  # the one stored violator
    expected = _answer(NaiveExecutor().run(query))
    assert _answer(Planner(relation).plan(query).execute()) == expected
    if isinstance(query, ValidTimeslice):  # the relation's own (pinned) read
        pin = relation.pin_epoch().as_of
        assert _answer(relation.valid_at(query.vt, as_of_tt=pin)) == expected


def test_recorded_declarations_license_no_narrowing():
    """RECORD mode stores violating elements, so the declared region says
    nothing about where a match may lie."""
    _assert_planned_equals_reference("degenerate", EnforcementMode.RECORD)


@pytest.mark.parametrize(
    "case, mode",
    [
        pytest.param(case, mode, id=f"{case}-{mode.value}")
        for case in sorted(_UNGUARANTEED_CASES)
        for mode in (EnforcementMode.RECORD, EnforcementMode.WARN)
        if (case, mode) != ("degenerate", EnforcementMode.RECORD)  # the test above
    ],
)
def test_unguaranteed_declarations_license_nothing(case, mode):
    """RECORD and WARN store violating elements, so a declaration says
    nothing about where a match may lie: no binary search, sequential
    search, merge join or narrowed window may answer for it."""
    _assert_planned_equals_reference(case, mode)


@st.composite
def sequential_interval_workloads(draw):
    """Disjoint, ordered intervals stored in order (interval sequential)."""
    from repro.core.taxonomy import IntervalGloballySequential

    count = draw(st.integers(min_value=1, max_value=15))
    schema = TemporalSchema(
        name="weeks",
        valid_time_kind=ValidTimeKind.INTERVAL,
        time_varying=("v",),
        specializations=[IntervalGloballySequential()],
    )
    clock = SimulatedWallClock(start=0)
    relation = TemporalRelation(schema, clock=clock)
    if draw(st.booleans()):
        # Spaced intervals, stored one at a time with the clock advanced
        # past each interval's end (the classic payroll-weeks shape).
        for i in range(count):
            length = draw(st.integers(min_value=1, max_value=8))
            clock.advance_to(Timestamp(10 * i + 9))
            relation.insert(
                "emp", Interval(Timestamp(10 * i), Timestamp(10 * i + length)), {"v": i}
            )
    else:
        # One batch of consecutive transaction stamps is only sequential
        # for densely packed unit intervals: stamp i and interval
        # [i, i+1) keep min(tt, vt_start) = max(tt', vt_end') exactly.
        relation.append_many(
            [
                ("emp", Interval(Timestamp(i), Timestamp(i + 1)), {"v": i})
                for i in range(count)
            ]
        )
    probe = draw(st.integers(min_value=-5, max_value=10 * count + 5))
    return relation, Timestamp(probe)


@given(sequential_interval_workloads())
def test_sequential_interval_timeslice_matches_naive(workload):
    relation, vt = workload
    assert_plan_agrees(
        relation, ValidTimeslice(Scan(relation), vt), "sequential-interval-search"
    )
