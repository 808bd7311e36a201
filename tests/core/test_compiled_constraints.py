"""The compiled constraint check (Section 3.1 regions as one integer test).

Every isolated event declaration with a fixed bound relative to
insertion time is its Figure 1 region; a :class:`ConstraintSet` checks
their intersection as ``low <= vt - tt <= high`` and runs monitors only
for the other declarations, or for every declaration when a row leaves
the region.  The oracles: each class's region agrees with its stamp
predicate at and around every bound, and ``observe`` /
``observe_batch`` report exactly the per-declaration
``Specialization.violations`` under every enforcement mode.
"""

from __future__ import annotations

import pickle
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chronos.clock import LogicalClock
from repro.chronos.duration import CalendricDuration, Duration
from repro.chronos.granularity import Granularity
from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.core.constraints import (
    ConstraintSet,
    ConstraintViolation,
    EnforcementMode,
    compiled_region,
)
from repro.core.taxonomy.base import Stamped, TimeReference, time_reference_of
from repro.core.taxonomy.event_isolated import (
    EVENT_ISOLATED_CLASSES,
    Degenerate,
    DelayedRetroactive,
    DelayedStronglyRetroactivelyBounded,
    EarlyPredictive,
    EarlyStronglyPredictivelyBounded,
    General,
    Predictive,
    PredictivelyBounded,
    Retroactive,
    RetroactivelyBounded,
    StronglyBounded,
    StronglyPredictivelyBounded,
    StronglyRetroactivelyBounded,
)
from repro.core.taxonomy.interval_isolated import Endpoint, OnBothEndpoints, OnEndpoint
from repro.core.taxonomy.registry import parse
from repro.observability import metrics
from repro.relation.schema import TemporalSchema, ValidTimeKind
from repro.relation.temporal_relation import TemporalRelation
from tests.strategies import event_extensions

GRANULARITIES = [
    Granularity.MICROSECOND,
    Granularity.MILLISECOND,
    Granularity.SECOND,
    Granularity.MINUTE,
]


@st.composite
def durations(draw, positive):
    return Duration(draw(st.integers(1 if positive else 0, 40)), draw(st.sampled_from(GRANULARITIES)))


@st.composite
def event_specializations(draw):
    """One of the 13 classes, strict or not, with drawn fixed bounds."""
    cls = draw(st.sampled_from(EVENT_ISOLATED_CLASSES))
    strict = draw(st.booleans())
    if cls in (General, Degenerate):
        return cls()
    if cls in (Retroactive, Predictive):
        return cls(strict=strict)
    if cls in (DelayedRetroactive, EarlyPredictive, StronglyPredictivelyBounded):
        return cls(draw(durations(True)), strict=strict)
    if cls in (RetroactivelyBounded, StronglyRetroactivelyBounded, PredictivelyBounded):
        return cls(draw(durations(False)), strict=strict)
    if cls is StronglyBounded:
        return cls(draw(durations(False)), draw(durations(True)), strict=strict)
    first_positive = cls is EarlyStronglyPredictivelyBounded
    low, high = sorted(
        [draw(durations(first_positive)), draw(durations(True))], key=lambda d: d.microseconds
    )
    return cls(low, high, strict=strict)


def test_the_strategy_covers_all_thirteen_classes():
    assert len(EVENT_ISOLATED_CLASSES) == 13


def _region(spec):
    try:
        return spec.region()
    except ValueError:  # strict equal bounds: the declaration admits nothing
        return None


@settings(deadline=None, max_examples=400)
@given(st.data())
def test_region_membership_is_the_stamp_predicate_at_every_bound(data):
    spec, other = data.draw(event_specializations()), data.draw(event_specializations())
    region = _region(spec)
    # Two declarations compile into one intersected check.
    constraints = ConstraintSet([spec, other], mode=EnforcementMode.RECORD)
    probes = {0, 1, -1, 10**12, -(10**12)}
    for declared in (region, _region(other)):
        for bound in (declared.lower, declared.upper) if declared is not None else ():
            if bound is not None:
                probes.update({bound.offset - 1, bound.offset, bound.offset + 1})
    tt_gran = data.draw(st.sampled_from(GRANULARITIES))
    tt = Timestamp(data.draw(st.integers(-(10**6), 10**6)), tt_gran)
    for offset in sorted(probes):
        micro = tt.microseconds + offset
        vt_gran = data.draw(
            st.sampled_from([g for g in GRANULARITIES if micro % g.value == 0])
        )
        vt = Timestamp(micro // vt_gran.value, vt_gran)
        element = Stamped(tt_start=tt, vt=vt)
        admitted = spec.check_stamps(vt, tt)
        assert spec.check_element(element) == admitted
        if region is None:
            assert not admitted
        else:
            assert region.contains(vt.microseconds - tt.microseconds) == admitted, offset
        expected = spec.violations([element]) + other.violations([element])
        assert constraints.observe(element) == expected, offset
    assert compiled_region(spec) == region


# -- observe / observe_batch against the per-declaration oracle ------------------

POOL = [
    Retroactive(),
    Retroactive(strict=True),
    DelayedRetroactive(Duration(3, "second")),
    StronglyBounded(Duration(5, "second"), Duration(5, "second")),
    PredictivelyBounded(Duration(2, "second"), strict=True),
    RetroactivelyBounded(CalendricDuration(months=1)),  # calendric: a monitor
    Degenerate(granularity="minute"),  # granularity-relative: a monitor
    Retroactive(time_reference=TimeReference.DELETION),  # deletion-relative: a monitor
    parse("globally non-decreasing"),
    parse("globally sequential"),
]

MODES = list(EnforcementMode)


def expected(specs, accepted, batch):
    """Per-declaration violations the batch introduces after *accepted*,
    declaration by declaration, each in transaction-time order."""
    return [v for spec in specs for v in spec.violations(accepted + batch) if v.element in batch]


def monitor_state(constraints):
    return pickle.dumps([monitor for _spec, monitor in constraints._monitors])


@settings(deadline=None, max_examples=250)
@given(
    st.lists(st.sampled_from(POOL), min_size=1, max_size=4, unique_by=id),
    event_extensions(min_size=1, max_size=14, max_offset=8),
    st.sampled_from(MODES),
    st.lists(st.integers(1, 5), min_size=1, max_size=14),
    st.booleans(),
)
def test_observe_and_observe_batch_report_the_per_declaration_violations(
    specs, extension, mode, sizes, batched
):
    constraints = ConstraintSet(specs, mode=mode)
    accepted = []
    reported = []
    batches, position = [], 0
    for size in sizes:
        if position < len(extension):
            batches.append(extension[position : position + (size if batched else 1)])
            position += len(batches[-1])
    for batch in batches:
        wanted = expected(specs, accepted, batch)
        before = monitor_state(constraints)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if mode is EnforcementMode.REJECT and wanted:
                with pytest.raises(ConstraintViolation) as excinfo:
                    _feed(constraints, batch, batched)
                assert excinfo.value.violations == wanted
                assert monitor_state(constraints) == before  # a rejection leaves no trace
                continue
            assert _feed(constraints, batch, batched) == wanted
        accepted.extend(batch)
        reported.extend(wanted)
    assert constraints.recorded == reported


def _feed(constraints, batch, batched):
    if batched:
        return constraints.observe_batch(batch)
    (element,) = batch
    return constraints.observe(element)


def test_a_row_outside_the_region_runs_every_monitor_in_declaration_order():
    specs = [parse("globally non-decreasing"), Retroactive(), DelayedRetroactive(Duration(3, "second"))]
    constraints = ConstraintSet(specs, mode=EnforcementMode.RECORD)
    rows = [Stamped(tt_start=Timestamp(10), vt=Timestamp(9)), Stamped(tt_start=Timestamp(11), vt=Timestamp(5))]
    found = constraints.observe_batch(rows)
    # Row 0 is retroactive but not 3 s delayed; row 1 decreases the valid time.
    assert [(v.specialization, v.element) for v in found] == [
        (specs[0], rows[1]),
        (specs[2], rows[0]),
    ]


# -- which declarations compile --------------------------------------------------


class _Overridden(Retroactive):
    def check_element(self, element):
        return True


@pytest.mark.parametrize(
    "spec",
    [
        RetroactivelyBounded(CalendricDuration(months=1)),
        Degenerate(granularity="second"),
        Retroactive(time_reference=TimeReference.DELETION),
        OnEndpoint(Retroactive(), Endpoint.START),
        DelayedStronglyRetroactivelyBounded(Duration(2), Duration(2), strict=True),
        _Overridden(),
        parse("globally sequential"),
    ],
    ids=["calendric", "floored", "deletion", "endpoint", "empty", "override", "ordering"],
)
def test_only_fixed_insertion_relative_event_regions_compile(spec):
    assert compiled_region(spec) is None


def test_an_empty_intersection_sends_every_row_to_the_monitors():
    constraints = ConstraintSet([Retroactive(), EarlyPredictive(Duration(1))], mode=EnforcementMode.RECORD)
    row = Stamped(tt_start=Timestamp(10), vt=Timestamp(10))
    assert [v.specialization.name for v in constraints.observe(row)] == ["early predictive"]


def test_checks_count_declarations_times_rows_and_swaps_accepted_batches():
    specs = [Retroactive(), parse("globally non-decreasing"), DelayedRetroactive(Duration(1))]
    with metrics.enabled_scope(fresh=True) as registry:
        constraints = ConstraintSet(specs)
        constraints.observe_batch([Stamped(tt_start=Timestamp(10 + i), vt=Timestamp(i)) for i in range(4)])
        with pytest.raises(ConstraintViolation):
            constraints.observe_batch([Stamped(tt_start=Timestamp(20), vt=Timestamp(30))])
        counters = registry.snapshot()["counters"]
    assert counters["constraints.checks"] == 3 * 4 + 3 * 1
    assert counters["constraints.shadow_swaps"] == 1


# -- the endpoint reference ------------------------------------------------------


def test_an_endpoint_declaration_takes_its_base_declarations_reference():
    deletion = Retroactive(time_reference=TimeReference.DELETION)
    wrapped = [OnEndpoint(deletion, Endpoint.END), OnBothEndpoints(deletion)]
    assert [time_reference_of(spec) for spec in wrapped] == [TimeReference.DELETION] * 2
    schema = TemporalSchema(
        name="stints",
        valid_time_kind=ValidTimeKind.INTERVAL,
        specializations=wrapped + [OnEndpoint(Retroactive(), Endpoint.START)],
    )
    assert [spec.name for spec in schema.guaranteed_specializations] == ["vt-start retroactive"]


def test_a_deletion_relative_endpoint_declaration_is_checked_at_deletion():
    # "vt-end retroactive relative to deletion": a fact may only be
    # deleted once its valid-time interval has ended.
    schema = TemporalSchema(
        name="stints",
        valid_time_kind=ValidTimeKind.INTERVAL,
        specializations=[OnEndpoint(Retroactive(time_reference=TimeReference.DELETION), Endpoint.END)],
    )
    relation = TemporalRelation(schema, clock=LogicalClock(start=1_000))
    open_stint = relation.insert("o", Interval(Timestamp(0), Timestamp(10**6)))
    closed_stint = relation.insert("p", Interval(Timestamp(0), Timestamp(500)))
    relation.delete(closed_stint.element_surrogate)
    with pytest.raises(ConstraintViolation):
        relation.delete(open_stint.element_surrogate)
    assert relation.engine.get(open_stint.element_surrogate).is_current


def test_a_microsecond_stamp_keeps_one_int():
    ticks = 10**15 + 7
    stamp = Timestamp(ticks, Granularity.MICROSECOND)
    assert stamp.microseconds is ticks
    (first,) = Timestamp.sequence(ticks, 1, Granularity.MICROSECOND)
    assert first.microseconds is first.ticks
    assert Timestamp(ticks, Granularity.MILLISECOND).microseconds == ticks * 1000
