"""The segmented store: sealing, zone maps, the current-state view --
and the differential property that none of it ever changes an answer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, Timestamp
from repro.query import NaiveExecutor, Rollback, Scan, ValidTimeslice
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.columnar import ScanSpec
from repro.storage.memory import MemoryEngine
from repro.storage.segments import DEFAULT_SEGMENT_SIZE, SegmentedStore
from tests.strategies import OBJECTS, SMALL_TICKS, insert_rows, json_safe_attributes, vacuum


def build_relation(segment_size=None, count=0):
    schema = TemporalSchema(name="r", time_varying=("reading",))
    clock = SimulatedWallClock(start=0)
    engine = MemoryEngine(segment_size=segment_size)
    relation = TemporalRelation(schema, clock=clock, engine=engine)
    for i in range(count):
        clock.advance_to(Timestamp(10 * i))
        relation.insert("o", Timestamp(10 * i), {"reading": i})
    return relation, clock


class TestSealing:
    def test_head_seals_at_segment_size(self):
        relation, _clock = build_relation(segment_size=8, count=20)
        store = relation.engine.store
        assert store.sealed_count == 2
        assert len(store) == 20  # two sealed segments of 8, a head of 4
        assert [store.zone_of(ordinal).tt_hi for ordinal in (0, 1)] == [
            Timestamp(70).microseconds,
            Timestamp(150).microseconds,
        ]

    def test_extend_seals_full_blocks(self):
        relation, _clock = build_relation(segment_size=8)
        relation.append_many(
            [("o", Timestamp(i), {"reading": i}) for i in range(17)]
        )
        store = relation.engine.store
        assert store.sealed_count == 2
        assert len(store) == 17

    def test_zone_map_covers_segment(self):
        relation, _clock = build_relation(segment_size=8, count=16)
        store = relation.engine.store
        zone = store.zone_of(0)
        assert zone.tt_lo == Timestamp(0).microseconds
        assert zone.tt_hi == Timestamp(70).microseconds
        assert zone.vt_lo == Timestamp(0).microseconds
        assert zone.vt_hi == Timestamp(70).microseconds
        assert zone.live == 8

    def test_ordering_violation_message_unchanged(self):
        store = SegmentedStore(segment_size=4)
        from repro.relation.element import Element

        first = Element(
            element_surrogate=1,
            object_surrogate="o",
            tt_start=Timestamp(10),
            vt=Timestamp(10),
        )
        stale = Element(
            element_surrogate=2,
            object_surrogate="o",
            tt_start=Timestamp(5),
            vt=Timestamp(5),
        )
        store.append(first)
        with pytest.raises(ValueError, match="strictly increasing"):
            store.append(stale)
        with pytest.raises(ValueError, match="strictly increasing"):
            store.extend([stale])

    def test_segment_size_below_two_is_rejected(self):
        # 0 used to fall through to the default instead of failing.
        for size in (0, 1):
            with pytest.raises(ValueError, match="segment size must be at least 2"):
                MemoryEngine(segment_size=size)
        assert SegmentedStore().segment_size == DEFAULT_SEGMENT_SIZE


class TestZoneMaintenance:
    def test_close_updates_sealed_zone(self):
        relation, clock = build_relation(segment_size=8, count=16)
        store = relation.engine.store
        victim = relation.all_elements()[3]
        clock.advance_to(Timestamp(1_000))
        relation.delete(victim.element_surrogate)
        zone = store.zone_of(0)
        assert zone.live == 7
        assert zone.max_closed_tt_stop > Timestamp(1_000).microseconds - 1
        assert store.live_count() == 15

    def test_alive_at_prunes_dead_segment(self):
        relation, clock = build_relation(segment_size=8, count=16)
        store = relation.engine.store
        clock.advance_to(Timestamp(1_000))
        for element in relation.all_elements()[:8]:
            relation.delete(element.element_surrogate)
        zone = store.zone_of(0)
        assert zone.live == 0
        probe = Timestamp(5_000).microseconds
        assert not zone.alive_at(probe)  # everything closed before probe
        assert zone.alive_at(Timestamp(500).microseconds)  # still open then


class TestCurrentStateView:
    def test_view_tracks_appends_and_closes(self):
        relation, clock = build_relation(segment_size=8, count=12)
        store = relation.engine.store
        victim = relation.all_elements()[0]
        clock.advance_to(Timestamp(900))
        relation.delete(victim.element_surrogate)
        expected = [e for e in relation.engine.scan() if e.is_current]
        assert list(store.iter_current()) == expected
        assert store.live_count() == len(expected)

    def test_invalidate_then_lazy_rebuild(self):
        relation, _clock = build_relation(segment_size=8, count=12)
        store = relation.engine.store
        expected = list(store.iter_current())
        store.invalidate_view()
        assert not store.view_valid
        assert list(store.iter_current()) == expected  # rebuilt on demand
        assert store.view_valid

    def test_vacuum_invalidates_then_answers_match(self):
        relation, clock = build_relation(segment_size=8, count=12)
        clock.advance_to(Timestamp(500))
        for element in relation.all_elements()[:4]:
            relation.delete(element.element_surrogate)
        before = [e.element_surrogate for e in relation.current()]
        clock.advance_to(Timestamp(2_000))
        vacuum(relation, Timestamp(1_000))
        store = relation.engine.store
        assert not store.view_valid  # vacuum dropped the view
        assert [e.element_surrogate for e in relation.current()] == before
        assert store.view_valid  # and reading it rebuilt it

    def test_current_is_o_live_not_o_history(self):
        relation, clock = build_relation(segment_size=8, count=40)
        clock.advance_to(Timestamp(10_000))
        survivors = relation.all_elements()[:4]
        for element in relation.all_elements()[4:]:
            relation.delete(element.element_surrogate)
        assert relation.live_count() == 4
        assert sorted(e.element_surrogate for e in relation.current()) == sorted(
            e.element_surrogate for e in survivors
        )


# -- the differential property -----------------------------------------------------


@st.composite
def segment_workloads(draw):
    """Randomized interleavings of appends, batches, closes, and vacuum."""
    ops = []
    for _ in range(draw(st.integers(min_value=2, max_value=7))):
        kind = draw(
            st.sampled_from(["insert", "batch", "batch", "delete", "vacuum"])
        )
        if kind == "insert":
            ops.append(
                (
                    "insert",
                    draw(OBJECTS),
                    draw(SMALL_TICKS),
                    draw(json_safe_attributes()),
                )
            )
        elif kind == "batch":
            ops.append(("batch", draw(insert_rows(min_size=1, max_size=20))))
        elif kind == "delete":
            ops.append(("delete", draw(st.integers(min_value=0, max_value=40))))
        else:
            ops.append(("vacuum", draw(st.integers(min_value=0, max_value=60))))
    probes = tuple(draw(SMALL_TICKS) for _ in range(3))
    return ops, probes


def replay(ops, segment_size, engine=None):
    schema = TemporalSchema(name="r", time_varying=("reading",))
    clock = SimulatedWallClock(start=0)
    if engine is None:
        engine = MemoryEngine(segment_size=segment_size)
    relation = TemporalRelation(schema, clock=clock, engine=engine)
    tick = 0
    for op in ops:
        tick += 100
        clock.advance_to(Timestamp(tick))
        if op[0] == "insert":
            _kind, obj, vt, attributes = op
            relation.insert(obj, Timestamp(vt), attributes)
        elif op[0] == "batch":
            relation.append_many(op[1])
        elif op[0] == "delete":
            stored = relation.current()
            if stored:
                relation.delete(stored[op[1] % len(stored)].element_surrogate)
        else:  # vacuum at a horizon inside the history so far
            vacuum(relation, Timestamp(op[1] % (tick + 1)))
    return relation


def signature(elements):
    return [
        (e.element_surrogate, e.tt_start.microseconds, repr(e.tt_stop), repr(e.vt))
        for e in elements
    ]


def all_answers(relation, probes):
    """Every engine read path -- each branch of ``engine.select`` and the
    store's kernel directly -- in engine-reported order."""
    a, b, c = (Timestamp(p) for p in probes)
    lo, hi = sorted((probes[0], probes[1] + 1))
    if lo == hi:  # probes can collide; Interval requires start < end
        hi += 1
    select, kernel = relation.engine.select, relation.engine.store.select
    return {
        "scan": signature(relation.engine.scan()),
        "current": signature(select(ScanSpec.of())[0]),
        "as_of": signature(select(ScanSpec.of(as_of=a))[0]),
        "as_of_forever": signature(select(ScanSpec.of(as_of=FOREVER))[0]),
        "valid_at": signature(select(ScanSpec.of(b))[0]),
        "overlap": signature(select(ScanSpec.of(Interval(Timestamp(lo), Timestamp(hi))))[0]),
        "rollback_op": signature(kernel(ScanSpec.of(as_of=c))[0]),
        "bitemporal_op": signature(kernel(ScanSpec.of(b, c))[0]),
        "timeslice_op": signature(kernel(ScanSpec.of(b))[0]),
    }


@settings(deadline=None)
@given(segment_workloads())
def test_segmented_engines_match_flat_scan(workload):
    """Byte-identical answers across segment sizes.

    The reference is a store whose segment size exceeds any workload
    (never seals -- the seed's flat scan); tiny segment sizes force many
    sealed segments so zone-map pruning genuinely engages.
    """
    ops, probes = workload
    flat = replay(ops, 100_000)
    reference = all_answers(flat, probes)
    # The planner's naive executor agrees on the shared shapes.
    naive = NaiveExecutor()
    assert sorted(signature(naive.run(Rollback(Scan(flat), Timestamp(probes[2]))))) == sorted(
        reference["rollback_op"]
    )
    assert sorted(
        signature(naive.run(ValidTimeslice(Scan(flat), Timestamp(probes[1]))))
    ) == sorted(reference["timeslice_op"])
    for segment_size in (2, 5):
        assert all_answers(replay(ops, segment_size), probes) == reference, (
            f"divergence at segment_size={segment_size}"
        )
