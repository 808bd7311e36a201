"""Tests for specialization-aware vacuuming."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.timestamp import Timestamp
from repro.core.constraints import EnforcementMode
from repro.query import NaiveExecutor, Planner, Scan, ValidTimeslice
from repro.relation.element import Element
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.columnar import ScanSpec
from repro.storage.logfile import LogFileEngine
from repro.storage.memory import MemoryEngine
from repro.storage.vacuum import (
    tt_horizon_for_valid_floor,
    vacuum_engine,
    vacuum_relation,
)
from repro.workloads import generate_general
from tests.storage.test_segments import signature


class TestVacuumEngine:
    def build(self, deletions=True):
        schema = TemporalSchema(name="x", time_varying=("v",))
        clock = SimulatedWallClock(start=0)
        relation = TemporalRelation(schema, clock=clock)
        elements = []
        for i in range(20):
            clock.advance_to(Timestamp(10 * i))
            elements.append(relation.insert("o", Timestamp(10 * i), {"v": i}))
        if deletions:
            for element in elements[:10:2]:
                relation.delete(element.element_surrogate)
        return relation

    def test_purges_only_pre_horizon_closures(self):
        relation = self.build()
        total = len(relation)
        current = {e.element_surrogate for e in relation.current()}
        report = vacuum_relation(relation, Timestamp(10**6))
        assert report.purged == total - len(current)
        assert {e.element_surrogate for e in relation.current()} == current

    def test_preserves_rollback_at_or_after_horizon(self):
        relation = self.build()
        horizon = Timestamp(150)
        before = {
            tt: sorted(e.element_surrogate for e in relation.as_of(Timestamp(tt)))
            for tt in range(150, 260, 10)
        }
        vacuum_relation(relation, horizon)
        for tt, expected in before.items():
            assert sorted(
                e.element_surrogate for e in relation.as_of(Timestamp(tt))
            ) == expected

    def test_backlog_is_the_vacuumed_history(self):
        relation = self.build()  # 20 inserts and 5 deletes: 25 operations
        vacuum_relation(relation, Timestamp(10**6))
        backlog = relation.backlog()
        assert len(backlog) == 15  # the purged elements' operations are gone

        def by_surrogate(elements):
            return sorted(elements, key=lambda e: e.element_surrogate)

        assert by_surrogate(backlog.to_elements()) == by_surrogate(relation.all_elements())

    def test_report_fractions(self):
        relation = self.build()
        report = vacuum_relation(relation, Timestamp(10**6))
        assert 0 < report.space_saved_fraction < 1
        assert report.total == 20

    def test_nothing_to_purge(self):
        relation = self.build(deletions=False)
        report = vacuum_relation(relation, Timestamp(10**6))
        assert report.purged == 0

    @settings(max_examples=20, deadline=None)
    @given(horizon=st.integers(0, 800_000))
    def test_current_state_always_preserved(self, horizon):
        workload = generate_general(inserts=120, delete_rate=0.3, seed=3)
        relation = workload.relation
        current = sorted(e.element_surrogate for e in relation.current())
        compacted, _report = vacuum_engine(relation.engine, Timestamp(horizon))
        assert sorted(e.element_surrogate for e in compacted.select(ScanSpec.of())[0]) == current


class TestLogBackedRefusal:
    """The log is the durable history: swapping in a rebuilt in-memory
    engine would acknowledge later writes without logging them."""

    def test_vacuum_refuses_and_keeps_the_relation_durable(self, tmp_path):
        path = str(tmp_path / "x.wal")
        schema = TemporalSchema(name="x", time_varying=("v",))
        clock = SimulatedWallClock(start=0)
        engine = LogFileEngine(path, fsync=False)
        relation = TemporalRelation(schema, clock=clock, engine=engine)
        for tick, step in enumerate(("insert", "delete", "insert")):
            clock.advance_to(Timestamp(10 * (tick + 1)))
            if step == "insert":
                first = relation.insert("o", Timestamp(tick), {"v": tick})
            else:
                relation.delete(first.element_surrogate)
        with pytest.raises(ValueError, match="log rotation"):
            vacuum_relation(relation, Timestamp(10**6))
        assert relation.engine is engine
        clock.advance_to(Timestamp(40))
        relation.insert("p", Timestamp(3), {"v": 3})
        live = sorted(e.element_surrogate for e in relation.current())
        assert len(live) == 2
        engine.close()
        with LogFileEngine(path, fsync=False) as reopened:
            assert sorted(e.element_surrogate for e in reopened.select(ScanSpec.of())[0]) == live


class TestHorizonFromValidFloor:
    def test_bounded_relation_gives_horizon(self):
        schema = TemporalSchema(
            name="b", specializations=["strongly bounded(10s, 30s)"]
        )
        relation = TemporalRelation(schema, clock=SimulatedWallClock(start=0))
        horizon = tt_horizon_for_valid_floor(relation, Timestamp(1_000))
        # upper offset is +30s, so tt >= 1000 - 30.
        assert horizon == Timestamp(970)

    def test_recorded_bound_gives_none(self):
        """A RECORD-mode bound stores its violators, so it implies no horizon."""
        schema = TemporalSchema(
            name="b",
            specializations=["strongly bounded(10s, 30s)"],
            enforcement=EnforcementMode.RECORD,
        )
        relation = TemporalRelation(schema, clock=SimulatedWallClock(start=0))
        assert tt_horizon_for_valid_floor(relation, Timestamp(1_000)) is None

    def test_unbounded_above_gives_none(self):
        schema = TemporalSchema(name="p", specializations=["predictive"])
        relation = TemporalRelation(schema, clock=SimulatedWallClock(start=0))
        assert tt_horizon_for_valid_floor(relation, Timestamp(1_000)) is None

    def test_vacuum_to_derived_horizon_preserves_timeslices(self):
        schema = TemporalSchema(
            name="b", specializations=["strongly bounded(5s, 5s)"]
        )
        clock = SimulatedWallClock(start=0)
        relation = TemporalRelation(schema, clock=clock)
        elements = []
        for i in range(100):
            clock.advance_to(Timestamp(10 * i))
            elements.append(relation.insert("o", Timestamp(10 * i + (i % 3) - 1), {}))
        for element in elements[:40:3]:
            relation.delete(element.element_surrogate)
        floor = Timestamp(500)
        horizon = tt_horizon_for_valid_floor(relation, floor)
        expected = {
            vt: sorted(
                e.element_surrogate
                for e in NaiveExecutor().run(
                    ValidTimeslice(Scan(relation), Timestamp(vt))
                )
            )
            for vt in range(500, 1_000, 7)
        }
        vacuum_relation(relation, horizon)
        for vt, surrogates in expected.items():
            observed = sorted(
                e.element_surrogate
                for e in NaiveExecutor().run(
                    ValidTimeslice(Scan(relation), Timestamp(vt))
                )
            )
            assert observed == surrogates, vt


class TestStatisticsFreshness:
    """Plans and relation statistics must not survive an engine swap
    or a bulk extend that bypasses the relation's own mutators."""

    def build_segmented(self, count=40, specializations=()):
        schema = TemporalSchema(
            name="x", time_varying=("v",), specializations=list(specializations)
        )
        clock = SimulatedWallClock(start=0)
        engine = MemoryEngine(segment_size=8)
        relation = TemporalRelation(
            schema, clock=clock, engine=engine
        )
        for i in range(count):
            clock.advance_to(Timestamp(10 * i))
            relation.insert("o", Timestamp(10 * i), {"v": i})
        return relation, clock

    def test_vacuum_preserves_engine_configuration(self):
        relation, clock = self.build_segmented()
        clock.advance_to(Timestamp(1000))
        for element in relation.all_elements()[:30]:
            relation.delete(element.element_surrogate)
        vacuum_relation(relation, Timestamp(10**6))
        assert relation.engine.store.segment_size == 8

    def test_post_vacuum_query_replans_with_fresh_counts(self):
        relation, clock = self.build_segmented(
            specializations=["strongly bounded(5s, 5s)"]
        )
        planner = Planner(relation)
        query = ValidTimeslice(Scan(relation), Timestamp(390))
        plan = planner.plan(query)
        assert plan.strategy == "bounded-tt-window"
        # Close everything but the last 3, then vacuum past the closures.
        clock.advance_to(Timestamp(1000))
        for element in relation.all_elements()[:37]:
            relation.delete(element.element_surrogate)
        vacuum_relation(relation, Timestamp(10**6))
        assert len(relation.engine) == 3
        # The SAME planner instance re-plans against the swapped engine.
        replanned = planner.plan(query)
        assert replanned.strategy == "bounded-tt-window"
        expected = signature(NaiveExecutor().run(query))
        assert signature(replanned.execute()) == expected

    def test_statistics_fresh_after_vacuum(self):
        relation, clock = self.build_segmented()
        assert relation.statistics()["elements"] == 40
        clock.advance_to(Timestamp(1000))
        for element in relation.all_elements()[:20]:
            relation.delete(element.element_surrogate)
        vacuum_relation(relation, Timestamp(10**6))
        assert relation.statistics()["elements"] == 20

    def test_statistics_fresh_after_direct_engine_extend(self):
        relation, _clock = self.build_segmented(count=10)
        assert relation.statistics()["elements"] == 10
        last = relation.all_elements()[-1]
        extra = Element(
            element_surrogate=last.element_surrogate + 1,
            object_surrogate="o",
            tt_start=Timestamp(last.tt_start.microseconds + 1, "microsecond"),
            vt=Timestamp(5000),
        )
        # Bypass the relation: extend the engine directly.  The epoch
        # (the store's mutation counter) still catches it.
        relation.engine.extend([extra])
        assert relation.statistics()["elements"] == 11
