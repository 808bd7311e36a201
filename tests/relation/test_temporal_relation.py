"""Integration tests for the temporal relation (Section 2 semantics)."""

import pytest

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.duration import Duration
from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, Timestamp
from repro.core.constraints import ConstraintViolation, EnforcementMode
from repro.relation.errors import ElementNotFound, SchemaError
from repro.relation.schema import TemporalSchema, ValidTimeKind
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.logfile import LogFileEngine


@pytest.fixture
def clock():
    return SimulatedWallClock(start=100)


@pytest.fixture
def relation(clock):
    schema = TemporalSchema(
        name="temps",
        key=("sensor",),
        time_invariant=("sensor",),
        time_varying=("celsius",),
        specializations=["retroactive"],
    )
    return TemporalRelation(schema, clock=clock)


class TestInsert:
    def test_insert_returns_stored_element(self, relation):
        element = relation.insert("s1", Timestamp(95), {"sensor": "s1", "celsius": 20.0})
        assert element.is_current
        assert element.tt_start == Timestamp(100)
        assert element.attributes["celsius"] == 20.0

    def test_surrogates_are_unique_and_increasing(self, relation, clock):
        first = relation.insert("s1", Timestamp(95), {"sensor": "s1"})
        clock.advance(Duration(1))
        second = relation.insert("s1", Timestamp(96), {"sensor": "s1"})
        assert first.element_surrogate < second.element_surrogate

    def test_wrong_stamp_kind_rejected(self, relation):
        with pytest.raises(SchemaError):
            relation.insert("s1", Interval(Timestamp(0), Timestamp(5)), {"sensor": "s1"})

    def test_constraint_violation_leaves_relation_unchanged(self, relation):
        with pytest.raises(ConstraintViolation):
            relation.insert("s1", Timestamp(10**9), {"sensor": "s1"})
        assert len(relation) == 0

    def test_undeclared_attribute_rejected(self, relation):
        with pytest.raises(SchemaError):
            relation.insert("s1", Timestamp(95), {"oops": 1})


class TestDeleteAndModify:
    def test_logical_delete_preserves_history(self, relation, clock):
        element = relation.insert("s1", Timestamp(95), {"sensor": "s1"})
        clock.advance(Duration(10))
        closed = relation.delete(element.element_surrogate)
        assert closed.tt_stop == Timestamp(110)
        assert relation.current() == []
        assert len(relation) == 1  # nothing physically removed

    def test_delete_unknown_surrogate(self, relation):
        with pytest.raises(ElementNotFound):
            relation.delete(999)

    def test_modify_is_delete_plus_insert_with_fresh_surrogate(self, relation, clock):
        element = relation.insert("s1", Timestamp(95), {"sensor": "s1", "celsius": 20.0})
        clock.advance(Duration(5))
        replacement = relation.modify(element.element_surrogate, attributes={"celsius": 21.5})
        assert replacement.element_surrogate != element.element_surrogate
        assert replacement.attributes["celsius"] == 21.5
        assert replacement.attributes["sensor"] == "s1"  # carried over
        assert replacement.vt == element.vt  # carried over
        stored = {e.element_surrogate: e for e in relation.all_elements()}
        assert not stored[element.element_surrogate].is_current
        # Both halves share the modification's transaction time.
        assert stored[element.element_surrogate].tt_stop == replacement.tt_start

    def test_modify_deleted_element_rejected(self, relation, clock):
        element = relation.insert("s1", Timestamp(95), {"sensor": "s1"})
        clock.advance(Duration(1))
        relation.delete(element.element_surrogate)
        with pytest.raises(ElementNotFound):
            relation.modify(element.element_surrogate, attributes={"celsius": 1.0})


class TestReading:
    def test_rollback_sequence_of_states(self, relation, clock):
        first = relation.insert("s1", Timestamp(95), {"sensor": "s1"})
        clock.advance(Duration(10))
        second = relation.insert("s2", Timestamp(105), {"sensor": "s2"})
        clock.advance(Duration(10))
        relation.delete(first.element_surrogate)

        def surrogates_at(tt):
            return sorted(e.element_surrogate for e in relation.as_of(Timestamp(tt)))

        assert surrogates_at(99) == []
        assert surrogates_at(100) == [first.element_surrogate]
        assert surrogates_at(111) == [first.element_surrogate, second.element_surrogate]
        assert surrogates_at(122) == [second.element_surrogate]
        assert surrogates_at(10**9) == [second.element_surrogate]

    def test_rollback_state_is_stepwise_constant(self, relation, clock):
        element = relation.insert("s1", Timestamp(95), {"sensor": "s1"})
        clock.advance(Duration(100))
        relation.insert("s2", Timestamp(195), {"sensor": "s2"})
        # Between the two transactions the state does not change.
        for tt in (100, 120, 150, 199):
            assert [e.element_surrogate for e in relation.as_of(Timestamp(tt))] == [
                element.element_surrogate
            ]

    def test_valid_timeslice(self, relation, clock):
        relation.insert("s1", Timestamp(95), {"sensor": "s1"})
        clock.advance(Duration(5))
        relation.insert("s2", Timestamp(95), {"sensor": "s2"})
        assert len(relation.valid_at(Timestamp(95))) == 2
        assert relation.valid_at(Timestamp(96)) == []

    def test_bitemporal_slice(self, relation, clock):
        element = relation.insert("s1", Timestamp(95), {"sensor": "s1"})
        clock.advance(Duration(10))
        relation.delete(element.element_surrogate)
        # Currently nothing is valid at 95, but as of tt=105 it was.
        assert relation.valid_at(Timestamp(95)) == []
        assert len(relation.valid_at(Timestamp(95), as_of_tt=Timestamp(105))) == 1

    def test_lifeline(self, relation, clock):
        element = relation.insert("s1", Timestamp(95), {"sensor": "s1"})
        clock.advance(Duration(1))
        relation.insert("s2", Timestamp(96), {"sensor": "s2"})
        clock.advance(Duration(1))
        relation.modify(element.element_surrogate, attributes={"celsius": 1.0})
        lifeline = relation.lifeline("s1")
        assert len(lifeline) == 2
        assert len(lifeline.current()) == 1
        assert relation.objects() == ["s1", "s2"]


class TestBacklogView:
    def test_backlog_matches_engine_states(self, relation, clock):
        first = relation.insert("s1", Timestamp(95), {"sensor": "s1"})
        clock.advance(Duration(10))
        relation.insert("s2", Timestamp(100), {"sensor": "s2"})
        clock.advance(Duration(10))
        relation.modify(first.element_surrogate, attributes={"celsius": 7.0})
        backlog = relation.backlog()
        for tt in (99, 100, 111, 122, 10**6):
            from_engine = sorted(
                e.element_surrogate for e in relation.as_of(Timestamp(tt))
            )
            from_backlog = sorted(backlog.state_at(Timestamp(tt)))
            assert from_engine == from_backlog, tt


class TestIntervalRelation:
    def test_interval_inserts_and_timeslice(self, clock):
        schema = TemporalSchema(
            name="assignments",
            valid_time_kind=ValidTimeKind.INTERVAL,
            time_varying=("project",),
        )
        relation = TemporalRelation(schema, clock=clock)
        relation.insert("emp1", Interval(Timestamp(90), Timestamp(110)), {"project": "x"})
        clock.advance(Duration(1))
        relation.insert("emp1", Interval(Timestamp(110), FOREVER), {"project": "y"})
        at_95 = relation.valid_at(Timestamp(95))
        assert [e.attributes["project"] for e in at_95] == ["x"]
        at_10e6 = relation.valid_at(Timestamp(10**6))
        assert [e.attributes["project"] for e in at_10e6] == ["y"]


class TestEnforcementModes:
    def test_record_mode_accepts_and_logs(self, clock):
        schema = TemporalSchema(
            name="audited",
            specializations=["retroactive"],
            enforcement=EnforcementMode.RECORD,
        )
        relation = TemporalRelation(schema, clock=clock)
        relation.insert("x", Timestamp(10**6), {})
        assert len(relation) == 1
        assert len(relation.constraints.recorded) == 1


class TestLogFileBackedRelation:
    def test_same_behaviour_on_logfile(self, clock, tmp_path):
        schema = TemporalSchema(
            name="temps",
            time_varying=("celsius",),
            specializations=["retroactive"],
        )
        engine = LogFileEngine(str(tmp_path / "temps.wal"))
        relation = TemporalRelation(schema, clock=clock, engine=engine)
        element = relation.insert("s1", Timestamp(95), {"celsius": 20.0})
        clock.advance(Duration(10))
        relation.modify(element.element_surrogate, attributes={"celsius": 30.0})
        assert len(relation) == 2
        assert len(relation.current()) == 1
        assert len(relation.as_of(Timestamp(105))) == 1
        assert relation.current()[0].attributes["celsius"] == 30.0
        engine.close()

    def test_reopening_reseeds_surrogates(self, tmp_path):
        path = str(tmp_path / "persisted.wal")
        schema = TemporalSchema(name="persisted", time_varying=("v",))
        clock = SimulatedWallClock(start=100)
        with LogFileEngine(path) as engine:
            relation = TemporalRelation(schema, clock=clock, engine=engine)
            first = relation.insert("a", Timestamp(95), {"v": 1})
        clock2 = SimulatedWallClock(start=200)
        with LogFileEngine(path) as engine:
            relation = TemporalRelation(schema, clock=clock2, engine=engine)
            second = relation.insert("b", Timestamp(195), {"v": 2})
            assert second.element_surrogate > first.element_surrogate
            assert len(relation) == 2

    def test_reopened_relation_deletes_and_modifies_adopted_elements(self, tmp_path):
        path = str(tmp_path / "persisted.wal")
        schema = TemporalSchema(name="persisted", time_varying=("v",))
        clock = SimulatedWallClock(start=100)
        with LogFileEngine(path) as engine:
            relation = TemporalRelation(schema, clock=clock, engine=engine)
            first = relation.insert("a", Timestamp(95), {"v": 1})
            clock.advance(Duration(5))
            second = relation.insert("b", Timestamp(96), {"v": 2})
        clock.advance(Duration(5))
        with LogFileEngine(path) as engine:
            relation = TemporalRelation(schema, clock=clock, engine=engine)
            version = relation.version
            relation.delete(first.element_surrogate)
            clock.advance(Duration(5))
            third = relation.modify(second.element_surrogate, attributes={"v": 3})
            assert relation.version == version + 2
            assert [e.element_surrogate for e in relation.current()] == [third.element_surrogate]
            # The rebuilt backlog holds the adopted history too.
            assert set(relation.backlog().state_at(Timestamp(105))) == {
                first.element_surrogate,
                second.element_surrogate,
            }
            assert set(relation.backlog().current_state()) == {third.element_surrogate}
