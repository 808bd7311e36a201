"""Unit tests for elements (Section 2 semantics)."""

import copy
import dataclasses
import pickle
import sys

import pytest

from repro.chronos.clock import LogicalClock
from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, Timestamp
from repro.relation.element import Element
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.backlog import Operation, OperationKind
from repro.storage.logfile import LogFileEngine


def make_element(**overrides):
    defaults = dict(
        element_surrogate=1,
        object_surrogate="alice",
        tt_start=Timestamp(10),
        vt=Timestamp(5),
    )
    defaults.update(overrides)
    return Element(**defaults)


class TestBasics:
    def test_current_by_default(self):
        element = make_element()
        assert element.is_current
        assert element.tt_stop is FOREVER

    def test_event_vs_interval(self):
        assert make_element().is_event
        interval_element = make_element(vt=Interval(Timestamp(0), Timestamp(5)))
        assert not interval_element.is_event

    def test_existence_interval(self):
        element = make_element(tt_stop=Timestamp(20))
        assert element.existence_interval == Interval(Timestamp(10), Timestamp(20))

    def test_attribute_roles_merge(self):
        element = make_element(
            time_invariant={"ssn": "123"},
            time_varying={"salary": 10},
            user_times={"signed": Timestamp(3)},
        )
        assert element.attributes["ssn"] == "123"
        assert element.attributes["salary"] == 10
        assert element.attributes["signed"] == Timestamp(3)

    def test_attributes_view_is_read_only(self):
        element = make_element(time_varying={"x": 1})
        with pytest.raises(TypeError):
            element.attributes["x"] = 2


class TestTemporalPredicates:
    def test_stored_during(self):
        element = make_element(tt_stop=Timestamp(20))
        assert element.stored_during(Timestamp(10))
        assert element.stored_during(Timestamp(19))
        assert not element.stored_during(Timestamp(20))
        assert not element.stored_during(Timestamp(9))

    def test_stored_during_current(self):
        assert make_element().stored_during(Timestamp(10**9))

    def test_valid_at_event(self):
        element = make_element(vt=Timestamp(5))
        assert element.valid_at(Timestamp(5))
        assert not element.valid_at(Timestamp(6))

    def test_valid_at_interval(self):
        element = make_element(vt=Interval(Timestamp(5), Timestamp(9)))
        assert element.valid_at(Timestamp(5))
        assert element.valid_at(Timestamp(8))
        assert not element.valid_at(Timestamp(9))


class TestClosing:
    def test_closed_produces_new_record(self):
        element = make_element()
        closed = element.closed(Timestamp(30))
        assert closed.tt_stop == Timestamp(30)
        assert element.is_current  # original untouched (frozen)

    def test_double_close_rejected(self):
        closed = make_element().closed(Timestamp(30))
        with pytest.raises(ValueError, match="already deleted"):
            closed.closed(Timestamp(40))

    def test_close_before_insert_rejected(self):
        with pytest.raises(ValueError, match="must follow"):
            make_element().closed(Timestamp(10))

    def test_repr_shows_state(self):
        assert "current" in repr(make_element())
        assert "until" in repr(make_element().closed(Timestamp(99)))


class TestLayout:
    """Every way an element comes to exist yields the same slotted
    record, and the value semantics are those of a frozen dataclass."""

    def _every_kind(self, tmp_path):
        schema = TemporalSchema(
            name="layout", time_invariant=("site",), time_varying=("reading",)
        )
        wal = str(tmp_path / "layout.log")
        engine = LogFileEngine(wal, segment_size=2, tier_dir=str(tmp_path / "tier"))
        relation = TemporalRelation(schema, clock=LogicalClock(start=100), engine=engine)
        inserted = relation.insert("a", Timestamp(1), {"site": "x", "reading": 1})
        bulk = relation.append_many([("b", Timestamp(2), {"reading": 2}), ("c", Timestamp(3))])
        closed = relation.delete(bulk[1].element_surrogate)
        engine.store.compact()
        decoded = engine.get(inserted.element_surrogate)
        engine.close()
        reopened = LogFileEngine(wal)
        replayed = reopened.get(bulk[0].element_surrogate)
        reopened.close()
        built = make_element(time_varying={"reading": 1})
        elements = {
            "constructor": built,
            "insert": inserted,
            "append_many": bulk[0],
            "closed": closed,
            "seg decode": decoded,
            "wal replay": replayed,
        }
        assert decoded is not inserted and replayed is not bulk[0]
        return elements, relation.backlog().operations

    def test_no_dict_and_one_size(self, tmp_path):
        elements, operations = self._every_kind(tmp_path)
        sizes = {name: sys.getsizeof(element) for name, element in elements.items()}
        assert len(set(sizes.values())) == 1, sizes
        for name, element in elements.items():
            assert type(element) is Element and not hasattr(element, "__dict__"), name
        assert {op.kind for op in operations} == {OperationKind.INSERT, OperationKind.DELETE}
        assert len({sys.getsizeof(op) for op in operations}) == 1
        assert not any(hasattr(op, "__dict__") for op in operations)

    def test_value_semantics(self, tmp_path):
        elements, operations = self._every_kind(tmp_path)
        inserted = elements["insert"]
        twin = Element(
            element_surrogate=inserted.element_surrogate,
            object_surrogate="a",
            tt_start=inserted.tt_start,
            vt=Timestamp(1),
            time_invariant={"site": "x"},
            time_varying={"reading": 1},
        )
        assert inserted == twin and inserted == elements["seg decode"]
        assert inserted != dataclasses.replace(twin, time_varying={"reading": 2})
        assert repr(inserted) == repr(twin) == (
            f"Element(#1 obj='a' tt={inserted.tt_start!r} (current) vt=Timestamp(1, second))"
        )
        for element in elements.values():
            for derived in (pickle.loads(pickle.dumps(element)), copy.deepcopy(element)):
                assert derived == element and derived is not element
                assert repr(derived) == repr(element) and type(derived) is Element
        later = Timestamp(10**6)
        moved = dataclasses.replace(inserted, tt_stop=later)
        assert moved == inserted.closed(later) and moved.tt_stop == later
        assert moved.time_varying is inserted.time_varying
        assert inserted.is_current  # the original is untouched
        with pytest.raises(dataclasses.FrozenInstanceError):
            inserted.tt_stop = later  # type: ignore[misc]
        with pytest.raises(ValueError):
            dataclasses.replace(inserted, _wire=b"{}")
        for operation in operations:
            assert pickle.loads(pickle.dumps(operation)) == operation
            assert copy.deepcopy(operation) == operation
        with pytest.raises(ValueError):
            Operation(OperationKind.INSERT, Timestamp(1), 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            operations[0].tt = later  # type: ignore[misc]
