"""Unit and property tests for backlog relations and snapshot caching."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chronos.timestamp import FOREVER, Timestamp
from repro.relation.element import Element
from repro.relation.errors import ElementNotFound
from repro.storage.backlog import Backlog, Operation, OperationKind
from repro.storage.columnar import ScanSpec
from repro.storage.memory import MemoryEngine
from repro.storage.snapshot import SnapshotCache


def event_element(surrogate: int, tt: int, vt: int) -> Element:
    return Element(
        element_surrogate=surrogate,
        object_surrogate="obj",
        tt_start=Timestamp(tt),
        vt=Timestamp(vt),
    )


class TestOperations:
    def test_insert_requires_payload(self):
        with pytest.raises(ValueError):
            Operation(OperationKind.INSERT, Timestamp(1), 1, None)

    def test_delete_rejects_payload(self):
        with pytest.raises(ValueError):
            Operation(OperationKind.DELETE, Timestamp(1), 1, event_element(1, 1, 1))


class TestBacklog:
    def test_state_reconstruction(self):
        backlog = Backlog()
        backlog.record_insert(event_element(1, 10, 5))
        backlog.record_insert(event_element(2, 20, 15))
        backlog.record_delete(1, Timestamp(30))
        assert sorted(backlog.state_at(Timestamp(25))) == [1, 2]
        assert sorted(backlog.state_at(Timestamp(30))) == [2]
        assert backlog.state_at(Timestamp(5)) == {}
        assert sorted(backlog.current_state()) == [2]

    def test_operations_must_be_tt_ordered(self):
        backlog = Backlog()
        backlog.record_insert(event_element(1, 10, 5))
        with pytest.raises(ValueError, match="strictly increasing"):
            backlog.record_insert(event_element(2, 10, 5))

    def test_delete_unknown(self):
        with pytest.raises(ElementNotFound):
            Backlog().record_delete(9, Timestamp(1))

    def test_modification_shares_one_stamp(self):
        backlog = Backlog()
        backlog.record_insert(event_element(1, 10, 5))
        backlog.record_modification(1, event_element(2, 20, 5))
        assert len(backlog) == 3
        assert sorted(backlog.state_at(Timestamp(20))) == [2]
        # Exactly one new historical state: nothing between 10 and 20.
        assert sorted(backlog.state_at(Timestamp(19))) == [1]

    def test_to_elements_closes_existence_intervals(self):
        backlog = Backlog()
        backlog.record_insert(event_element(1, 10, 5))
        backlog.record_delete(1, Timestamp(30))
        backlog.record_insert(event_element(2, 40, 35))
        elements = {e.element_surrogate: e for e in backlog.to_elements()}
        assert elements[1].tt_stop == Timestamp(30)
        assert elements[2].tt_stop is FOREVER


class TestCoincidentStamps:
    def test_coincident_allows_equal_stamps(self):
        backlog = Backlog()
        backlog.record_insert(event_element(1, 10, 5))
        backlog.record_insert(event_element(2, 10, 6), coincident=True)
        backlog.record_delete(1, Timestamp(10), coincident=True)
        assert sorted(backlog.state_at(Timestamp(10))) == [2]

    def test_coincident_still_rejects_regression(self):
        backlog = Backlog()
        backlog.record_insert(event_element(1, 10, 5))
        with pytest.raises(ValueError, match="non-decreasing"):
            backlog.record_insert(event_element(2, 9, 5), coincident=True)

    def test_default_remains_strict(self):
        backlog = Backlog()
        backlog.record_insert(event_element(1, 10, 5))
        with pytest.raises(ValueError, match="strictly increasing"):
            backlog.record_delete(1, Timestamp(10))


class TestSnapshotCache:
    def test_states_agree_with_backlog(self):
        backlog = Backlog()
        tt = 0
        live = []
        for i in range(1, 120):
            tt += 1
            if i % 4 == 0 and live:
                backlog.record_delete(live.pop(0), Timestamp(tt))
            else:
                backlog.record_insert(event_element(i, tt, i))
                live.append(i)
        cache = SnapshotCache(backlog, interval=16)
        for probe in range(0, tt + 2, 7):
            assert cache.state_at(Timestamp(probe)) == backlog.state_at(Timestamp(probe))

    def test_snapshots_created_lazily(self):
        backlog = Backlog()
        cache = SnapshotCache(backlog, interval=4)
        for i in range(1, 10):
            backlog.record_insert(event_element(i, i, i))
        assert cache.snapshot_count == 0
        cache.refresh()
        assert cache.snapshot_count == 2  # 9 ops, every 4th

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            SnapshotCache(Backlog(), interval=0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.booleans(), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=16),
    )
    def test_property_snapshot_equals_replay(self, script, interval):
        backlog = Backlog()
        tt = 0
        surrogate = 0
        live = []
        for is_delete in script:
            tt += 1
            if is_delete and live:
                backlog.record_delete(live.pop(), Timestamp(tt))
            else:
                surrogate += 1
                backlog.record_insert(event_element(surrogate, tt, tt))
                live.append(surrogate)
        cache = SnapshotCache(backlog, interval=interval)
        for probe in range(0, tt + 2):
            assert cache.state_at(Timestamp(probe)) == backlog.state_at(Timestamp(probe))


class TestBacklogEngineAgreement:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_memory_engine_as_of_equals_backlog_replay(self, script):
        """The tuple-store and the backlog are two representations of
        the same conceptual relation (Section 2)."""
        engine = MemoryEngine()
        backlog = Backlog()
        tt = 0
        surrogate = 0
        live = []
        for is_delete in script:
            tt += 1
            if is_delete and live:
                victim = live.pop(0)
                engine.close_element(victim, Timestamp(tt))
                backlog.record_delete(victim, Timestamp(tt))
            else:
                surrogate += 1
                element = event_element(surrogate, tt, tt)
                engine.append(element)
                backlog.record_insert(element)
                live.append(surrogate)
        for probe in range(0, tt + 2):
            rollback = engine.select(ScanSpec.of(as_of=Timestamp(probe)))[0]
            assert sorted(e.element_surrogate for e in rollback) == sorted(
                backlog.state_at(Timestamp(probe))
            )
