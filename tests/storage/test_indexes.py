"""Unit and property tests for indexes and the interval tree."""

import pytest
from hypothesis import given, strategies as st

from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, NEGATIVE_INFINITY, Timestamp
from repro.relation.element import Element
from repro.storage.indexes import TransactionTimeIndex, ValidTimeEventIndex
from repro.storage.interval_tree import IntervalTree
from repro.storage.memory import MemoryEngine


def event_element(surrogate: int, tt: int, vt: int) -> Element:
    return Element(
        element_surrogate=surrogate,
        object_surrogate="obj",
        tt_start=Timestamp(tt),
        vt=Timestamp(vt),
    )


def interval_element(surrogate: int, tt: int, vt_start: int, vt_end: int) -> Element:
    return Element(
        element_surrogate=surrogate,
        object_surrogate="obj",
        tt_start=Timestamp(tt),
        vt=Interval(Timestamp(vt_start), Timestamp(vt_end)),
    )


class TestTransactionTimeIndex:
    def test_prefix_binary_search(self):
        index = TransactionTimeIndex()
        for surrogate, tt in ((1, 10), (2, 20), (3, 30)):
            index.append(event_element(surrogate, tt, 0))
        assert [e.element_surrogate for e in index.prefix_through(Timestamp(20))] == [1, 2]
        assert [e.element_surrogate for e in index.prefix_through(Timestamp(9))] == []
        assert len(list(index.prefix_through(FOREVER))) == 3
        assert list(index.prefix_through(NEGATIVE_INFINITY)) == []

    def test_rejects_non_increasing(self):
        index = TransactionTimeIndex()
        index.append(event_element(1, 10, 0))
        with pytest.raises(ValueError, match="strictly increasing"):
            index.append(event_element(2, 10, 0))

    def test_replace(self):
        index = TransactionTimeIndex()
        index.append(event_element(1, 10, 0))
        closed = index.element_at(0).closed(Timestamp(99))
        index.replace(0, closed)
        assert not index.element_at(0).is_current


class TestValidTimeEventIndex:
    def test_in_order_appends_counted(self):
        index = ValidTimeEventIndex()
        for surrogate, vt in ((1, 5), (2, 5), (3, 9)):
            index.add(event_element(surrogate, surrogate, vt))
        assert index.appended_in_order == 3
        assert index.inserted_out_of_order == 0

    def test_out_of_order_inserts_counted(self):
        index = ValidTimeEventIndex()
        index.add(event_element(1, 1, 10))
        index.add(event_element(2, 2, 5))
        assert index.inserted_out_of_order == 1

    def test_at_and_between(self):
        index = ValidTimeEventIndex()
        for surrogate, vt in ((1, 5), (2, 7), (3, 5), (4, 12)):
            index.add(event_element(surrogate, surrogate, vt))
        assert sorted(e.element_surrogate for e in index.at(Timestamp(5))) == [1, 3]
        assert [e.element_surrogate for e in index.between(Timestamp(5), Timestamp(12))] in (
            [1, 3, 2],
            [3, 1, 2],
        )

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=30))
    def test_between_matches_filter(self, valid_times):
        index = ValidTimeEventIndex()
        for position, vt in enumerate(valid_times, start=1):
            index.add(event_element(position, position, vt))
        low, high = Timestamp(-20), Timestamp(20)
        expected = sorted(i + 1 for i, vt in enumerate(valid_times) if -20 <= vt < 20)
        assert sorted(e.element_surrogate for e in index.between(low, high)) == expected


class TestIntervalTree:
    def iv(self, start, end):
        return Interval(Timestamp(start), Timestamp(end))

    def test_stab(self):
        tree = IntervalTree()
        tree.add(self.iv(0, 10), "a")
        tree.add(self.iv(5, 15), "b")
        tree.add(self.iv(20, 30), "c")
        assert sorted(tree.stab(Timestamp(7))) == ["a", "b"]
        assert list(tree.stab(Timestamp(10))) == ["b"]  # half-open
        assert sorted(tree.stab(Timestamp(25))) == ["c"]
        assert list(tree.stab(Timestamp(16))) == []

    def test_overlapping(self):
        tree = IntervalTree()
        tree.add(self.iv(0, 10), "a")
        tree.add(self.iv(20, 30), "b")
        assert sorted(tree.overlapping(self.iv(5, 25))) == ["a", "b"]
        assert list(tree.overlapping(self.iv(10, 20))) == []

    def test_unbounded_intervals(self):
        tree = IntervalTree()
        tree.add(Interval(Timestamp(5), FOREVER), "open")
        assert list(tree.stab(Timestamp(10**9))) == ["open"]
        assert list(tree.stab(Timestamp(4))) == []

    def test_incremental_rebuild(self):
        tree = IntervalTree()
        tree.add(self.iv(0, 10), 1)
        assert list(tree.stab(Timestamp(5))) == [1]
        tree.add(self.iv(3, 7), 2)
        assert sorted(tree.stab(Timestamp(5))) == [1, 2]

    @given(
        st.lists(
            st.tuples(st.integers(-50, 50), st.integers(1, 40)),
            min_size=1,
            max_size=40,
        ),
        st.integers(-60, 100),
    )
    def test_stab_matches_filter(self, spans, probe):
        tree = IntervalTree()
        intervals = []
        for identifier, (start, length) in enumerate(spans):
            interval = self.iv(start, start + length)
            tree.add(interval, identifier)
            intervals.append(interval)
        point = Timestamp(probe)
        expected = sorted(
            i for i, interval in enumerate(intervals) if interval.contains_point(point)
        )
        assert sorted(tree.stab(point)) == expected

    @given(
        st.lists(
            st.tuples(st.integers(-50, 50), st.integers(1, 40)),
            min_size=1,
            max_size=40,
        ),
        st.integers(-60, 100),
        st.integers(1, 50),
    )
    def test_overlap_matches_filter(self, spans, window_start, window_length):
        tree = IntervalTree()
        intervals = []
        for identifier, (start, length) in enumerate(spans):
            interval = self.iv(start, start + length)
            tree.add(interval, identifier)
            intervals.append(interval)
        window = self.iv(window_start, window_start + window_length)
        expected = sorted(
            i for i, interval in enumerate(intervals) if interval.overlaps(window)
        )
        assert sorted(tree.overlapping(window)) == expected


class TestIntervalTreeIncrementalInsert:
    """Appends after a build insert into the existing tree in place --
    the regression is a rebuild (or a fresh tree) per mutation."""

    def iv(self, start, end):
        return Interval(Timestamp(start), Timestamp(end))

    def test_appends_after_build_do_not_rebuild(self):
        tree = IntervalTree()
        for i in range(16):
            tree.add(self.iv(i, i + 3), i)
        assert sorted(tree.stab(Timestamp(5))) == [3, 4, 5]
        assert tree.rebuilds == 1
        for i in range(16, 200):
            tree.add(self.iv(i, i + 3), i)
            # Queries between appends stay correct without re-sorting
            # the whole item set.
            assert sorted(tree.stab(Timestamp(i))) == [i - 2, i - 1, i]
        assert tree.rebuilds == 1

    def test_engine_preserves_index_identity_across_appends(self):
        engine = MemoryEngine()
        for i in range(10):
            engine.append(interval_element(i, 10 * i, 10 * i, 10 * i + 25))
        assert len(list(engine.valid_at(Timestamp(30)))) > 0  # force build
        tree = engine.interval_index
        assert tree is not None
        before = tree.rebuilds
        for i in range(10, 40):
            engine.append(interval_element(i, 10 * i, 10 * i, 10 * i + 25))
            engine.valid_at(Timestamp(10 * i + 1))
        assert engine.interval_index is tree
        assert tree.rebuilds == before

    @given(
        st.lists(
            st.tuples(st.integers(-50, 50), st.integers(1, 40)),
            min_size=2,
            max_size=40,
        ),
        st.integers(-60, 100),
        st.integers(1, 50),
    )
    def test_incremental_matches_batch_built(self, spans, probe, window_length):
        incremental = IntervalTree()
        for identifier, (start, length) in enumerate(spans):
            incremental.add(self.iv(start, start + length), identifier)
            # Query every step: the first stab builds, the rest insert
            # into the built tree.
            incremental.stab(Timestamp(probe))
        batch = IntervalTree()
        for identifier, (start, length) in enumerate(spans):
            batch.add(self.iv(start, start + length), identifier)
        point = Timestamp(probe)
        assert sorted(incremental.stab(point)) == sorted(batch.stab(point))
        window = self.iv(probe, probe + window_length)
        assert sorted(incremental.overlapping(window)) == sorted(
            batch.overlapping(window)
        )
        assert incremental.rebuilds == 1
