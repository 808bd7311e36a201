"""Unit and property tests for indexes and the interval tree."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, NEGATIVE_INFINITY, Timestamp
from repro.relation.element import Element
from repro.storage.columnar import ScanSpec
from repro.storage.indexes import ValidTimeEventIndex
from repro.storage.interval_tree import IntervalTree
from repro.storage.memory import MemoryEngine
from repro.storage.segments import SegmentedStore


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
    """The transaction-time index is the store's append order: elements
    arrive in increasing ``tt_start`` order, so rollback candidates form
    a prefix the store bisects (no B-tree needed)."""

    def test_prefix_binary_search(self):
        engine = MemoryEngine()
        for surrogate, tt in ((1, 10), (2, 20), (3, 30)):
            engine.append(event_element(surrogate, tt, 0))
        def rollback(tt):
            return engine.select(ScanSpec.of(as_of=tt))[0]

        assert [e.element_surrogate for e in rollback(Timestamp(20))] == [1, 2]
        assert [e.element_surrogate for e in rollback(Timestamp(9))] == []
        assert len(rollback(FOREVER)) == 3
        assert rollback(NEGATIVE_INFINITY) == []

    def test_rejects_non_increasing(self):
        store = SegmentedStore()
        store.append(event_element(1, 10, 0))
        with pytest.raises(ValueError, match="strictly increasing"):
            store.append(event_element(2, 10, 0))

    def test_replace(self):
        store = SegmentedStore()
        store.append(event_element(1, 10, 0))
        store.replace(0, store.element_at(0).closed(Timestamp(99)))
        assert not store.element_at(0).is_current


class TestValidTimeEventIndex:
    """The index maps valid-time keys to store positions (microsecond
    ints both); rows are added in position order."""

    def test_in_order_appends_counted(self):
        index = ValidTimeEventIndex()
        for position, vt in enumerate((5, 5, 9)):
            index.add(vt, position)
        assert index.appended_in_order == 3
        assert index.inserted_out_of_order == 0

    def test_out_of_order_inserts_counted(self):
        index = ValidTimeEventIndex()
        index.add(10, 0)
        index.add(5, 1)
        assert index.inserted_out_of_order == 1

    def test_at_and_between(self):
        index = ValidTimeEventIndex()
        for position, vt in enumerate((5, 7, 5, 12)):
            index.add(vt, position)
        assert list(index.at(5)) == [0, 2]  # equal keys in position order
        assert list(index.between(5, 12)) == [0, 2, 1]

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=30))
    def test_between_matches_filter(self, valid_times):
        index = ValidTimeEventIndex()
        for position, vt in enumerate(valid_times):
            index.add(vt, position)
        expected = [i for i, vt in enumerate(valid_times) if -20 <= vt < 20]
        assert sorted(index.between(-20, 20)) == expected

    def test_bulk_rows_wait_in_the_tail_until_a_reader_settles_them(self):
        index = ValidTimeEventIndex()
        index.extend([30, 10, 20], [0, 1, 2])
        index.extend([5, 40], [3, 4])
        assert len(index) == 5 and len(index._keys) == 0  # nothing merged yet
        assert list(index.between(0, 100)) == [3, 1, 2, 0, 4]
        assert len(index._tail_keys) == 0 and list(index._keys) == [5, 10, 20, 30, 40]

    def test_in_order_batches_append_straight_to_the_run(self):
        index = ValidTimeEventIndex()
        index.extend([1, 2, 2], [0, 1, 2])
        index.extend([2, 7], [3, 4])
        assert list(index._keys) == [1, 2, 2, 2, 7] and len(index._tail_keys) == 0
        assert (index.appended_in_order, index.inserted_out_of_order) == (5, 0)

    def test_single_add_after_a_bulk_settles_first(self):
        index = ValidTimeEventIndex()
        index.extend([9, 3], [0, 1])
        index.add(5, 2)
        assert list(index._keys) == [3, 5, 9] and list(index._positions) == [1, 2, 0]


@st.composite
def index_scripts(draw):
    """Interleavings of single adds, bulk extends (sorted or shuffled,
    duplicate-heavy) and probes, over a small key domain."""
    keys = st.integers(-15, 15)
    steps = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["add", "extend", "extend_sorted", "at", "between"]))
        if kind == "add":
            steps.append(("add", draw(keys)))
        elif kind == "at":
            steps.append(("at", draw(keys)))
        elif kind == "between":
            steps.append(("between", draw(keys), draw(keys)))
        else:
            batch = draw(st.lists(keys, max_size=8))
            steps.append(("extend", sorted(batch) if kind == "extend_sorted" else batch))
    return steps


@given(index_scripts())
def test_event_index_matches_a_sorted_list_model(steps):
    """Whatever the interleaving, the index answers what a plain sorted
    list of ``(vt, position)`` does -- equal keys in position order --
    and counts rows by how they arrived (today's meaning: a row, or a
    sorted batch, at or after every earlier key is an in-order append)."""
    index = ValidTimeEventIndex()
    model = []  # (vt, position), kept sorted
    in_order = out_of_order = 0
    for step in steps:
        if step[0] == "add":
            if not model or step[1] >= model[-1][0]:
                in_order += 1
            else:
                out_of_order += 1
            index.add(step[1], len(model))
            model.append((step[1], len(model)))
        elif step[0] == "extend":
            batch = step[1]
            if batch:
                if batch == sorted(batch) and (not model or batch[0] >= model[-1][0]):
                    in_order += len(batch)
                else:
                    out_of_order += len(batch)
            base = len(model)
            index.extend(batch, range(base, base + len(batch)))
            model.extend(zip(batch, range(base, base + len(batch))))
        elif step[0] == "at":
            assert list(index.at(step[1])) == [p for vt, p in model if vt == step[1]]
        else:
            low, high = step[1], step[2]
            assert list(index.between(low, high)) == [p for vt, p in model if low <= vt < high]
        model.sort()
        assert len(index) == len(model)
        assert (index.appended_in_order, index.inserted_out_of_order) == (in_order, out_of_order)
    assert list(index.between(-100, 100)) == [p for _vt, p in model]


def test_settle_merges_a_shuffled_tail_into_a_long_run():
    """A shuffled tail landing all over a long run (before it, inside it,
    past it, on equal keys): same order as a full re-sort."""
    rng = random.Random(7)
    run = sorted(rng.randrange(10_000) for _ in range(5_000))
    tail = [rng.randrange(-50, 10_050) for _ in range(300)]
    index = ValidTimeEventIndex()
    index.extend(run, range(5_000))
    index.extend(tail, range(5_000, 5_300))
    expected = sorted(zip(run + tail, range(5_300)))
    assert list(index.between(-100, 20_000)) == [p for _vt, p in expected]
    assert list(index._keys) == [vt for vt, _p in expected]


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

    def test_in_order_appends_keep_the_tree_shallow(self):
        """Each in-order interval starts past every center, so without a
        rebalance it hangs as a new right leaf and the tree is a chain."""
        tree = IntervalTree()
        tree.add(self.iv(0, 7), 0)
        assert list(tree.stab(Timestamp(3))) == [0]  # the early build
        count = 2000
        for i in range(1, count):
            tree.add(self.iv(10 * i, 10 * i + 7), i)
        depth, stack = 0, [(tree._root, 1)]
        while stack:
            node, level = stack.pop()
            if node is not None:
                depth = max(depth, level)
                stack += [(node.left, level + 1), (node.right, level + 1)]
        assert depth <= 2 * count.bit_length() + 2
        batch = IntervalTree()
        for i in range(count):
            batch.add(self.iv(10 * i, 10 * i + 7), i)
        for probe in (0, 3, 9, 4321, 10 * (count - 1) + 6, 10 * count):
            point = Timestamp(probe)
            assert sorted(tree.stab(point)) == sorted(batch.stab(point))
        window = self.iv(995, 1_213)
        assert sorted(tree.overlapping(window)) == sorted(batch.overlapping(window))
        assert tree.rebuilds == 1

    def test_engine_preserves_index_identity_across_appends(self):
        engine = MemoryEngine()
        for i in range(10):
            engine.append(interval_element(i, 10 * i, 10 * i, 10 * i + 25))
        assert engine.select(ScanSpec.of(Timestamp(30)))[0]  # force build
        tree = engine.interval_index
        assert tree is not None
        before = tree.rebuilds
        for i in range(10, 40):
            engine.append(interval_element(i, 10 * i, 10 * i, 10 * i + 25))
            engine.select(ScanSpec.of(Timestamp(10 * i + 1)))
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
