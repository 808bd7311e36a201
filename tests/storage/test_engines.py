"""Cross-engine tests: the memory and log-file engines must behave identically."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, NEGATIVE_INFINITY, Timestamp
from repro.relation.element import Element
from repro.relation.errors import ElementNotFound
from repro.relation.schema import TemporalSchema, ValidTimeKind
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.columnar import ScanSpec
from repro.storage.logfile import LogFileEngine
from repro.storage.memory import MemoryEngine
from repro.storage.tiered import TierManager
from tests.strategies import topologies


@pytest.fixture(params=["MemoryEngine", "LogFileEngine"])
def engine(request, tmp_path):
    """A fresh, empty engine of each kind (the log under *tmp_path*)."""
    if request.param == "MemoryEngine":
        fresh = MemoryEngine()
    else:
        fresh = LogFileEngine(str(tmp_path / "engine.wal"), fsync=False)
    yield fresh
    fresh.close()


def read(engine, vt=None, as_of=None):
    """The engine's one read of ``ScanSpec.of(vt, as_of)``."""
    return engine.select(ScanSpec.of(vt, as_of))[0]


def event_element(surrogate: int, tt: int, vt: int, who="obj") -> Element:
    return Element(
        element_surrogate=surrogate,
        object_surrogate=who,
        tt_start=Timestamp(tt),
        vt=Timestamp(vt),
    )


def interval_element(surrogate: int, tt: int, start: int, end: int) -> Element:
    return Element(
        element_surrogate=surrogate,
        object_surrogate="obj",
        tt_start=Timestamp(tt),
        vt=Interval(Timestamp(start), Timestamp(end)),
    )


class TestEngineContract:
    def test_append_and_get(self, engine):
        element = event_element(1, 10, 5)
        engine.append(element)
        assert engine.get(1) == element
        assert len(engine) == 1

    def test_duplicate_surrogate_rejected(self, engine):
        engine.append(event_element(1, 10, 5))
        with pytest.raises(ValueError):
            engine.append(event_element(1, 20, 5))

    def test_get_missing(self, engine):
        with pytest.raises(ElementNotFound):
            engine.get(42)

    def test_close_element(self, engine):
        engine.append(event_element(1, 10, 5))
        closed = engine.close_element(1, Timestamp(20))
        assert closed.tt_stop == Timestamp(20)
        assert engine.get(1).tt_stop == Timestamp(20)
        assert read(engine) == []

    def test_double_close_rejected(self, engine):
        engine.append(event_element(1, 10, 5))
        engine.close_element(1, Timestamp(20))
        with pytest.raises(ValueError):
            engine.close_element(1, Timestamp(30))

    def test_as_of(self, engine):
        engine.append(event_element(1, 10, 5))
        engine.append(event_element(2, 20, 15))
        engine.close_element(1, Timestamp(30))
        assert [e.element_surrogate for e in read(engine, as_of=Timestamp(9))] == []
        assert [e.element_surrogate for e in read(engine, as_of=Timestamp(10))] == [1]
        assert sorted(e.element_surrogate for e in read(engine, as_of=Timestamp(25))) == [1, 2]
        assert [e.element_surrogate for e in read(engine, as_of=Timestamp(30))] == [2]
        assert [e.element_surrogate for e in read(engine, as_of=FOREVER)] == [2]

    def test_valid_at_events(self, engine):
        engine.append(event_element(1, 10, 5))
        engine.append(event_element(2, 20, 5))
        engine.append(event_element(3, 30, 7))
        assert sorted(e.element_surrogate for e in read(engine, Timestamp(5))) == [1, 2]

    def test_valid_at_intervals(self, engine):
        engine.append(interval_element(1, 10, 0, 10))
        engine.append(interval_element(2, 20, 5, 15))
        assert sorted(e.element_surrogate for e in read(engine, Timestamp(7))) == [1, 2]
        assert [e.element_surrogate for e in read(engine, Timestamp(12))] == [2]
        assert [e.element_surrogate for e in read(engine, Timestamp(15))] == []

    def test_valid_at_sees_only_current(self, engine):
        engine.append(event_element(1, 10, 5))
        engine.close_element(1, Timestamp(20))
        assert read(engine, Timestamp(5)) == []
        # A slice of a rollback state is the relation's pinned scan.
        relation = TemporalRelation(TemporalSchema(name="r"), engine=engine)
        assert [e.element_surrogate for e in relation.valid_at(Timestamp(5), Timestamp(15))] == [1]

    def test_valid_overlapping(self, engine):
        engine.append(interval_element(1, 10, 0, 10))
        engine.append(interval_element(2, 20, 20, 30))
        engine.append(event_element(3, 30, 25))
        window = Interval(Timestamp(8), Timestamp(26))
        assert sorted(e.element_surrogate for e in read(engine, window)) == [
            1,
            2,
            3,
        ]
        narrow = Interval(Timestamp(10), Timestamp(20))
        assert read(engine, narrow) == []

    def test_scan_in_transaction_order(self, engine):
        for surrogate, tt in ((1, 10), (2, 20), (3, 30)):
            engine.append(event_element(surrogate, tt, 0))
        assert [e.element_surrogate for e in engine.scan()] == [1, 2, 3]


class TestEngineEquivalence:
    """Both engines produce identical answers on a random update stream."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.booleans()),
            min_size=1,
            max_size=25,
        )
    )
    def test_random_streams(self, tmp_path_factory, script):
        path = str(tmp_path_factory.mktemp("equivalence") / "stream.wal")
        memory = MemoryEngine()
        logfile = LogFileEngine(path, fsync=False)
        tt = 0
        surrogate = 0
        live = []
        for vt_offset, is_delete in script:
            tt += 1
            if is_delete and live:
                victim = live.pop(0)
                memory.close_element(victim, Timestamp(tt))
                logfile.close_element(victim, Timestamp(tt))
            else:
                surrogate += 1
                element = event_element(surrogate, tt, tt - vt_offset)
                memory.append(element)
                logfile.append(element)
                live.append(surrogate)
        logfile.close()
        reopened = LogFileEngine(path, fsync=False)  # the answers survive a replay
        for probe in range(0, tt + 2):
            stamp = Timestamp(probe)
            assert sorted(e.element_surrogate for e in read(memory, as_of=stamp)) == sorted(
                e.element_surrogate for e in read(reopened, as_of=stamp)
            )
            assert sorted(e.element_surrogate for e in read(memory, stamp)) == sorted(
                e.element_surrogate for e in read(reopened, stamp)
            )
        reopened.close()


@st.composite
def mixed_store_scripts(draw):
    """Single appends, bulks and closes over a store that mixes event and
    interval stamps (valid times collide on purpose)."""
    stamp = st.one_of(
        st.integers(0, 12),
        st.tuples(st.integers(0, 12), st.integers(1, 6), st.booleans()),
    )
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["append", "extend", "extend", "close"]))
        if kind == "append":
            steps.append(("append", draw(stamp)))
        elif kind == "extend":
            steps.append(("extend", draw(st.lists(stamp, min_size=1, max_size=7))))
        else:
            steps.append(("close", draw(st.integers(0, 30))))
    return steps


class TestLiveIndexReads:
    """Un-pinned point and window specs come from the valid-time
    indexes' positions filtered by the live bitmap; whatever
    the mix of stamps and the interleaving of bulks, single rows and
    deletes, they equal a plain-list filter, in exact tt order."""

    @staticmethod
    def element(surrogate, tt, stamp):
        if isinstance(stamp, int):
            return event_element(surrogate, tt, stamp, who=f"o{surrogate % 5}")
        start, length, open_ended = stamp
        end = FOREVER if open_ended else Timestamp(start + length)
        return Element(
            element_surrogate=surrogate,
            object_surrogate=f"o{surrogate % 5}",
            tt_start=Timestamp(tt),
            vt=Interval(Timestamp(start), end),
        )

    @settings(max_examples=40, deadline=None)
    @given(mixed_store_scripts())
    def test_match_a_plain_list_filter(self, tmp_path_factory, steps):
        log_path = str(tmp_path_factory.mktemp("live") / "mirror.wal")
        engines = {
            "memory": MemoryEngine(segment_size=4),
            "logfile": LogFileEngine(log_path, fsync=False, segment_size=4),
            "tiered": MemoryEngine(segment_size=4, tier_manager=TierManager(cache_segments=1)),
        }
        model = []  # every stored element, in tt order
        tt = 0
        for step in steps:
            if step[0] == "close":
                live = [i for i, e in enumerate(model) if e.is_current]
                if not live:
                    continue
                tt += 1
                victim = live[step[1] % len(live)]
                model[victim] = model[victim].closed(Timestamp(tt))
                for engine in engines.values():
                    engine.close_element(model[victim].element_surrogate, Timestamp(tt))
                continue
            stamps = [step[1]] if step[0] == "append" else step[1]
            batch = []
            for stamp in stamps:
                tt += 1
                batch.append(self.element(len(model) + len(batch) + 1, tt, stamp))
            model.extend(batch)
            for engine in engines.values():
                if step[0] == "append":
                    engine.append(batch[0])
                else:
                    engine.extend(batch)
            self.check(engines, model)
        self.check(engines, model)
        for engine in engines.values():
            engine.close()

    @staticmethod
    def check(engines, model):
        current = [e for e in model if e.is_current]
        windows = [
            Interval(Timestamp(3), Timestamp(9)),
            Interval(Timestamp(5), FOREVER),
            Interval(NEGATIVE_INFINITY, Timestamp(7)),
            Interval(NEGATIVE_INFINITY, FOREVER),
        ]
        for name, engine in engines.items():
            for probe in range(0, 19, 3):
                vt = Timestamp(probe)
                assert read(engine, vt) == [e for e in current if e.valid_at(vt)], name
            for window in windows:
                expected = [
                    e
                    for e in current
                    if (
                        e.vt.overlaps(window)
                        if isinstance(e.vt, Interval)
                        else window.contains_point(e.vt)
                    )
                ]
                assert read(engine, window) == expected, (name, window)


def vt_stamps(kind):
    """Event ticks, or ``(start, length, open_ended)`` interval stamps."""
    if kind == "event":
        return st.integers(0, 12)
    return st.tuples(st.integers(0, 12), st.integers(1, 6), st.booleans())


def as_valid_time(stamp):
    if isinstance(stamp, int):
        return Timestamp(stamp)
    start, length, open_ended = stamp
    return Interval(Timestamp(start), FOREVER if open_ended else Timestamp(start + length))


def meets(element, vt) -> bool:
    """Object-level valid-time predicate: a point or a window."""
    if isinstance(vt, Timestamp):
        return element.valid_at(vt)
    if isinstance(element.vt, Interval):
        return element.vt.overlaps(vt)
    return vt.contains_point(element.vt)


class TestSelectBranches:
    """``engine.select(spec)`` picks the view, the vt index or the kernel
    from the spec alone; whichever fires, the answer is a plain filter
    over ``engine.scan()`` in tt order -- and where the view or index
    fires, it is also exactly the kernel's answer."""

    @settings(max_examples=60, deadline=None)
    @given(topologies(), st.sampled_from(["event", "interval"]), st.data())
    def test_every_branch_equals_a_plain_filter(self, topology, kind, data):
        schema = TemporalSchema(name="r", valid_time_kind=ValidTimeKind(kind))
        relation = topology.relation(schema)
        try:
            for _ in range(data.draw(st.integers(1, 8), label="steps")):
                step = data.draw(st.sampled_from(["insert", "bulk", "delete"]))
                live = relation.current()
                # (a delete with nothing live inserts, so something is stored)
                if step == "delete" and live:
                    relation.delete(data.draw(st.sampled_from(live)).element_surrogate)
                elif step == "bulk":
                    stamps = data.draw(st.lists(vt_stamps(kind), min_size=1, max_size=7))
                    relation.append_many([("o", as_valid_time(stamp)) for stamp in stamps])
                else:
                    relation.insert("o", as_valid_time(data.draw(vt_stamps(kind))))
            self.check(relation.engine, data)
        finally:
            topology.close(relation)

    @staticmethod
    def check(engine, data):
        stored = list(engine.scan())
        last_tick = stored[-1].tt_start.microseconds // Timestamp(1).microseconds
        tick = st.integers(-1, last_tick + 2)
        lo, width = data.draw(st.integers(0, 12)), data.draw(st.integers(1, 8))
        valid_times = [None, Timestamp(data.draw(st.integers(0, 14))), as_valid_time((lo, width, False))]
        pins = [None, Timestamp(data.draw(tick, label="as_of"))]
        first, span = data.draw(tick, label="tt_lo"), data.draw(st.integers(0, last_tick + 2))
        windows = [None, (Timestamp(first).microseconds, Timestamp(first + span).microseconds)]
        for vt in valid_times:
            for as_of in pins:
                for window in windows:
                    spec = ScanSpec.of(vt, as_of)
                    if window is not None:
                        spec = spec.narrowed(*window)
                    expected = [
                        element
                        for element in stored
                        if spec.tt_lo <= element.tt_start.microseconds <= spec.tt_hi
                        and (element.is_current if as_of is None else element.stored_during(as_of))
                        and (vt is None or meets(element, vt))
                    ]
                    found, _examined = engine.select(spec)
                    assert found == expected, (spec, vt, as_of)
                    if as_of is None and window is None:  # the view or the index
                        assert found == engine.store.select(spec)[0], spec
