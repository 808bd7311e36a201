"""The element-row body is built in one place, from byte fragments.

:func:`repro.server.protocol.element_rows_body` must be byte-identical
to the reference encoder -- ``Response.json({**envelope, "rows":
elements_to_json(elements)})`` -- whatever mix of memo states the
elements are in.  The memo rule is "armed = held by a store": a row a
``SegmentedStore`` holds (hot or cold) is encoded once and joined after
that; a row no store holds (constructor-built, a copy, a pickle)
costs one row encoder call on every read and retains nothing.
"""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import json
import pickle
import sys
import threading
import time
from typing import Any, Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chronos.clock import LogicalClock
from repro.chronos.granularity import Granularity
from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, NEGATIVE_INFINITY, Timestamp
from repro.relation.element import Element, arm
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.server import ServerConfig, protocol
from repro.server.http import Response
from repro.storage import codec
from repro.storage.memory import MemoryEngine
from tests.server.harness import connected_client, running_server
from tests.strategies import JSON_SAFE_VALUES, TOPOLOGIES, wire_elements

#: Envelope members sorting before ("count", "epoch", "row") and after
#: ("rows_total", "view", "zeta") the "rows" member the builder adds.
ENVELOPES = st.dictionaries(
    st.sampled_from(["count", "epoch", "row", "rows_total", "view", "zeta"]),
    st.one_of(JSON_SAFE_VALUES, st.dictionaries(st.text(max_size=3), JSON_SAFE_VALUES, max_size=3)),
    max_size=4,
)

UNARMED, ARMED, FILLED = range(3)


def reference_body(envelope: Dict[str, Any], elements: List[Element]) -> bytes:
    return Response.json({**envelope, "rows": protocol.elements_to_json(elements)}).body


def row_fragment(element: Element) -> bytes:
    return protocol.canonical_json(protocol.element_to_json(element))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_body_equals_the_reference_encoder_in_every_memo_state(data) -> None:
    elements = _spread(data.draw(wire_elements()))  # engine order
    envelope = data.draw(ENVELOPES)
    states = [data.draw(st.sampled_from([UNARMED, ARMED, FILLED])) for _ in elements]
    for element, state in zip(elements, states):
        if state != UNARMED:
            arm((element,))
        if state == FILLED:
            protocol.element_rows_body({}, [element])
            assert element._wire == row_fragment(element)
    expected = reference_body(envelope, elements)
    # The reference itself is the stdlib encoder's output, not just ours.
    payload = {**envelope, "rows": protocol.elements_to_json(elements)}
    assert expected == json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    # The reference encoder sorts whatever it is given.
    assert protocol.elements_to_json(list(reversed(elements))) == payload["rows"]
    response = Response.json(envelope, rows=elements)
    assert response.body == expected
    assert response.status == 200 and response.headers == {}
    for element, state in zip(elements, states):
        if state == UNARMED:
            assert element._wire is None
        else:
            assert element._wire == row_fragment(element)


#: The orders a result's rows may be in: an engine read's canonical
#: order, and every order the reference encoder sorts back into it.
ARRANGEMENTS = ("canonical", "shuffled", "reversed", "duplicated", "single")


def _spread(elements: List[Element]) -> List[Element]:
    """Copies of *elements* whose transaction times are distinct (the
    canonical rank times 100 added to ``tt_start`` and a closed
    ``tt_stop``), so their canonical order is strictly increasing in
    ``tt_start`` -- the order an engine read arrives in."""
    spread = []
    for rank, element in enumerate(protocol._canonical_order(elements)):
        shift = 100 * rank
        stop = element.tt_stop
        spread.append(
            dataclasses.replace(
                element,
                tt_start=Timestamp(element.tt_start.ticks + shift),
                tt_stop=stop if stop is FOREVER else Timestamp(stop.ticks + shift),
            )
        )
    return spread


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_body_equals_the_reference_encoder_in_any_row_order(data) -> None:
    elements = data.draw(wire_elements())
    if data.draw(st.booleans()):
        elements = _spread(elements)
    canonical = protocol._canonical_order(elements)
    arrangement = data.draw(st.sampled_from(ARRANGEMENTS))
    if arrangement == "canonical":
        rows = canonical
    elif arrangement == "shuffled":
        rows = data.draw(st.permutations(canonical))
    elif arrangement == "reversed":
        rows = canonical[::-1]
    elif arrangement == "duplicated":
        extra = data.draw(st.lists(st.sampled_from(canonical), max_size=4)) if canonical else []
        rows = data.draw(st.permutations(canonical + extra))
    else:
        rows = canonical[:1]
    key = data.draw(st.sampled_from(["rows", "elements"]))
    # "count" sorts before both keys, "view" after both, "epoch" between.
    envelope = data.draw(
        st.dictionaries(st.sampled_from(["count", "epoch", "view"]), JSON_SAFE_VALUES, max_size=3)
    )
    fill = data.draw(st.booleans())
    memo_states = st.sampled_from([UNARMED, ARMED, FILLED])
    states = {id(element): data.draw(memo_states) for element in canonical}
    for element in canonical:
        if states[id(element)] != UNARMED:
            arm((element,))
        if states[id(element)] == FILLED:
            protocol.element_rows_body({}, [element])
    rank = {id(element): position for position, element in enumerate(canonical)}
    ordered = sorted(rows, key=lambda element: rank[id(element)])  # as an engine reads them

    def encoded(wire_rows: List[Dict[str, Any]]) -> bytes:
        payload = {**envelope, key: wire_rows}
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()

    expected = encoded([protocol.element_to_json(element) for element in ordered])
    # The reference encoder sorts any arrangement; the body builder joins
    # rows in the engine order it is given.
    assert encoded(protocol.elements_to_json(rows)) == expected
    assert protocol.element_rows_body(envelope, ordered, key=key, fill=fill) == expected
    served = {id(element) for element in rows}
    for element in canonical:
        state = states[id(element)]
        if state == UNARMED:
            assert element._wire is None
        elif state == ARMED and not (fill and id(element) in served):
            assert element._wire == b""
        else:
            assert element._wire == row_fragment(element)


class _CountingSort:
    """Counts sorts into canonical order (the reference encoder's)."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        original = protocol._canonical_order

        def counting(elements):
            self.calls += 1
            return original(elements)

        monkeypatch.setattr(protocol, "_canonical_order", counting)


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=repr)
def test_engine_reads_and_acks_are_joined_without_a_sort(topology, monkeypatch) -> None:
    schema = TemporalSchema(name="ordered", time_varying=("reading",))
    relation = topology.relation(schema, clock=LogicalClock(start=1_000))
    relation.append_many(
        [(f"sensor-{i % 8}", Timestamp(i % 5), {"reading": i / 4}) for i in range(40)]
    )
    stored = relation.as_of(FOREVER)
    pin = relation.pin_epoch().as_of.microseconds
    for victim in stored[1::7]:  # closes in cold (patched) and hot segments
        relation.delete(victim.element_surrogate)
    second = Timestamp(1).microseconds
    bulk = [["s", i * second, {"reading": i}] for i in range(6)]
    sort = _CountingSort(monkeypatch)
    bodies: List[bytes] = []

    async def scenario() -> None:
        async with running_server(ServerConfig(port=0, metrics=False), [relation]) as server:
            async with connected_client(server) as client:
                for response in (
                    await client.current("ordered"),
                    await client.timeslice("ordered", 2 * second),
                    await client.overlap("ordered", second, 4 * second),
                    await client.rollback("ordered", pin),
                    await client.query("SELECT * FROM ordered VALID OVERLAPS [1s, 4s)"),
                    await client.query(f"SELECT * FROM ordered AS OF {pin}us"),
                    await client.bulk("ordered", bulk),
                ):
                    assert response.status == 200, response.body
                    bodies.append(response.body)

    try:
        asyncio.run(scenario())
        counts = [json.loads(body)["count"] for body in bodies]
        assert min(counts) >= 2 and counts[3] == 40, counts
        assert sort.calls == 0
        for body in bodies:  # engine order is the wire's: tt_start strictly increases
            decoded = json.loads(body)
            stamps = [row["tt_start"] for row in decoded.get("rows", decoded.get("elements"))]
            assert len(stamps) == decoded["count"]
            assert all(earlier < later for earlier, later in zip(stamps, stamps[1:])), stamps
    finally:
        topology.close(relation)


def _element(surrogate: int) -> Element:
    return Element(
        element_surrogate=surrogate,
        object_surrogate=f"sensor-{surrogate % 8}",
        tt_start=Timestamp(surrogate),
        vt=Timestamp(surrogate - 1),
        time_varying={"reading": surrogate / 4},
    )


#: Strings the escaper must spell: quotes, backslashes, control and
#: non-ASCII characters (surrogate halves included).
AWKWARD_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(
        ['"', "\\", "\x00\x1f\x7f", "tab\tline\n", "caf\u00e9", "\u2028", "\ud800", "\U0001f321"]
    ),
)
MICRO = Granularity.MICROSECOND
STAMPS = st.builds(
    Timestamp,
    st.integers(min_value=-(2**61), max_value=2**61),
    st.sampled_from([MICRO, Granularity.MILLISECOND]),
)
ATTRIBUTE_VALUES = st.recursive(
    st.one_of(
        st.floats(),  # nan, +-inf and -0.0 included
        st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
        st.integers(min_value=-(2**80), max_value=2**80),
        st.booleans(),
        st.none(),
        AWKWARD_TEXT,
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(AWKWARD_TEXT, inner, max_size=3)
    ),
    max_leaves=6,
)


@st.composite
def any_elements(draw) -> Element:
    """One element of any shape the codec may be asked to spell."""
    if draw(st.booleans()):
        vt: Any = draw(STAMPS)
    else:
        start = draw(st.one_of(st.just(NEGATIVE_INFINITY), STAMPS))
        end = draw(st.one_of(st.just(FOREVER), STAMPS))
        vt = Interval(start, end) if start < end else Interval(start, FOREVER)
    tt_start = draw(STAMPS)
    closed = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=2**20)))
    maps = st.dictionaries(AWKWARD_TEXT, ATTRIBUTE_VALUES, max_size=3)
    return Element(
        element_surrogate=draw(st.integers(min_value=0, max_value=2**70)),
        object_surrogate=draw(
            st.one_of(
                AWKWARD_TEXT,
                st.integers(min_value=-(2**70), max_value=2**70),
                st.booleans(),
                st.none(),
                st.tuples(st.integers(), AWKWARD_TEXT),
            )
        ),
        tt_start=tt_start,
        vt=vt,
        tt_stop=FOREVER if closed is None else Timestamp(tt_start.microseconds + closed, MICRO),
        time_invariant=draw(maps),
        time_varying=draw(maps),
        user_times=draw(st.dictionaries(AWKWARD_TEXT, STAMPS, max_size=2)),
    )


@settings(deadline=None, max_examples=200)
@given(any_elements())
def test_the_row_template_is_byte_identical_to_the_reference_encoder(element) -> None:
    assert codec.element_fragment(element) == row_fragment(element)


def _relation(engine=None, name: str = "wire") -> TemporalRelation:
    schema = TemporalSchema(name=name, time_varying=("reading",))
    return TemporalRelation(schema, clock=LogicalClock(start=1_000), engine=engine)


def _populate(relation: TemporalRelation, count: int) -> None:
    relation.append_many(
        [(f"sensor-{i % 8}", Timestamp(i), {"reading": i / 4}) for i in range(count)]
    )


class _CountingEncoder:
    """Stands in for the row encoder ``element_fragment`` (the codec's,
    which ``fill_fragment`` calls, and the one protocol re-exports) and
    for ``canonical_json``: records the surrogate of every row encoded
    and counts every ``canonical_json`` call."""

    def __init__(self, monkeypatch) -> None:
        self.encoded: List[int] = []  # surrogates, one per row encode
        self.calls = 0
        fragment, encode = codec.element_fragment, codec.canonical_json

        def counting_fragment(element: Element) -> bytes:
            self.encoded.append(element.element_surrogate)
            return fragment(element)

        def counting_json(payload: Any) -> bytes:
            self.calls += 1
            return encode(payload)

        for module in (protocol, codec):
            monkeypatch.setattr(module, "element_fragment", counting_fragment)
            monkeypatch.setattr(module, "canonical_json", counting_json)

    def reset(self) -> None:
        self.encoded, self.calls = [], 0


def test_a_hot_result_from_a_store_is_encoded_once(monkeypatch) -> None:
    relation = _relation(MemoryEngine())
    _populate(relation, 480)
    rows = relation.as_of(FOREVER)
    assert all(row._wire == b"" for row in rows)  # armed, nothing encoded yet
    envelope = {"count": 480}
    expected = reference_body(envelope, rows)
    encoder = _CountingEncoder(monkeypatch)
    assert protocol.element_rows_body(envelope, rows) == expected
    assert sorted(encoder.encoded) == sorted(row.element_surrogate for row in rows)
    encoder.reset()
    assert protocol.element_rows_body(envelope, relation.as_of(FOREVER)) == expected
    # Only the envelope: the count, the "count" and the "rows" key.
    assert (encoder.encoded, encoder.calls) == ([], 3)
    assert all(row._wire == row_fragment(row) for row in rows)


def test_unarmed_rows_are_one_encoder_call_and_retain_nothing(monkeypatch) -> None:
    relation = _relation(MemoryEngine())
    _populate(relation, 480)
    copies = [copy.copy(row) for row in relation.as_of(FOREVER)]
    envelope = {"count": 480}
    for elements in ([_element(i) for i in range(480)], copies):
        expected = reference_body(envelope, elements)
        encoder = _CountingEncoder(monkeypatch)
        for _ in range(2):
            encoder.reset()
            assert protocol.element_rows_body(envelope, elements) == expected
            # One row encoder call per row, on every read.
            assert sorted(encoder.encoded) == sorted(e.element_surrogate for e in elements)
        assert all(element._wire is None for element in elements)
        monkeypatch.undo()  # the next pass counts afresh


def test_armed_rows_are_encoded_once_and_unarmed_runs_once_per_run(monkeypatch) -> None:
    # Canonical order is surrogate order here: un-armed 0-9, armed
    # 10-14, un-armed 15-17, armed 18-19, un-armed 20-29.
    elements = [_element(i) for i in range(30)]
    armed = [element for element in elements if 10 <= element.element_surrogate < 15]
    armed += [element for element in elements if 18 <= element.element_surrogate < 20]
    arm(armed)
    unarmed = [element.element_surrogate for element in elements if element not in armed]
    envelope = {"count": 30, "epoch": {"tt": 30}}
    expected = reference_body(envelope, elements)
    encoder = _CountingEncoder(monkeypatch)
    assert protocol.element_rows_body(envelope, elements) == expected
    assert encoder.encoded == list(range(30))  # each row once, in canonical order
    encoder.reset()
    assert protocol.element_rows_body(envelope, elements) == expected
    assert encoder.encoded == unarmed  # the filled rows are not encoded again
    assert all((element._wire is not None) == (element in armed) for element in elements)


def test_a_hot_delete_arms_the_closed_row_and_changes_its_body() -> None:
    relation = _relation(MemoryEngine())
    _populate(relation, 24)
    plain = _relation(MemoryEngine())  # read by the reference encoder only
    _populate(plain, 24)
    before = relation.pin_epoch().as_of
    served = relation.as_of(before)
    first = Response.json({}, rows=served).body
    victim = served[3]
    assert victim._wire == row_fragment(victim)
    closed = relation.delete(victim.element_surrogate)
    plain.delete(victim.element_surrogate)
    assert relation.engine.get(victim.element_surrogate) is closed
    assert closed._wire == b""  # armed by store.replace, not yet encoded
    # The rollback to before the delete serves the stored, closed record.
    now = Response.json({}, rows=relation.as_of(before)).body
    assert now != first and now == reference_body({}, plain.as_of(before))
    assert closed._wire == row_fragment(closed) != victim._wire
    for tt in (closed.tt_stop, FOREVER):
        assert Response.json({}, rows=relation.as_of(tt)).body == reference_body(
            {}, plain.as_of(tt)
        )


def test_concurrent_first_encodes_of_one_hot_result_agree() -> None:
    # Reader threads fill the same armed rows at once; every body must
    # still be the reference, and every row end up with its fragment.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            relation = _relation(MemoryEngine())
            _populate(relation, 120)
            rows = relation.as_of(FOREVER)
            expected = reference_body({"count": 120}, rows)
            barrier = threading.Barrier(4, timeout=10)
            bodies: List[bytes] = []

            def encode() -> None:
                barrier.wait()
                bodies.append(Response.json({"count": 120}, rows=rows).body)

            threads = [threading.Thread(target=encode) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert bodies == [expected] * 4
            assert all(row._wire == row_fragment(row) for row in rows)
    finally:
        sys.setswitchinterval(interval)


def test_copies_start_unarmed() -> None:
    relation = _relation(MemoryEngine())
    _populate(relation, 4)
    (stored,) = relation.as_of(FOREVER)[:1]
    protocol.element_rows_body({}, [stored])
    assert stored._wire == row_fragment(stored)
    later = Timestamp(10_000)
    for derived in (
        stored.closed(later),
        dataclasses.replace(stored, tt_stop=later),
        copy.copy(stored),
        copy.deepcopy(stored),
        pickle.loads(pickle.dumps(stored)),
    ):
        assert derived._wire is None
    assert copy.copy(stored) == copy.deepcopy(stored) == stored


def test_attaching_a_relation_encodes_its_current_hot_rows_only(tmp_path) -> None:
    engine = MemoryEngine(segment_size=8, tier_dir=str(tmp_path))
    relation = _relation(engine)
    _populate(relation, 68)
    store = engine.store
    store.compact()
    assert 0 < store.cold_base < len(store)
    closed = relation.delete(relation.as_of(FOREVER)[-1].element_surrogate)
    hot = store.elements_range(store.cold_base, len(store))
    assert closed in hot and all(row._wire == b"" for row in hot)

    async def attach() -> None:
        async with running_server(ServerConfig(port=0, metrics=False), [relation]):
            pass

    asyncio.run(attach())
    assert all(row._wire == row_fragment(row) for row in hot if row is not closed)
    assert closed._wire == b""  # filled by its first (rollback) read
    # Cold rows are not decoded for it: they stay armed, encoded at first read.
    assert all(row._wire == b"" for row in store.elements_range(0, store.cold_base))
    engine.close()


def test_nested_values_are_the_callers_and_a_filled_fragment_keeps_its_bytes() -> None:
    # Stored maps are read-only at the top level only: a list inside one
    # is the caller's object.  Mutating it after storing is unsupported;
    # the row was encoded once and its fragment keeps that encode's bytes.
    relation = _relation(MemoryEngine())
    tags = ["a"]
    (stored,) = relation.append_many([("s", Timestamp(1), {"reading": tags})])
    assert stored.time_varying["reading"] is tags
    first = protocol.element_rows_body({}, [stored])
    tags.append("b")
    assert stored.time_varying == {"reading": ["a", "b"]}
    assert protocol.element_rows_body({}, [stored]) == first


def test_an_empty_result_has_an_empty_rows_member() -> None:
    assert Response.json({"count": 0}, rows=[]).body == b'{"count":0,"rows":[]}'
    assert Response.json({"view": {}, "count": 0}, rows=[]).body == (
        b'{"count":0,"rows":[],"view":{}}'
    )


def test_a_body_joined_while_the_writer_re_arms_its_rows_is_the_reference() -> None:
    # A durable engine re-arms the rows of its previous write while reader
    # threads join bodies of them: a join must use the fragment it
    # encoded, never re-read a slot the writer may have emptied again.
    relation = _relation(MemoryEngine())
    _populate(relation, 64)
    rows = relation.as_of(FOREVER)
    expected = reference_body({"count": 64}, rows)
    stop = threading.Event()
    joined: List[int] = []
    wrong: List[bytes] = []

    def re_arm() -> None:
        while not stop.is_set():
            arm(rows)

    def join_bodies() -> None:
        count = 0
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            body = protocol.element_rows_body({"count": 64}, rows)
            count += 1
            if body != expected:
                wrong.append(body)
        joined.append(count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    writer = threading.Thread(target=re_arm)
    readers = [threading.Thread(target=join_bodies) for _ in range(3)]
    writer.start()
    try:
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=30)
    finally:
        stop.set()
        writer.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not writer.is_alive() and not any(reader.is_alive() for reader in readers)
    assert len(joined) == 3 and min(joined) > 10
    assert wrong == []


def _ack_reference(body: bytes, elements: List[Element]) -> bytes:
    """The write acknowledgement as the reference encoder builds it."""
    epoch = json.loads(body)["epoch"]
    return protocol.canonical_json(
        {"elements": protocol.elements_to_json(elements), "count": len(elements), "epoch": epoch}
    )


def test_write_acks_are_the_reference_encoders_bytes(tmp_path) -> None:
    config = ServerConfig(port=0, data_dir=str(tmp_path), close_engines=True, metrics=False)
    rows = [[f"s{i % 3}", 10**9 + i, {"reading": i / 8, "note": "ü" * (i % 2)}] for i in range(40)]

    async def scenario() -> None:
        async with running_server(config) as server:
            async with connected_client(server) as client:
                for engine in ("memory", "logfile"):
                    spec = {"name": engine, "engine": engine, "time_varying": ["reading", "note"]}
                    assert (await client.create_relation(spec)).status in (200, 201)
                    relation = server.database.relation(engine)
                    bulk = await client.bulk(engine, rows)
                    written = [
                        relation.engine.get(row["surrogate"])
                        for row in json.loads(bulk.body)["elements"]
                    ]
                    assert bulk.body == _ack_reference(bulk.body, written)
                    single = await client.append(engine, "s9", 10**9 + 99, {"reading": 0.5})
                    (stored,) = [
                        relation.engine.get(row["surrogate"])
                        for row in json.loads(single.body)["elements"]
                    ]
                    assert single.body == _ack_reference(single.body, [stored])
                    closed = await client.delete(engine, written[0].element_surrogate)
                    assert closed.body == _ack_reference(
                        closed.body, [relation.engine.get(written[0].element_surrogate)]
                    )
                    # No write's fragments outlive the next write; acks fill nothing.
                    assert all(row._wire == b"" for row in written)
                    held = b"" if engine == "memory" else codec.element_fragment(stored)
                    assert stored._wire == held  # a close re-arms nothing

    asyncio.run(scenario())
