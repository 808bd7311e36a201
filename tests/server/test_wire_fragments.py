"""The element-row body is built in one place, from byte fragments.

:func:`repro.server.protocol.element_rows_body` must be byte-identical
to the reference encoder -- ``Response.json({**envelope, "rows":
elements_to_json(elements)})`` -- whatever mix of memo states the
elements are in.  The memo rule is "armed = held by a store": a row a
``SegmentedStore`` holds (hot or cold) is encoded once and joined after
that; a row no store holds (constructor-built, a copy, a pickle)
costs what the reference costs -- one encoder call per run of them --
and retains nothing.
"""

from __future__ import annotations

import asyncio
import copy
import dataclasses
import json
import pickle
import sys
import threading
from typing import Any, Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chronos.clock import LogicalClock
from repro.chronos.timestamp import FOREVER, Timestamp
from repro.relation.element import Element, arm
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.server import ServerConfig, protocol
from repro.server.http import Response
from repro.storage.memory import MemoryEngine
from tests.server.harness import running_server
from tests.strategies import JSON_SAFE_VALUES, wire_elements

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
    elements = data.draw(wire_elements())
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
    first = Response.json(envelope, rows=elements)
    second = Response.json(envelope, rows=list(reversed(elements)))
    assert first.body == expected
    assert second.body == expected
    assert first.status == 200 and first.headers == {}
    for element, state in zip(elements, states):
        if state == UNARMED:
            assert element._wire is None
        else:
            assert element._wire == row_fragment(element)


def _element(surrogate: int) -> Element:
    return Element(
        element_surrogate=surrogate,
        object_surrogate=f"sensor-{surrogate % 8}",
        tt_start=Timestamp(surrogate),
        vt=Timestamp(surrogate - 1),
        time_varying={"reading": surrogate / 4},
    )


def _relation(engine=None, name: str = "wire") -> TemporalRelation:
    schema = TemporalSchema(name=name, time_varying=("reading",))
    return TemporalRelation(schema, clock=LogicalClock(start=1_000), engine=engine)


def _populate(relation: TemporalRelation, count: int) -> None:
    relation.append_many(
        [(f"sensor-{i % 8}", Timestamp(i), {"reading": i / 4}) for i in range(count)]
    )


class _CountingEncoder:
    """Stands in for ``protocol.canonical_json``: counts every call, and
    tells the ones that encoded rows (a run of them, or one)."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        self.runs: List[int] = []  # rows per multi-row call
        self.singles = 0
        original = protocol.canonical_json

        def counting(payload: Any) -> bytes:
            self.calls += 1
            if isinstance(payload, list):
                self.runs.append(len(payload))
            elif isinstance(payload, dict) and "surrogate" in payload:
                self.singles += 1
            elif isinstance(payload, dict) and isinstance(payload.get("rows"), list):
                self.runs.append(len(payload["rows"]))  # envelope and rows at once
            return original(payload)

        monkeypatch.setattr(protocol, "canonical_json", counting)

    def reset(self) -> None:
        self.calls, self.runs, self.singles = 0, [], 0


def test_a_hot_result_from_a_store_is_encoded_once(monkeypatch) -> None:
    relation = _relation(MemoryEngine())
    _populate(relation, 480)
    rows = relation.as_of(FOREVER)
    assert all(row._wire == b"" for row in rows)  # armed, nothing encoded yet
    envelope = {"count": 480}
    expected = reference_body(envelope, rows)
    encoder = _CountingEncoder(monkeypatch)
    assert protocol.element_rows_body(envelope, rows) == expected
    assert (encoder.runs, encoder.singles) == ([], 480)
    encoder.reset()
    assert protocol.element_rows_body(envelope, relation.as_of(FOREVER)) == expected
    # Only the envelope: the count, the "count" and the "rows" key.
    assert (encoder.runs, encoder.singles, encoder.calls) == ([], 0, 3)
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
            # One call in all, envelope included: what the reference costs.
            assert (encoder.calls, encoder.runs, encoder.singles) == (1, [480], 0)
        assert all(element._wire is None for element in elements)
        monkeypatch.undo()  # the next pass counts afresh


def test_armed_rows_are_encoded_once_and_unarmed_runs_once_per_run(monkeypatch) -> None:
    # Canonical order is surrogate order here: un-armed 0-9, armed
    # 10-14, un-armed 15-17, armed 18-19, un-armed 20-29.
    elements = [_element(i) for i in range(30)]
    armed = [element for element in elements if 10 <= element.element_surrogate < 15]
    armed += [element for element in elements if 18 <= element.element_surrogate < 20]
    arm(armed)
    envelope = {"count": 30, "epoch": {"tt": 30}}
    expected = reference_body(envelope, elements)
    encoder = _CountingEncoder(monkeypatch)
    assert protocol.element_rows_body(envelope, elements) == expected
    assert (encoder.runs, encoder.singles) == ([10, 3, 10], len(armed))
    encoder.reset()
    assert protocol.element_rows_body(envelope, elements) == expected
    assert (encoder.runs, encoder.singles) == ([10, 3, 10], 0)
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
