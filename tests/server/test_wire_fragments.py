"""The element-row body is built in one place, from byte fragments.

:func:`repro.server.protocol.element_rows_body` must be byte-identical
to the reference encoder -- ``Response.json({**envelope, "rows":
elements_to_json(elements)})`` -- whatever mix of memo states the
elements are in, and must cost what the reference costs on elements
nobody armed: one encoder call per run of them, nothing retained.
"""

from __future__ import annotations

from typing import Any, Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chronos.timestamp import Timestamp
from repro.relation.element import Element
from repro.server import protocol
from repro.server.http import Response
from repro.storage.tiered import _armed
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
            _armed(element)
        if state == FILLED:
            protocol.element_rows_body({}, [element])
            assert element._wire == row_fragment(element)
    expected = reference_body(envelope, elements)
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


def test_a_hot_result_is_one_encoder_call_and_retains_nothing(monkeypatch) -> None:
    elements = [_element(i) for i in range(480)]
    envelope = {"count": 480}
    expected = reference_body(envelope, elements)
    encoder = _CountingEncoder(monkeypatch)
    for _ in range(2):
        encoder.reset()
        assert protocol.element_rows_body(envelope, elements) == expected
        # One call in all, envelope included: what the reference costs.
        assert (encoder.calls, encoder.runs, encoder.singles) == (1, [480], 0)
    assert all("_wire" not in vars(element) for element in elements)


def test_cold_rows_are_encoded_once_and_hot_runs_once_per_run(monkeypatch) -> None:
    # Canonical order is surrogate order here: hot 0-9, cold 10-14,
    # hot 15-17, cold 18-19, hot 20-29.
    elements = [_element(i) for i in range(30)]
    cold = [element for element in elements if 10 <= element.element_surrogate < 15]
    cold += [element for element in elements if 18 <= element.element_surrogate < 20]
    for element in cold:
        _armed(element)
    envelope = {"count": 30, "epoch": {"tt": 30}}
    expected = reference_body(envelope, elements)
    encoder = _CountingEncoder(monkeypatch)
    assert protocol.element_rows_body(envelope, elements) == expected
    assert (encoder.runs, encoder.singles) == ([10, 3, 10], len(cold))
    encoder.reset()
    assert protocol.element_rows_body(envelope, elements) == expected
    assert (encoder.runs, encoder.singles) == ([10, 3, 10], 0)
    assert all(
        ("_wire" in vars(element)) == (element in cold) for element in elements
    )


def test_an_empty_result_has_an_empty_rows_member() -> None:
    assert Response.json({"count": 0}, rows=[]).body == b'{"count":0,"rows":[]}'
    assert Response.json({"view": {}, "count": 0}, rows=[]).body == (
        b'{"count":0,"rows":[],"view":{}}'
    )
