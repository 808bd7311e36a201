"""One encoding per written row: the log's insert record carries the
row's canonical wire fragment (``repro.storage.codec``).

Logs in ``tests/storage/data`` were written by the release whose log
writer encoded each insert record as its own dict (``json.dumps``,
element without ``tt_stop``), together with the state they hold; they
must still open, replay to that state, and take new records.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest
from hypothesis import assume, given, settings

from repro.chronos.timestamp import Timestamp
from repro.relation.element import Element
from repro.server import protocol
from repro.storage import codec, wal
from repro.storage.backlog import Backlog
from repro.storage.logfile import LogFileEngine, dump_backlog, load_backlog, read_log_batches
from tests.strategies import wire_elements

DATA = os.path.join(os.path.dirname(__file__), "data")

with open(os.path.join(DATA, "legacy_state.json"), encoding="utf-8") as _handle:
    LEGACY_STATE = json.load(_handle)


def state(engine):
    return json.loads(codec.canonical_json(protocol.elements_to_json(list(engine.scan()))))


@pytest.mark.parametrize(
    "name, relation",
    [
        ("legacy_v1.log", "legacy"),
        ("legacy_v0.log", "legacy"),
        ("legacy_export.v1.log", "legacy"),
        ("legacy_intervals.v1.log", "legacy_intervals"),
    ],
)
def test_a_log_written_by_the_dict_encoder_replays_to_its_state(tmp_path, name, relation):
    path = str(tmp_path / name)
    shutil.copy(os.path.join(DATA, name), path)
    engine = LogFileEngine(path)
    assert engine.last_recovery.clean
    assert state(engine) == LEGACY_STATE[relation]
    # New records append in the log's own format and replay beside the old ones.
    (last,) = [e for e in engine.scan() if e.is_current][-1:]
    tt = max(e.tt_start.microseconds for e in engine.scan()) + 10**6
    added = Element(
        element_surrogate=10**6,
        object_surrogate="new",
        tt_start=Timestamp(tt, "microsecond"),
        vt=last.vt,
        time_varying={"k": "v"},
    )
    engine.extend([added])
    engine.close_element(last.element_surrogate, Timestamp(tt + 1, "microsecond"))
    expected = state(engine)
    log_format = engine.log_format
    engine.close()
    reopened = LogFileEngine(path)
    assert reopened.log_format == log_format
    assert state(reopened) == expected
    reopened.close()


def test_an_insert_record_is_the_canonical_record_around_the_fragment():
    element = Element(
        element_surrogate=7,
        object_surrogate="o",
        tt_start=Timestamp(12),
        vt=Timestamp(10),
        time_varying={"reading": 1.5, "note": "ü"},
    )
    fragment = codec.element_fragment(element)
    record = codec.insert_record(7, 12_000_000, fragment)
    assert record == codec.canonical_json(
        {"op": "insert", "tt": 12_000_000, "surrogate": 7, "element": json.loads(fragment)}
    )
    # The fragment's tt_stop is ignored on decode: deletion is its own record.
    decoded = codec.element_from_json(json.loads(record)["element"])
    assert decoded == element and decoded.is_current
    closed = element.closed(Timestamp(20))
    assert codec.element_from_json(json.loads(codec.element_fragment(closed))) == element


@settings(deadline=None, max_examples=60)
@given(wire_elements())
def test_written_rows_are_framed_with_their_ack_fragments(tmp_path_factory, elements):
    path = str(tmp_path_factory.mktemp("log") / "rows.log")
    engine = LogFileEngine(path)
    assume(elements)
    rows = sorted(elements, key=lambda e: e.tt_start)
    stamped = [
        Element(
            element_surrogate=e.element_surrogate,
            object_surrogate=e.object_surrogate,
            tt_start=Timestamp(i + 1, "microsecond"),
            vt=e.vt,
            time_invariant=e.time_invariant,
            time_varying=e.time_varying,
            user_times=e.user_times,
        )
        for i, e in enumerate(rows)
    ]
    engine.extend(stamped)
    engine.close()
    with open(path, "rb") as handle:
        (batch,) = wal.scan_wal(handle.read()).batches
    assert [record["element"] for record in batch] == [
        json.loads(codec.element_fragment(e)) for e in stamped
    ]
    assert all(e._wire == codec.element_fragment(e) for e in stamped)


def test_a_write_keeps_its_fragments_until_the_next_write(tmp_path):
    engine = LogFileEngine(str(tmp_path / "held.log"))

    def rows(first, count):
        return [
            Element(
                element_surrogate=first + i,
                object_surrogate="o",
                tt_start=Timestamp(first + i),
                vt=Timestamp(i),
            )
            for i in range(count)
        ]

    first, second = rows(1, 3), rows(10, 2)
    engine.extend(first)
    assert all(e._wire == codec.element_fragment(e) for e in first)
    engine.extend(second)
    assert all(e._wire == b"" for e in first)  # re-armed: a read fills them for good
    assert all(e._wire == codec.element_fragment(e) for e in second)
    (single,) = rows(20, 1)
    engine.append(single)
    assert all(e._wire == b"" for e in second)
    assert single._wire == codec.element_fragment(single)
    engine.close_element(single.element_surrogate, Timestamp(30))
    assert single._wire == codec.element_fragment(single)  # a close writes no fragment
    engine.close()


def test_exports_and_large_batches_splice_the_fragment(tmp_path, monkeypatch):
    backlog = Backlog()
    elements = [
        Element(element_surrogate=i, object_surrogate="o", tt_start=Timestamp(i), vt=Timestamp(0))
        for i in range(1, 4)
    ]
    for element in elements:
        backlog.record_insert(element)
    backlog.record_delete(2, Timestamp(9))
    for log_format in ("v0", "v1"):
        path = str(tmp_path / f"export.{log_format}")
        dump_backlog(backlog, path, format=log_format)
        with open(path, "rb") as handle:
            data = handle.read()
        for element in elements:
            assert codec.element_fragment(element) in data
        assert load_backlog(path).current_state() == backlog.current_state()
    # A batch beyond one frame's bound: one spliced frame per record, then the marker.
    monkeypatch.setattr(wal, "MAX_RECORD_BYTES", 400)
    engine = LogFileEngine(str(tmp_path / "large.log"))
    engine.extend(elements)
    engine.close()
    (batch,) = list(read_log_batches(engine.path))
    assert [operation.element_surrogate for operation in batch] == [1, 2, 3]


def test_an_armed_row_framed_by_the_engine_is_not_encoded_again(tmp_path, monkeypatch):
    engine = LogFileEngine(str(tmp_path / "once.log"))
    row = Element(element_surrogate=1, object_surrogate="o", tt_start=Timestamp(1), vt=Timestamp(0))
    engine.extend([row])
    calls = []
    original = codec.canonical_json
    monkeypatch.setattr(codec, "canonical_json", lambda p: calls.append(p) or original(p))
    monkeypatch.setattr(protocol, "canonical_json", lambda p: calls.append(p) or original(p))
    body = protocol.element_rows_body({}, [row], key="elements", fill=False)
    assert body == original({"elements": protocol.elements_to_json([row])})
    assert not any(isinstance(p, dict) and "surrogate" in p for p in calls)
    engine.close()
