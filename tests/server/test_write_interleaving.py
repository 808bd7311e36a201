"""A write is one step: reads interleaved with it see one committed state.

The writer task applies a write and publishes its pin with no ``await``
in between, and every read handler runs on the same event loop.  So a
TQL read, a standing-view snapshot and a subscription poll started while
a write is suspended at any ``await`` of ``TemporalServer._run_write``
must each see exactly one committed state: the state before the write
while it waits at the writer gate, and the state after it once its pin
is published and it waits to notify subscribers.  The test schedules the
interleavings by hand -- it holds the write at each suspension point and
lets the reads run to completion before releasing it -- and calls the
route handlers in-process, so no socket decides the order.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Tuple

import pytest

from repro.chronos.clock import LogicalClock
from repro.chronos.timestamp import Timestamp
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.server.app import TemporalServer
from repro.server.http import Request
from repro.storage.memory import MemoryEngine
from tests.server.harness import running_server

#: A committed state: its live element surrogates and its pin.
State = Tuple[List[int], Dict[str, int]]

#: Yields granted to the tasks between scheduling steps: far more than
#: any handler here needs to reach its next suspension point.
TICKS = 50


def _request(method: str, path: str, payload: Any = None, **query: Any) -> Request:
    body = b"" if payload is None else json.dumps(payload).encode()
    return Request(method, path, {k: str(v) for k, v in query.items()}, {}, body)


def _relation() -> TemporalRelation:
    schema = TemporalSchema(name="r", time_varying=("v",), enforce_key=False)
    relation = TemporalRelation(
        schema, engine=MemoryEngine(), clock=LogicalClock(start=1_000, granularity="microsecond")
    )
    for index in range(3):
        relation.insert(f"o{index}", Timestamp(index), {"v": index})
    return relation


def _state(relation: TemporalRelation) -> List[int]:
    return [element.element_surrogate for element in relation.current()]


async def _settle() -> None:
    for _ in range(TICKS):
        await asyncio.sleep(0)


async def _interleave(
    server: TemporalServer, relation: TemporalRelation, point: str
) -> Tuple[State, State, Dict[str, Any]]:
    """Hold a bulk write at *point*, run the three reads to the end, then
    let the write finish; return the states before and after it and the
    decoded read responses."""
    dispatch = server._dispatch_timed
    registered = await dispatch(
        _request("POST", "/relations/r/views", {"name": "live", "kind": "current"})
    )
    assert registered.status == 200, registered.body
    before = (_state(relation), relation.pin_epoch().to_json())
    since = before[1]["tt"]
    condition = server._delta_condition("r")
    if point == "writer gate":
        server._writer_gate.clear()
    else:  # the subscriber notification: its condition is held
        await condition.acquire()
    rows = [[f"n{index}", 10 + index, {"v": index}] for index in range(2)]
    write = asyncio.ensure_future(dispatch(_request("POST", "/relations/r/bulk", {"rows": rows})))
    await _settle()
    assert not write.done()
    published = _state(relation) != before[0]
    assert published == (point == "subscriber notification")
    reads = {
        "tql": asyncio.ensure_future(
            dispatch(_request("POST", "/query", {"tql": "SELECT * FROM r"}))
        ),
        "view": asyncio.ensure_future(dispatch(_request("GET", "/relations/r/views/live"))),
        "poll": asyncio.ensure_future(
            dispatch(_request("GET", "/relations/r/subscribe", since=since, timeout=0))
        ),
    }
    await _settle()
    if point == "writer gate":
        server._writer_gate.set()
    else:
        condition.release()
    assert (await write).status == 200
    answers = {}
    for name, task in reads.items():
        response = await task
        assert response.status == 200, (name, response.body)
        answers[name] = json.loads(response.body)
    return before, (_state(relation), relation.pin_epoch().to_json()), answers


@pytest.mark.parametrize("point", ["writer gate", "subscriber notification"])
def test_reads_interleaved_with_a_write_see_one_committed_state(point: str) -> None:
    async def scenario() -> None:
        relation = _relation()
        async with running_server(relations=[relation]) as server:
            before, after, answers = await _interleave(server, relation, point)
        seen, pin = after if point == "subscriber notification" else before
        assert len(after[0]) == len(before[0]) + 2
        assert [row["surrogate"] for row in answers["tql"]["rows"]] == seen
        assert [row["surrogate"] for row in answers["view"]["rows"]] == seen
        assert answers["view"]["epoch"] == pin
        inserted = [d["element"]["surrogate"] for d in answers["poll"]["deltas"]]
        assert inserted == [s for s in seen if s not in before[0]]
        assert answers["poll"]["epoch"] == pin

    asyncio.run(scenario())
