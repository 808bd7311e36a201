"""Pinned reads stay lock-free beside a live writer.

``GET .../timeslice``, ``.../overlap``, ``.../current`` and
``.../rollback`` run inline on the event loop as scan specs pinned at
the published epoch (or at an earlier committed one) -- bisect, zone
maps, the column kernel and its cached sorted projections -- between the
writer task's commits, which append, close, seal segments and demote
them to the cold tier.  One
writer and four reader connections over real sockets; afterwards every
response must equal the oracle's state at the epoch it reports, and
neither side may have answered a 500 (an ``IndexError`` from a torn
``(columns, base)`` pair, "dictionary changed size during iteration"
from the projection cache, a segment skipped while it sealed).
"""

from __future__ import annotations

import asyncio
import sys
from typing import Any, Dict, List, Tuple

import pytest

from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.server import ServerClient, ServerConfig
from repro.storage.memory import MemoryEngine
from tests.server.harness import connected_client, running_server

READERS = 4
BATCHES = 60
BATCH_ROWS = 10
#: Distinct valid times (wire microseconds), so every probe has matches
#: spread over the whole history.
VT_POOL = [7 * step for step in range(12)]

#: (kind, parameter, epoch, rows)
Observation = Tuple[str, Any, Dict[str, int], List[Dict[str, Any]]]
#: Committed states, by epoch version and by epoch tt.
States = Tuple[Dict[int, List[Dict[str, Any]]], Dict[int, List[Dict[str, Any]]]]


def _ordered(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return sorted(rows, key=lambda row: row["tt_start"])


def _open_at(rows: List[Dict[str, Any]], pin_tt: int) -> List[Dict[str, Any]]:
    """*rows* as the pinned epoch knew them.  A row is the stored record,
    so one deleted since the pin already carries that later stop: it must
    lie past the pin, and is otherwise not part of the pinned state."""
    assert all(row["tt_stop"] > pin_tt for row in rows)
    return [dict(row, tt_stop=None) for row in rows]


async def _writer(client: ServerClient, states: States, done: asyncio.Event) -> None:
    """Bulk-append (sealing and demoting as it goes) and delete one row
    in every third round, recording the live state per committed epoch."""
    live: Dict[int, Dict[str, Any]] = {}

    def commit(epoch: Dict[str, int]) -> None:
        by_version, by_tt = states
        by_version[epoch["version"]] = by_tt[epoch["tt"]] = list(live.values())

    try:
        for round_number in range(BATCHES):
            rows = [
                [f"obj-{round_number}-{i}", VT_POOL[(round_number + i) % len(VT_POOL)], {"v": i}]
                for i in range(BATCH_ROWS)
            ]
            response = await client.bulk("readings", rows)
            assert response.status == 200, response.body
            body = response.json()
            for row in body["elements"]:
                live[row["surrogate"]] = row
            commit(body["epoch"])
            if round_number % 3 == 2:
                victim = min(live)  # the oldest live row: long since cold
                response = await client.delete("readings", victim)
                assert response.status == 200, response.body
                del live[victim]
                commit(response.json()["epoch"])
    finally:
        done.set()


async def _reader(
    client: ServerClient,
    observations: List[Observation],
    states: States,
    done: asyncio.Event,
    index: int,
) -> None:
    reads = 0
    while not done.is_set() or reads < 8:
        vt = VT_POOL[(index * 5 + reads) % len(VT_POOL)]
        shape = (index + reads) % 4
        if shape == 0:
            kind, parameter = "timeslice", vt
            response = await client.timeslice("readings", vt)
        elif shape == 1:
            kind, parameter = "overlap", (vt, vt + 15)
            response = await client.overlap("readings", vt, vt + 15)
        elif shape == 2:
            kind, parameter = "current", None
            response = await client.current("readings")
        else:  # roll back to some committed epoch, often a long-cold one
            committed = list(states[1])
            kind, parameter = "rollback", committed[(index * 7 + reads) % len(committed)]
            response = await client.rollback("readings", parameter)
        assert response.status == 200, response.body
        body = response.json()
        observations.append((kind, parameter, body["epoch"], body["rows"]))
        reads += 1
        await asyncio.sleep(0)


@pytest.mark.parametrize("specializations", [(), ("retroactive",)])
def test_pinned_slices_match_the_oracle_beside_a_live_writer(tmp_path, specializations) -> None:
    """Every pinned route -- the slices, the current state and rollbacks
    -- answers a committed epoch's state while the writer runs."""
    schema = TemporalSchema(
        name="readings", time_varying=("v",), specializations=specializations
    )
    relation = TemporalRelation(
        schema, engine=MemoryEngine(segment_size=8, tier_dir=str(tmp_path / "tier"))
    )
    # The logical clock issues 1 s, 2 s, ...: valid times of a few
    # microseconds are retroactive from the first stamp on.
    states: States = ({}, {})
    expected, at_tt = states
    observations: List[Observation] = []

    async def scenario() -> None:
        # Every read evaluates: the response cache would serve repeats.
        config = ServerConfig(port=0, cache_entries=0)
        async with running_server(config, relations=[relation]) as server:
            pin = server._pins["readings"]
            expected[pin.version] = at_tt[pin.tt_micro] = []
            done = asyncio.Event()
            readers = [ServerClient(server.config.host, server.port) for _ in range(READERS)]
            for client in readers:
                await client.connect()
            try:
                async with connected_client(server) as admin:
                    tasks = [
                        asyncio.ensure_future(_reader(client, observations, states, done, index))
                        for index, client in enumerate(readers)
                    ]
                    await asyncio.wait_for(_writer(admin, states, done), timeout=120)
                    await asyncio.wait_for(asyncio.gather(*tasks), timeout=120)
            finally:
                for client in readers:
                    await client.close()

    interval = sys.getswitchinterval()
    # Hand the GIL over mid-scan, not every 5 ms, should a read ever
    # leave the loop thread again.
    sys.setswitchinterval(1e-5)
    try:
        asyncio.run(scenario())
    finally:
        sys.setswitchinterval(interval)
        relation.engine.close()

    store = relation.engine.store
    assert store.cold_base > 0, "the writer never demoted a segment"
    assert len(observations) >= READERS * 8
    assert {kind for kind, *_rest in observations} == {"timeslice", "overlap", "current", "rollback"}
    for kind, parameter, epoch, rows in observations:
        version = epoch["version"]
        assert version in expected, f"{kind} served epoch {version}, which nothing committed"
        pin_tt = epoch["tt"]
        if kind == "timeslice":
            reference = [row for row in expected[version] if row["vt"] == parameter]
        elif kind == "overlap":
            start, end = parameter
            reference = [row for row in expected[version] if start <= row["vt"] < end]
        elif kind == "current":
            reference = expected[version]
        else:
            reference, pin_tt = at_tt[parameter], parameter
        assert _open_at(rows, pin_tt) == _open_at(_ordered(reference), pin_tt), (
            f"{kind}({parameter!r}) at epoch {version} is not that epoch's state"
        )
