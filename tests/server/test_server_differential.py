"""Satellite 2: the HTTP surface is a faithful shim over the library.

The same operation sequence is replayed two ways -- over HTTP against
a running server, and directly against a :class:`TemporalRelation` --
on each of the two storage engines.  Because both sides start from a
fresh logical clock and surrogate generator and apply identical
operations in identical order, they must produce identical stamps, and
therefore *byte-identical* canonical response payloads.

Three equivalences are asserted:

* server rows == library rows, byte-for-byte, per engine and per read
  (current / timeslice / bitemporal slice / rollback / TQL);
* the canonical payloads agree *across* the two engines;
* ``explain`` picks the same strategy over HTTP as in-process, per
  engine (the planner sees the same declared specializations and the
  same statistics either way).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List

from repro.chronos.timestamp import Timestamp
from repro.query import tql
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.server import ServerConfig
from repro.server.protocol import elements_to_json, rows_to_json
from repro.storage.logfile import LogFileEngine
from repro.storage.memory import MemoryEngine
from tests.server.harness import connected_client, running_server

MICRO = 1_000_000
ENGINES = ("memory", "logfile")

SCHEMA_SPEC = {
    "name": "readings",
    "kind": "event",
    "time_varying": ["reading", "status"],
    "specializations": ["retroactive"],
}

#: The replayed workload: three batches, then a deletion of the first
#: element.  All vts are retroactive-compliant (vt <= tt) because the
#: fresh clock starts ahead of every vt used here.
BATCHES = [
    [["alpha", 0, {"reading": 1, "status": "ok"}]],
    [
        ["beta", 1 * MICRO, {"reading": 2, "status": "ok"}],
        ["alpha", 2 * MICRO, {"reading": 3, "status": None}],
    ],
    [
        ["gamma", 2 * MICRO, {"reading": 4, "status": "hot"}],
        ["beta", 0, {"reading": 5, "status": "ok"}],
    ],
]

TQL = "SELECT reading FROM readings VALID AT 2s"


def _canonical_bytes(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _library_engine(kind: str, tmp_path, tag: str):
    if kind == "memory":
        return MemoryEngine()
    return LogFileEngine(str(tmp_path / f"lib-{tag}.log"))


def _replay_library(kind: str, tmp_path) -> Dict[str, Any]:
    """The workload, straight through the library; canonical payloads."""
    schema = TemporalSchema(
        name="readings",
        time_varying=("reading", "status"),
        specializations=["retroactive"],
    )
    relation = TemporalRelation(schema, engine=_library_engine(kind, tmp_path, kind))
    epochs: List[int] = []
    for batch in BATCHES:
        relation.append_many(
            [
                (obj, Timestamp(vt, "microsecond"), attrs)
                for obj, vt, attrs in batch
            ]
        )
        epochs.append(relation.pin_epoch().tt_micro)
    first = min(e.element_surrogate for e in relation.all_elements())
    relation.delete(first)

    report = relation.explain(TQL, execute=False)
    results = {
        "current": _canonical_bytes(elements_to_json(relation.current())),
        "timeslice": _canonical_bytes(
            elements_to_json(relation.valid_at(Timestamp(2 * MICRO, "microsecond")))
        ),
        "bitemporal": _canonical_bytes(
            elements_to_json(
                relation.valid_at(
                    Timestamp(2 * MICRO, "microsecond"),
                    as_of_tt=Timestamp(epochs[1], "microsecond"),
                )
            )
        ),
        "rollback": _canonical_bytes(
            elements_to_json(relation.as_of(Timestamp(epochs[1], "microsecond")))
        ),
        "tql": _canonical_bytes(rows_to_json(tql.execute(TQL, relation))),
        "strategy": report.strategy,
        "first_surrogate": first,
        "epochs": epochs,
    }
    if hasattr(relation.engine, "close"):
        relation.engine.close()
    return results


async def _replay_server(kind: str, tmp_path) -> Dict[str, Any]:
    """The same workload, over HTTP; canonical payloads."""
    config = ServerConfig(port=0, data_dir=str(tmp_path / f"srv-{kind}"), close_engines=True)
    async with running_server(config) as server:
        async with connected_client(server) as client:
            spec = dict(SCHEMA_SPEC)
            if kind != "memory":
                spec["engine"] = kind
            created = await client.create_relation(spec)
            assert created.status == 200, created.body

            epochs: List[int] = []
            elements: List[Dict[str, Any]] = []
            for batch in BATCHES:
                response = await client.bulk("readings", batch)
                assert response.status == 200, response.body
                epochs.append(response.json()["epoch"]["tt"])
                elements.extend(response.json()["elements"])
            first = min(row["surrogate"] for row in elements)
            deleted = await client.delete("readings", first)
            assert deleted.status == 200, deleted.body

            async def rows_bytes(response) -> bytes:
                assert response.status == 200, response.body
                return _canonical_bytes(response.json()["rows"])

            explained = await client.explain("readings", TQL, execute=False)
            assert explained.status == 200, explained.body
            queried = await client.query(TQL)
            assert queried.status == 200, queried.body
            return {
                "current": await rows_bytes(await client.current("readings")),
                "timeslice": await rows_bytes(
                    await client.timeslice("readings", 2 * MICRO)
                ),
                "bitemporal": await rows_bytes(
                    await client.timeslice("readings", 2 * MICRO, as_of=epochs[1])
                ),
                "rollback": await rows_bytes(
                    await client.rollback("readings", epochs[1])
                ),
                "tql": _canonical_bytes(queried.json()["rows"]),
                "strategy": explained.json()["strategy"],
                "first_surrogate": first,
                "epochs": epochs,
            }


READ_KEYS = ("current", "timeslice", "bitemporal", "rollback", "tql")


def test_http_and_library_agree_per_engine(tmp_path) -> None:
    for kind in ENGINES:
        library = _replay_library(kind, tmp_path)
        server = asyncio.run(_replay_server(kind, tmp_path))
        assert server["epochs"] == library["epochs"], kind
        assert server["first_surrogate"] == library["first_surrogate"], kind
        for key in READ_KEYS:
            assert server[key] == library[key], f"{kind}: {key} diverged"
        assert server["strategy"] == library["strategy"], kind


def test_engines_agree_with_each_other(tmp_path) -> None:
    """The canonical codec hides engine iteration order entirely."""
    payloads = {
        kind: asyncio.run(_replay_server(kind, tmp_path)) for kind in ENGINES
    }
    for key in READ_KEYS:
        assert payloads["logfile"][key] == payloads["memory"][key], f"{key} diverged"


def test_strategies_agree_across_engines(tmp_path) -> None:
    """Strategy selection is engine-independent: both engines plan
    against the same segmented transaction-time index."""
    current_tql = "SELECT reading FROM readings"
    slice_strategies = {}
    current_strategies = {}
    for kind in ENGINES:
        schema = TemporalSchema(
            name="readings",
            time_varying=("reading", "status"),
            specializations=["retroactive"],
        )
        relation = TemporalRelation(
            schema, engine=_library_engine(kind, tmp_path, f"strategy-{kind}")
        )
        relation.append_many(
            [
                (obj, Timestamp(vt, "microsecond"), attrs)
                for batch in BATCHES
                for obj, vt, attrs in batch
            ]
        )
        slice_strategies[kind] = relation.explain(TQL, execute=False).strategy
        current_strategies[kind] = relation.explain(
            current_tql, execute=False
        ).strategy
        if hasattr(relation.engine, "close"):
            relation.engine.close()

    assert current_strategies["memory"] == current_strategies["logfile"], current_strategies
    assert slice_strategies["memory"] == slice_strategies["logfile"], slice_strategies


# -- cold-tier wire fragments vs a memory-engine server -----------------------------
#
# A cold element keeps its canonical JSON fragment once served.  The
# same requests against a memory-engine server (which memoizes nothing)
# must produce the same bodies byte for byte, on every element-row
# route, across a logical delete of a cold row, with the tier's decode
# cache at one segment so fragments are dropped and rebuilt constantly.

HISTORY_TOPOLOGIES = ("memory", "tiered-cache-1")


def _history_relation(topology: str, tmp_path) -> TemporalRelation:
    from repro.chronos.clock import LogicalClock
    from repro.storage.tiered import TierManager

    tier_dir = str(tmp_path / topology)
    if topology == "memory":
        engine = MemoryEngine()
    else:
        engine = MemoryEngine(
            segment_size=4, tier_manager=TierManager(tier_dir, cache_segments=1)
        )
    schema = TemporalSchema(name="history", time_varying=("reading", "status"))
    relation = TemporalRelation(schema, clock=LogicalClock(start=1_000), engine=engine)
    relation.append_many(
        [
            (f"sensor-{i % 5}", Timestamp(i), {"reading": i / 2, "status": "café \"ok\""})
            for i in range(40)
        ]
    )
    if topology != "memory":
        cold = engine.store.compact()["cold"]
        assert cold >= 6, cold
    return relation


async def _history_bodies(topology: str, tmp_path) -> List[bytes]:
    relation = _history_relation(topology, tmp_path)
    stored = sorted(relation.all_elements(), key=lambda e: e.tt_start.microseconds)
    middle = stored[25].tt_start.microseconds
    victim = stored[1].element_surrogate  # in the oldest cold segment
    early = stored[2].tt_start.microseconds  # a rollback of that segment alone
    select_all = "SELECT * FROM history VALID OVERLAPS [0s, 30s)"
    bodies: List[bytes] = []
    config = ServerConfig(port=0, cache_entries=0)
    async with running_server(config, relations=[relation]) as server:
        async with connected_client(server) as client:
            registered = await client.register_view(
                "history", {"name": "standing", "kind": "current"}
            )
            assert registered.status == 200, registered.body

            async def read_everything() -> None:
                for response in (
                    await client.rollback("history", middle),
                    await client.current("history"),
                    await client.timeslice("history", 7 * MICRO),
                    await client.overlap("history", 3 * MICRO, 19 * MICRO),
                    await client.query(select_all),
                    await client.view("history", "standing"),
                ):
                    assert response.status == 200, response.body
                    bodies.append(response.body)

            await read_everything()
            await read_everything()
            # The victim's segment is the one the tier keeps decoded, and
            # the victim has its fragment, when the delete arrives.
            for _ in range(2):
                response = await client.rollback("history", early)
                assert response.status == 200, response.body
                bodies.append(response.body)
            deleted = await client.delete("history", victim)
            assert deleted.status == 200, deleted.body
            bodies.append(deleted.body)
            closed_at = deleted.json()["elements"][0]["tt_stop"]
            await read_everything()
            for tt in (early, closed_at - 1, closed_at):
                response = await client.rollback("history", tt)
                assert response.status == 200, response.body
                bodies.append(response.body)
    close = getattr(relation.engine, "close", None)
    if close is not None:
        close()
    return bodies


def test_cold_fragments_match_a_memory_server_across_a_delete(tmp_path) -> None:
    reference = asyncio.run(_history_bodies("memory", tmp_path))
    # The delete shows in the reads that follow it, not as a stale fragment.
    assert reference[12] == reference[13] != reference[21]
    for topology in HISTORY_TOPOLOGIES[1:]:
        bodies = asyncio.run(_history_bodies(topology, tmp_path))
        assert len(bodies) == len(reference)
        for position, (ours, theirs) in enumerate(zip(bodies, reference)):
            assert ours == theirs, f"{topology}: response {position} diverged"
