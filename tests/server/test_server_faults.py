"""Satellite 3: fault injection through the HTTP surface.

The WAL fault-injection harness (``tests/faults.py``) armed the
engine's file handle directly; here the same faults fire *underneath a
running server* and the claims move up a layer:

* a torn WAL write mid-bulk answers 500, commits nothing, and the
  engine repairs its tail in-process -- the very next ingest succeeds;
* a restart over the damaged (or crash-dirtied) log serves exactly the
  committed prefix, with fresh transaction times strictly after every
  adopted stamp (so the restart's epoch pin covers the recovered data);
* a torn *connection* -- a client dying mid-request -- never wedges
  the writer queue or the accept loop.
"""

from __future__ import annotations

import asyncio
import gc
import os

from repro.server import ServerConfig
from repro.storage.logfile import LogFileEngine
from tests.faults import arm, disarm
from tests.server.harness import connected_client, running_server

MICRO = 1_000_000

RELATION_SPEC = {
    "name": "r",
    "time_varying": ["v"],
    "engine": "logfile",
}


def _config(tmp_path) -> ServerConfig:
    return ServerConfig(port=0, data_dir=str(tmp_path), close_engines=True)


def test_torn_wal_write_mid_bulk_is_atomic_and_repaired(tmp_path) -> None:
    async def scenario() -> None:
        async with running_server(_config(tmp_path)) as server:
            async with connected_client(server) as client:
                assert (await client.create_relation(RELATION_SPEC)).status == 200
                first = await client.bulk("r", [["a", 0, {"v": 1}], ["b", MICRO, {"v": 2}]])
                assert first.status == 200

                engine = server.database.relation("r").engine
                wrapper = arm(engine, kind="torn")

                torn = await client.bulk("r", [["c", 2 * MICRO, {"v": 3}]])
                assert torn.status == 500, torn.body
                assert wrapper.faults_fired == 1

                # Nothing from the torn batch is visible; the epoch never
                # advanced past the first commit.
                state = await client.current("r")
                assert state.json()["count"] == 2
                assert state.json()["epoch"]["version"] == 1

                # The tail repair already reopened the file: ingest works
                # again without operator intervention.
                healed = await client.bulk("r", [["d", 3 * MICRO, {"v": 4}]])
                assert healed.status == 200, healed.body
                final = await client.current("r")
                assert final.json()["count"] == 3
                return final.json()["rows"]

    async def restart() -> None:
        async with running_server(_config(tmp_path)) as server:
            async with connected_client(server) as client:
                assert (await client.create_relation(RELATION_SPEC)).status == 200
                engine = server.database.relation("r").engine
                # The log is clean: the torn record was truncated by the
                # in-process repair, not left for restart recovery.
                assert engine.last_recovery is not None
                assert engine.last_recovery.clean

                state = await client.current("r")
                assert state.json()["count"] == 3
                assert [row["object"] for row in state.json()["rows"]] == ["a", "b", "d"]

                # Fresh stamps land strictly after the adopted ones.
                adopted_high = max(row["tt_start"] for row in state.json()["rows"])
                appended = await client.bulk("r", [["e", 4 * MICRO, {"v": 5}]])
                assert appended.status == 200
                assert appended.json()["elements"][0]["tt_start"] > adopted_high

    asyncio.run(scenario())
    asyncio.run(restart())


def test_fsync_fault_mid_bulk_commits_nothing(tmp_path) -> None:
    """An unacknowledged durability barrier rejects the whole batch."""

    async def scenario() -> None:
        async with running_server(_config(tmp_path)) as server:
            async with connected_client(server) as client:
                assert (await client.create_relation(RELATION_SPEC)).status == 200
                assert (await client.bulk("r", [["a", 0, {"v": 1}]])).status == 200

                engine = server.database.relation("r").engine
                # The batch write succeeds (operation 0); its fsync
                # (operation 1) fails.
                arm(engine, fail_at=1, kind="fsync")

                failed = await client.bulk("r", [["b", MICRO, {"v": 2}]])
                assert failed.status == 500
                state = await client.current("r")
                assert state.json()["count"] == 1

                retried = await client.bulk("r", [["b", MICRO, {"v": 2}]])
                assert retried.status == 200
                assert (await client.current("r")).json()["count"] == 2

    asyncio.run(scenario())


def test_crash_dirty_tail_truncated_on_restart(tmp_path) -> None:
    """A server that died mid-write leaves a torn frame on disk; the
    restarted server recovers the committed prefix and reports it."""

    async def populate() -> None:
        async with running_server(_config(tmp_path)) as server:
            async with connected_client(server) as client:
                assert (await client.create_relation(RELATION_SPEC)).status == 200
                assert (
                    await client.bulk("r", [["a", 0, {"v": 1}], ["b", MICRO, {"v": 2}]])
                ).status == 200

    async def restart() -> None:
        async with running_server(_config(tmp_path)) as server:
            async with connected_client(server) as client:
                assert (await client.create_relation(RELATION_SPEC)).status == 200
                engine = server.database.relation("r").engine
                report = engine.last_recovery
                assert report is not None and not report.clean

                state = await client.current("r")
                assert state.json()["count"] == 2
                assert sorted(row["object"] for row in state.json()["rows"]) == ["a", "b"]

                # And the recovered store accepts writes.
                assert (await client.bulk("r", [["c", 2 * MICRO, {"v": 3}]])).status == 200
                assert (await client.current("r")).json()["count"] == 3

    asyncio.run(populate())
    # Simulate the crash: a frame that only partially reached the disk.
    path = os.path.join(str(tmp_path), "r.logfile")
    with open(path, "ab") as handle:
        handle.write(b"\x00\x17half a frame, no checks")
    asyncio.run(restart())


def test_torn_connection_does_not_wedge_the_writer(tmp_path) -> None:
    """Clients dying mid-request (mid-headers or mid-body) must leave
    the accept loop and the writer queue fully serviceable."""

    async def scenario() -> None:
        async with running_server(_config(tmp_path)) as server:
            async with connected_client(server) as client:
                assert (await client.create_relation(RELATION_SPEC)).status == 200

                host, port = server.config.host, server.port

                # Die mid-headers.
                _, writer = await asyncio.open_connection(host, port)
                writer.write(b"POST /relations/r/bulk HTTP/1.1\r\nContent-")
                await writer.drain()
                writer.close()

                # Die mid-body: promise 4096 bytes, send 10, hang up.
                _, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"POST /relations/r/bulk HTTP/1.1\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: 4096\r\n\r\n"
                    b'{"rows": ['
                )
                await writer.drain()
                writer.close()

                await asyncio.sleep(0)  # let the server observe both EOFs

                # The writer still ingests and reads still serve.
                for round_number in range(3):
                    response = await client.bulk(
                        "r", [["a", round_number * MICRO, {"v": round_number}]]
                    )
                    assert response.status == 200, response.body
                assert (await client.current("r")).json()["count"] == 3
                assert (await client.health()).status == 200

    asyncio.run(scenario())


def test_arm_disarm_roundtrip(tmp_path) -> None:
    """``disarm`` removes an un-fired fault plan and restores the bare
    handle; firing faults disarm themselves via the tail repair."""
    engine = LogFileEngine(str(tmp_path / "plain.log"))
    try:
        wrapper = arm(engine, fail_at=99, kind="torn")
        assert engine._handle is wrapper
        assert disarm(engine) is True
        assert disarm(engine) is False  # already bare
        assert wrapper.faults_fired == 0

        armed = arm(engine, kind="torn")
        from repro.chronos.timestamp import Timestamp
        from repro.relation.element import Element

        try:
            engine.append(
                Element(
                    element_surrogate=1,
                    object_surrogate="a",
                    tt_start=Timestamp(0),
                    vt=Timestamp(0),
                )
            )
        except OSError:
            pass
        assert armed.faults_fired == 1
        # The repair replaced the handle: nothing left to disarm.
        assert disarm(engine) is False
    finally:
        engine.close()


def test_a_failed_write_is_freed_without_the_cyclic_collector() -> None:
    # The error a submitter is handed must not carry the traceback of the
    # failed write: its frames hold the _WriteOp, whose future holds the
    # error, so every failed write (and its decoded rows) would wait for
    # a full collection.
    spec = {"name": "r", "time_varying": ["v"], "specializations": ["retroactive"]}

    def pending_ops() -> int:
        return sum(1 for item in gc.get_objects() if type(item).__name__ == "_WriteOp")

    async def scenario() -> None:
        async with running_server() as server:
            async with connected_client(server) as client:
                assert (await client.create_relation(spec)).status == 200
                assert (await client.bulk("r", [["a", 0, {"v": 1}]])).status == 200
                missing = await client.delete("r", 10**6)
                assert missing.status == 404, missing.body
                assert pending_ops() == 0
                future = 10**9 * MICRO  # after every transaction time: not retroactive
                rows = [["b", 0, {"v": 2}], ["c", future, {"v": 3}]]
                violated = await client.bulk("r", rows)
                assert violated.status == 409, violated.body
                assert pending_ops() == 0

    gc.collect()
    gc.disable()
    try:
        asyncio.run(scenario())
    finally:
        gc.enable()
