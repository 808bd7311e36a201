"""Every read runs on the event loop's thread.

The four pinned routes (``current``, ``timeslice``, ``overlap``,
``rollback``) evaluate inline at their pin: no executor hop, no reader
thread, and no thread started by a read.  A client stalled mid-request
therefore costs the loop nothing but an idle stream: another connection's
writes and reads still complete beside it.
"""

from __future__ import annotations

import asyncio
import threading
from typing import List, Tuple

import pytest

from repro.relation.temporal_relation import TemporalRelation
from repro.server import ServerConfig
from tests.server.harness import connected_client, running_server

MICRO = 1_000_000

#: The relation reads the four pinned routes call.
READS = ("as_of", "valid_at", "valid_overlapping")


def test_pinned_routes_read_on_the_loop_thread_and_start_no_thread(monkeypatch) -> None:
    calls: List[Tuple[str, int]] = []
    recording = False

    def spy(name: str):
        original = getattr(TemporalRelation, name)

        def read(self, *args, **kwargs):
            if recording:
                calls.append((name, threading.get_ident()))
            return original(self, *args, **kwargs)

        return read

    for name in READS:
        monkeypatch.setattr(TemporalRelation, name, spy(name))

    async def scenario() -> None:
        nonlocal recording
        loop_thread = threading.get_ident()
        # Every read evaluates: the response cache would serve repeats.
        async with running_server(ServerConfig(port=0, cache_entries=0)) as server:
            async with connected_client(server) as client:
                await client.create_relation({"name": "r", "time_varying": ["v"]})
                first = await client.bulk("r", [["a", 5 * MICRO, {"v": 1}]])
                pin = first.json()["epoch"]["tt"]
                await client.bulk("r", [["b", 5 * MICRO, {"v": 2}], ["c", 9 * MICRO, {"v": 3}]])
                threads_before = threading.active_count()
                recording = True
                responses = [
                    await client.current("r"),
                    await client.timeslice("r", 5 * MICRO),
                    await client.overlap("r", 4 * MICRO, 6 * MICRO),
                    await client.rollback("r", pin),
                ]
                recording = False
                threads_after = threading.active_count()
        assert [response.status for response in responses] == [200, 200, 200, 200]
        assert [response.json()["count"] for response in responses] == [3, 2, 2, 1]
        assert sorted(name for name, _ in calls) == [
            "as_of",
            "as_of",
            "valid_at",
            "valid_overlapping",
        ]
        assert {ident for _, ident in calls} == {loop_thread}
        assert threads_after <= threads_before

    asyncio.run(scenario())


def test_a_stalled_client_does_not_hold_up_another_connection() -> None:
    async def scenario() -> None:
        async with running_server(ServerConfig(port=0, cache_entries=0)) as server:
            stalled_reader, stalled_writer = await asyncio.open_connection(
                server.config.host, server.port
            )
            try:
                # Half a request head, then nothing.
                stalled_writer.write(b"GET /health HTTP/1.1\r\nHost: stalled\r\n")
                await stalled_writer.drain()
                async with connected_client(server) as client:
                    await client.create_relation({"name": "r", "time_varying": ["v"]})
                    bulk = await asyncio.wait_for(
                        client.bulk("r", [["a", 5 * MICRO, {"v": 1}]], wait=True), timeout=5
                    )
                    sliced = await asyncio.wait_for(client.timeslice("r", 5 * MICRO), timeout=5)
                assert bulk.status == 200, bulk.body
                assert sliced.status == 200, sliced.body
                assert sliced.json()["count"] == 1
                # The stalled connection is still open: no answer, no EOF.
                assert not stalled_writer.is_closing()
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(stalled_reader.read(1), timeout=0.05)
                # ... and finishing its head gets it served.
                stalled_writer.write(b"\r\n")
                await stalled_writer.drain()
                head = await asyncio.wait_for(stalled_reader.readuntil(b"\r\n\r\n"), timeout=5)
                assert head.startswith(b"HTTP/1.1 200")
            finally:
                stalled_writer.close()
                await stalled_writer.wait_closed()

    asyncio.run(scenario())


def test_server_config_has_no_reader_pool_width() -> None:
    with pytest.raises(TypeError):
        ServerConfig(reader_threads=4)  # type: ignore[call-arg]
