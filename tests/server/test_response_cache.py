"""The server's epoch-keyed response cache.

Pinned reads over an unchanged relation must answer from the cache
(``X-Repro-Cache: hit``) with a byte-identical body; any write rolls
the pin and forces a recompute.  The cache is on by default, sized by
``ServerConfig.cache_entries``, and killed entirely by
``cache_entries=0``.
"""

from __future__ import annotations

import asyncio

from repro.server import ServerConfig
from tests.server.harness import connected_client, running_server

MICRO = 1_000_000  # one second-granularity tick on the wire


async def _seeded(client, name="readings", rows=4):
    await client.create_relation(
        {"name": name, "kind": "event", "time_varying": ["reading"]}
    )
    for i in range(rows):
        await client.append(name, f"obj-{i}", (i + 1) * MICRO, {"reading": i})


def test_miss_then_hit_with_identical_body() -> None:
    async def scenario() -> None:
        async with running_server() as server:
            async with connected_client(server) as client:
                await _seeded(client)
                first = await client.timeslice("readings", vt=2 * MICRO)
                assert first.status == 200
                assert first.cache_status == "miss"
                second = await client.timeslice("readings", vt=2 * MICRO)
                assert second.cache_status == "hit"
                assert second.body == first.body

    asyncio.run(scenario())


def test_every_pinned_get_endpoint_caches() -> None:
    async def scenario() -> None:
        async with running_server() as server:
            async with connected_client(server) as client:
                await _seeded(client)
                reads = (
                    lambda: client.current("readings"),
                    lambda: client.timeslice("readings", vt=3 * MICRO),
                    # An as_of beyond the pin clamps to it and shares the
                    # default-as_of entry, so probe one *before* the pin.
                    lambda: client.timeslice("readings", vt=3 * MICRO, as_of=MICRO),
                    lambda: client.request(
                        "GET",
                        "/relations/readings/overlap"
                        f"?start={MICRO}&end={3 * MICRO}",
                    ),
                    lambda: client.request(
                        "GET", f"/relations/readings/rollback?tt={10 * MICRO}"
                    ),
                )
                for read in reads:
                    first = await read()
                    assert first.status == 200
                    assert first.cache_status == "miss"
                    second = await read()
                    assert second.cache_status == "hit"
                    assert second.body == first.body

    asyncio.run(scenario())


def test_distinct_parameters_never_share_entries() -> None:
    async def scenario() -> None:
        async with running_server() as server:
            async with connected_client(server) as client:
                await _seeded(client)
                at_two = await client.timeslice("readings", vt=2 * MICRO)
                at_three = await client.timeslice("readings", vt=3 * MICRO)
                assert at_three.cache_status == "miss"
                assert at_three.body != at_two.body

    asyncio.run(scenario())


def test_write_rolls_the_pin_and_recomputes() -> None:
    async def scenario() -> None:
        async with running_server() as server:
            async with connected_client(server) as client:
                await _seeded(client)
                before = await client.timeslice("readings", vt=2 * MICRO)
                assert (await client.timeslice("readings", vt=2 * MICRO)).cache_status == "hit"

                await client.append("readings", "late", 2 * MICRO, {"reading": 99})
                after = await client.timeslice("readings", vt=2 * MICRO)
                assert after.cache_status == "miss"
                assert after.json()["count"] == before.json()["count"] + 1
                assert (await client.timeslice("readings", vt=2 * MICRO)).cache_status == "hit"

    asyncio.run(scenario())


def test_query_endpoint_caches_per_statement() -> None:
    async def scenario() -> None:
        async with running_server() as server:
            async with connected_client(server) as client:
                await _seeded(client)
                statement = "SELECT * FROM readings VALID AT 2"
                first = await client.query(statement)
                assert first.status == 200
                assert first.cache_status == "miss"
                second = await client.query(statement)
                assert second.cache_status == "hit"
                assert second.body == first.body

                await client.append("readings", "late", 2 * MICRO, {"reading": 7})
                third = await client.query(statement)
                assert third.cache_status == "miss"
                assert third.json()["count"] == first.json()["count"] + 1

    asyncio.run(scenario())


def test_tiny_cache_evicts_but_stays_correct() -> None:
    async def scenario() -> None:
        config = ServerConfig(port=0, cache_entries=2)
        async with running_server(config) as server:
            async with connected_client(server) as client:
                await _seeded(client)
                bodies = {}
                for tick in (1, 2, 3, 4):
                    bodies[tick] = (
                        await client.timeslice("readings", vt=tick * MICRO)
                    ).body
                # Only two entries fit; the early ticks were evicted and
                # recompute on return -- to the same bytes.
                evicted = await client.timeslice("readings", vt=1 * MICRO)
                assert evicted.cache_status == "miss"
                assert evicted.body == bodies[1]
                hot = await client.timeslice("readings", vt=1 * MICRO)
                assert hot.cache_status == "hit"

    asyncio.run(scenario())


def test_cache_entries_zero_disables_the_header() -> None:
    async def scenario() -> None:
        config = ServerConfig(port=0, cache_entries=0)
        async with running_server(config) as server:
            async with connected_client(server) as client:
                await _seeded(client)
                for _ in range(2):
                    response = await client.timeslice("readings", vt=2 * MICRO)
                    assert response.status == 200
                    assert response.cache_status is None

    asyncio.run(scenario())


def test_error_responses_are_never_cached() -> None:
    async def scenario() -> None:
        async with running_server() as server:
            async with connected_client(server) as client:
                await _seeded(client)
                for _ in range(2):
                    response = await client.request(
                        "GET", "/relations/readings/timeslice?vt=bogus"
                    )
                    assert response.status == 400
                    assert response.cache_status != "hit"

    asyncio.run(scenario())
