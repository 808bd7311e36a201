"""Standing views over HTTP: registration, long-poll delta streams, and
the restart contract.

Satellite 3's claim lives here: a server restarted over a recovered WAL
must never replay deltas it already delivered.  The registry's journal
floor opens at the recovered pin, so a subscriber resuming from its
pre-crash cursor either resumes cleanly (nothing new) or is told to
resync against a fresh snapshot -- but is never handed a duplicate.
"""

from __future__ import annotations

import asyncio

from repro.server import ServerConfig
from tests.server.harness import connected_client, running_server

MICRO = 1_000_000

RELATION_SPEC = {
    "name": "r",
    "time_varying": ["v"],
    "engine": "logfile",
}


def _config(tmp_path) -> ServerConfig:
    return ServerConfig(port=0, data_dir=str(tmp_path), close_engines=True)


def _epochs(body) -> list:
    return [delta["epoch"] for delta in body["deltas"]]


class TestViewEndpoints:
    def test_register_read_and_list_views(self, tmp_path) -> None:
        async def scenario() -> None:
            async with running_server(_config(tmp_path)) as server:
                async with connected_client(server) as client:
                    assert (await client.create_relation(RELATION_SPEC)).status == 200
                    assert (
                        await client.register_view(
                            "r", {"name": "live", "kind": "current"}
                        )
                    ).status == 200
                    assert (
                        await client.register_view(
                            "r",
                            {"name": "slice", "kind": "timeslice", "vt": MICRO},
                        )
                    ).status == 200
                    assert (
                        await client.register_view(
                            "r",
                            {
                                "name": "window",
                                "kind": "overlap",
                                "start": 0,
                                "end": 3 * MICRO,
                            },
                        )
                    ).status == 200

                    await client.bulk(
                        "r",
                        [["a", 0, {"v": 1}], ["b", MICRO, {"v": 2}], ["c", 5 * MICRO, {"v": 3}]],
                    )

                    listing = (await client.views("r")).json()
                    assert {"live", "slice", "window"} == {
                        v["name"] for v in listing["views"]
                    }

                    live = (await client.view("r", "live")).json()
                    assert live["count"] == 3
                    sliced = (await client.view("r", "slice")).json()
                    assert [row["object"] for row in sliced["rows"]] == ["b"]
                    window = (await client.view("r", "window")).json()
                    assert [row["object"] for row in window["rows"]] == ["a", "b"]

        asyncio.run(scenario())

    def test_invalid_registrations_answer_400(self, tmp_path) -> None:
        async def scenario() -> None:
            async with running_server(_config(tmp_path)) as server:
                async with connected_client(server) as client:
                    assert (await client.create_relation(RELATION_SPEC)).status == 200
                    bad_kind = await client.register_view(
                        "r", {"name": "x", "kind": "sampled"}
                    )
                    assert bad_kind.status == 400
                    bad_window = await client.register_view(
                        "r",
                        {"name": "w", "kind": "overlap", "start": 5, "end": 5},
                    )
                    assert bad_window.status == 400
                    assert (
                        await client.register_view(
                            "r", {"name": "live", "kind": "current"}
                        )
                    ).status == 200
                    duplicate = await client.register_view(
                        "r", {"name": "live", "kind": "current"}
                    )
                    assert duplicate.status == 400

        asyncio.run(scenario())


class TestLongPoll:
    def test_snapshot_pin_plus_deltas_reconstructs_state(self, tmp_path) -> None:
        """The epoch-reconciliation recipe: snapshot at pin E, then
        apply exactly the deltas with epoch > E."""

        async def scenario() -> None:
            async with running_server(_config(tmp_path)) as server:
                async with connected_client(server) as client:
                    assert (await client.create_relation(RELATION_SPEC)).status == 200
                    await client.bulk("r", [["a", 0, {"v": 1}], ["b", MICRO, {"v": 2}]])

                    snapshot = (await client.current("r")).json()
                    pin = snapshot["epoch"]["tt"]

                    await client.append("r", "c", 2 * MICRO, {"v": 3})
                    deleted = snapshot["rows"][0]["surrogate"]
                    await client.delete("r", deleted)

                    feed = (
                        await client.subscribe("r", since=pin, timeout=0.2)
                    ).json()
                    assert not feed["resync"]
                    assert [d["kind"] for d in feed["deltas"]] == ["insert", "close"]
                    assert all(epoch > pin for epoch in _epochs(feed))

                    state = {row["surrogate"]: row for row in snapshot["rows"]}
                    for delta in feed["deltas"]:
                        if delta["kind"] == "insert":
                            state[delta["element"]["surrogate"]] = delta["element"]
                        else:
                            state.pop(delta["element"]["surrogate"], None)
                    final = (await client.current("r")).json()
                    assert sorted(state) == sorted(
                        row["surrogate"] for row in final["rows"]
                    )

        asyncio.run(scenario())

    def test_blocked_poll_wakes_on_write(self, tmp_path) -> None:
        async def scenario() -> None:
            async with running_server(_config(tmp_path)) as server:
                async with connected_client(server) as poller:
                    async with connected_client(server) as writer:
                        assert (
                            await writer.create_relation(RELATION_SPEC)
                        ).status == 200

                        async def poll():
                            return await poller.subscribe("r", timeout=10.0)

                        task = asyncio.create_task(poll())
                        await asyncio.sleep(0.05)  # poller parks first
                        await writer.append("r", "a", 0, {"v": 1})
                        feed = (await asyncio.wait_for(task, 5.0)).json()
                        assert feed["count"] == 1
                        assert feed["deltas"][0]["kind"] == "insert"
                        assert feed["deltas"][0]["element"]["object"] == "a"
                        assert feed["cursor"] == feed["deltas"][0]["epoch"]

        asyncio.run(scenario())

    def test_empty_poll_times_out_cleanly(self, tmp_path) -> None:
        async def scenario() -> None:
            async with running_server(_config(tmp_path)) as server:
                async with connected_client(server) as client:
                    assert (await client.create_relation(RELATION_SPEC)).status == 200
                    await client.append("r", "a", 0, {"v": 1})
                    feed = (
                        await client.subscribe("r", timeout=0.1)
                    ).json()  # since defaults to "now"
                    assert not feed["resync"]
                    assert feed["deltas"] == []

        asyncio.run(scenario())


class TestRestartOverRecoveredWal:
    def test_no_replay_of_delivered_deltas(self, tmp_path) -> None:
        """Satellite 3: the delivered stream never repeats across a
        restart, and post-restart mutations land strictly after every
        pre-crash epoch."""
        delivered: dict = {}

        async def before_restart() -> None:
            async with running_server(_config(tmp_path)) as server:
                async with connected_client(server) as client:
                    assert (await client.create_relation(RELATION_SPEC)).status == 200
                    opening = (await client.current("r")).json()["epoch"]["tt"]
                    await client.bulk(
                        "r", [["a", 0, {"v": 1}], ["b", MICRO, {"v": 2}]]
                    )
                    feed = (
                        await client.subscribe("r", since=opening, timeout=0.2)
                    ).json()
                    assert feed["count"] == 2
                    delivered["cursor"] = feed["cursor"]
                    delivered["epochs"] = _epochs(feed)

        async def after_restart() -> None:
            async with running_server(_config(tmp_path)) as server:
                async with connected_client(server) as client:
                    assert (await client.create_relation(RELATION_SPEC)).status == 200
                    # Recovery adopted both rows.
                    assert (await client.current("r")).json()["count"] == 2

                    # Resuming from the pre-crash cursor: either a clean
                    # empty resume or an explicit resync order -- never
                    # a duplicate of what was already delivered.
                    feed = (
                        await client.subscribe(
                            "r", since=delivered["cursor"], timeout=0.1
                        )
                    ).json()
                    assert feed["deltas"] == []

                    # An ancient cursor is ordered to resync: the deltas
                    # it would need predate the recovered journal.
                    stale = (
                        await client.subscribe("r", since=0, timeout=0.1)
                    ).json()
                    assert stale["resync"] is True
                    assert stale["deltas"] == []

                    # New mutations flow with epochs strictly after
                    # everything delivered before the crash.
                    pin = (await client.current("r")).json()["epoch"]["tt"]
                    await client.append("r", "c", 2 * MICRO, {"v": 3})
                    fresh = (
                        await client.subscribe("r", since=pin, timeout=0.2)
                    ).json()
                    assert fresh["count"] == 1
                    assert all(
                        epoch > max(delivered["epochs"])
                        for epoch in _epochs(fresh)
                    )

        asyncio.run(before_restart())
        asyncio.run(after_restart())

    def test_views_recover_with_the_relation(self, tmp_path) -> None:
        """A view registered after restart sees the recovered rows --
        registration always absorbs pre-existing state."""

        async def before() -> None:
            async with running_server(_config(tmp_path)) as server:
                async with connected_client(server) as client:
                    assert (await client.create_relation(RELATION_SPEC)).status == 200
                    await client.bulk(
                        "r", [["a", 0, {"v": 1}], ["b", MICRO, {"v": 2}]]
                    )

        async def after() -> None:
            async with running_server(_config(tmp_path)) as server:
                async with connected_client(server) as client:
                    assert (await client.create_relation(RELATION_SPEC)).status == 200
                    assert (
                        await client.register_view(
                            "r", {"name": "live", "kind": "current"}
                        )
                    ).status == 200
                    view = (await client.view("r", "live")).json()
                    assert [row["object"] for row in view["rows"]] == ["a", "b"]

        asyncio.run(before())
        asyncio.run(after())
