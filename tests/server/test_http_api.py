"""Route-level coverage of the HTTP/JSON surface.

One relation, one client, every endpoint: catalog, ingest, pinned
reads, TQL, explain, metrics -- plus the protocol-error paths (bad
JSON, bad routes, bad parameters) that must answer with clean HTTP
statuses rather than dropped connections.
"""

from __future__ import annotations

import asyncio
import json

from repro.server import ServerConfig
from tests.server.harness import connected_client, running_server

MICRO = 1_000_000  # one second-granularity tick on the wire


def test_health_catalog_and_stats() -> None:
    async def scenario() -> None:
        async with running_server() as server:
            async with connected_client(server) as client:
                health = await client.health()
                assert health.status == 200
                assert health.json()["status"] == "ok"

                created = await client.create_relation(
                    {
                        "name": "readings",
                        "kind": "event",
                        "time_varying": ["reading"],
                        "specializations": ["retroactive"],
                    }
                )
                assert created.status == 200
                assert created.json()["epoch"]["elements"] == 0

                listing = await client.request("GET", "/relations")
                info = listing.json()["relations"]["readings"]
                assert info["kind"] == "event"
                assert info["specializations"] == ["retroactive"]

                stats = await client.request("GET", "/relations/readings")
                assert stats.json()["elements"] == 0
                assert stats.json()["live"] == 0

    asyncio.run(scenario())


def test_append_bulk_delete_roundtrip() -> None:
    async def scenario() -> None:
        async with running_server() as server:
            async with connected_client(server) as client:
                await client.create_relation({"name": "r", "time_varying": ["v"]})

                appended = await client.append("r", "alpha", 0, {"v": 1})
                assert appended.status == 200
                element = appended.json()["elements"][0]
                assert element["object"] == "alpha"
                assert element["varying"] == {"v": 1}

                bulked = await client.bulk(
                    "r", [["beta", MICRO, {"v": 2}], ["gamma", 2 * MICRO, None]]
                )
                assert bulked.status == 200
                assert bulked.json()["count"] == 2
                # Epoch advances once per committed batch.
                assert bulked.json()["epoch"]["version"] == 2

                current = await client.current("r")
                assert current.json()["count"] == 3

                surrogate = element["surrogate"]
                deleted = await client.delete("r", surrogate)
                assert deleted.status == 200
                assert deleted.json()["elements"][0]["tt_stop"] < 2**62

                after = await client.current("r")
                assert after.json()["count"] == 2
                assert surrogate not in [row["surrogate"] for row in after.json()["rows"]]

                # Deleting twice is a clean 404, not a wedged writer.
                again = await client.delete("r", surrogate)
                assert again.status == 404
                still = await client.current("r")
                assert still.json()["count"] == 2

    asyncio.run(scenario())


def test_pinned_reads_timeslice_overlap_rollback() -> None:
    async def scenario() -> None:
        async with running_server() as server:
            async with connected_client(server) as client:
                await client.create_relation({"name": "r", "time_varying": ["v"]})
                first = await client.bulk("r", [["a", 5 * MICRO, {"v": 1}]])
                pin_after_first = first.json()["epoch"]["tt"]
                await client.bulk("r", [["b", 5 * MICRO, {"v": 2}], ["c", 9 * MICRO, {"v": 3}]])

                slice_at_5 = await client.timeslice("r", 5 * MICRO)
                assert slice_at_5.json()["count"] == 2

                overlap = await client.overlap("r", 4 * MICRO, 6 * MICRO)
                assert overlap.json()["count"] == 2
                bad_window = await client.overlap("r", 6 * MICRO, 4 * MICRO)
                assert bad_window.status == 400

                rolled = await client.rollback("r", pin_after_first)
                assert rolled.json()["count"] == 1
                assert rolled.json()["rows"][0]["object"] == "a"

                # A rollback beyond the pin is clamped to the pin, never
                # a glimpse of uncommitted state.
                future = await client.rollback("r", 10**15)
                assert future.json()["count"] == 3

                # Bitemporal slice: timeslice AS OF the first epoch.
                sliced = await client.timeslice("r", 5 * MICRO, as_of=pin_after_first)
                assert sliced.json()["count"] == 1

    asyncio.run(scenario())


def test_tql_and_explain() -> None:
    async def scenario() -> None:
        async with running_server() as server:
            async with connected_client(server) as client:
                await client.create_relation({"name": "r", "time_varying": ["v"]})
                await client.bulk(
                    "r", [["a", 0, {"v": 1}], ["b", MICRO, {"v": 2}], ["c", MICRO, {"v": 3}]]
                )

                rows = await client.query("SELECT v FROM r VALID AT 1s")
                assert rows.status == 200
                assert sorted(row["v"] for row in rows.json()["rows"]) == [2, 3]

                counted = await client.query("SELECT COUNT(*) FROM r")
                assert counted.json()["rows"] == [{"count": 3}]

                explained = await client.explain("r", "SELECT v FROM r VALID AT 1s")
                body = explained.json()
                assert body["strategy"]
                assert body["returned"] == 2
                assert "strategy" in body["rendered"]

                planned = await client.explain(
                    "r", "SELECT v FROM r VALID AT 1s", execute=False
                )
                assert planned.json()["executed"] is False
                assert "rows" not in planned.json()

                bad = await client.query("VALID AT 1s FROM r")
                assert bad.status == 400

    asyncio.run(scenario())


def test_a_tql_request_is_parsed_once(monkeypatch) -> None:
    """The handler's AST names the relation for the cache key and is what
    the database and ``tql.execute`` run -- nobody re-parses the text."""
    from repro.query import tql

    parsed = []
    real = tql.parse

    def counting(text):
        parsed.append(text)
        return real(text)

    monkeypatch.setattr(tql, "parse", counting)

    async def scenario() -> None:
        async with running_server() as server:
            async with connected_client(server) as client:
                await client.create_relation({"name": "r", "time_varying": ["v"]})
                await client.bulk("r", [["a", 0, {"v": 1}], ["b", MICRO, {"v": 2}]])
                rows = await client.query("SELECT v FROM r VALID AT 1s")
                assert [row["v"] for row in rows.json()["rows"]] == [2]
                assert parsed == ["SELECT v FROM r VALID AT 1s"]
                assert (await client.query("SELECT v FROM nowhere")).status == 400
                assert (await client.query("VALID AT 1s FROM r")).status == 400
                assert len(parsed) == 3

    asyncio.run(scenario())


def test_protocol_errors_are_clean_http() -> None:
    async def scenario() -> None:
        async with running_server() as server:
            async with connected_client(server) as client:
                assert (await client.request("GET", "/nope")).status == 404
                assert (await client.request("PUT", "/relations")).status == 404
                assert (await client.current("ghost")).status == 400

                await client.create_relation({"name": "r", "time_varying": ["v"]})
                # Undeclared attribute -> schema rejection via the queue.
                bad_attr = await client.bulk("r", [["a", 0, {"undeclared": 1}]])
                assert bad_attr.status == 400

                # Interval vt on an event relation.
                bad_vt = await client.bulk("r", [["a", [0, MICRO], None]])
                assert bad_vt.status == 400

                # Malformed JSON body.
                raw = await client.request(
                    "POST", "/relations/r/bulk", payload=None, query=None
                )
                assert raw.status == 400

                # Bad query parameter.
                bad_param = await client.request(
                    "GET", "/relations/r/timeslice", query={"vt": "soon"}
                )
                assert bad_param.status == 400

                # Duplicate relation.
                dupe = await client.create_relation({"name": "r"})
                assert dupe.status == 400

                # Unknown engine kind.
                engine = await client.create_relation({"name": "s", "engine": "ram"})
                assert engine.status == 400

                # The connection survived every error above.
                assert (await client.health()).status == 200

    asyncio.run(scenario())


def test_retired_sharded_directory_is_refused_not_shadowed(tmp_path) -> None:
    """``{data_dir}/{name}.shards/`` is history the deleted sharded
    serve mode wrote: creating logfile relation ``name`` beside it must
    fail cleanly rather than start an empty ``{name}.logfile``."""
    (tmp_path / "readings.shards").mkdir()
    (tmp_path / "readings.shards" / "shards.manifest").write_bytes(b"")

    async def scenario() -> None:
        config = ServerConfig(port=0, data_dir=str(tmp_path), close_engines=True)
        async with running_server(config) as server:
            async with connected_client(server) as client:
                refused = await client.create_relation(
                    {"name": "readings", "engine": "logfile"}
                )
                assert refused.status == 400, refused.body
                assert (
                    "sharded data directories were removed in PR 22; "
                    "open them at the previous release and re-ingest"
                ) in refused.json()["error"]
                listing = await client.request("GET", "/relations")
                assert "readings" not in listing.json()["relations"]
                # A name with no sharded history beside it is fine.
                other = await client.create_relation({"name": "other", "engine": "logfile"})
                assert other.status == 200, other.body

    asyncio.run(scenario())
    assert not (tmp_path / "readings.logfile").exists()


def test_retired_sqlite_engine_kind_is_refused(tmp_path) -> None:
    async def scenario() -> None:
        config = ServerConfig(port=0, data_dir=str(tmp_path), close_engines=True)
        async with running_server(config) as server:
            async with connected_client(server) as client:
                refused = await client.create_relation({"name": "readings", "engine": "sqlite"})
                assert refused.status == 400, refused.body
                assert "(expected 'memory' or 'logfile')" in refused.json()["error"]
                listing = await client.request("GET", "/relations")
                assert "readings" not in listing.json()["relations"]

    asyncio.run(scenario())
    assert list(tmp_path.iterdir()) == []


def test_retired_sqlite_file_is_refused_not_shadowed(tmp_path) -> None:
    """``{data_dir}/{name}.sqlite`` is history the deleted SQLite engine
    wrote: creating relation ``name`` beside it must fail with one
    message rather than start an empty ``{name}.logfile``."""
    (tmp_path / "readings.sqlite").write_bytes(b"SQLite format 3\x00")

    async def scenario() -> None:
        config = ServerConfig(port=0, data_dir=str(tmp_path), close_engines=True)
        async with running_server(config) as server:
            async with connected_client(server) as client:
                refused = await client.create_relation(
                    {"name": "readings", "engine": "logfile"}
                )
                assert refused.status == 400, refused.body
                assert refused.json()["error"] == (
                    "relation 'readings': the SQLite engine was removed; open this "
                    "relation's .sqlite file at the previous release and re-ingest"
                )
                listing = await client.request("GET", "/relations")
                assert "readings" not in listing.json()["relations"]

    asyncio.run(scenario())
    assert not (tmp_path / "readings.logfile").exists()


def test_a_duplicate_create_opens_no_engine(tmp_path, monkeypatch) -> None:
    """The name is checked before any engine is built: a second create
    must not reopen (and replay) the live relation's log."""
    from repro.storage.logfile import LogFileEngine

    opened = []
    original_init = LogFileEngine.__init__

    def spy(self, path, *args, **kwargs):
        opened.append(path)
        original_init(self, path, *args, **kwargs)

    monkeypatch.setattr(LogFileEngine, "__init__", spy)

    async def scenario() -> None:
        config = ServerConfig(port=0, data_dir=str(tmp_path), close_engines=True)
        async with running_server(config) as server:
            async with connected_client(server) as client:
                spec = {"name": "r", "time_varying": ["v"], "engine": "logfile"}
                assert (await client.create_relation(spec)).status == 200
                appended = await client.bulk("r", [["a", 0, {"v": 1}]])
                assert appended.status == 200, appended.body
                duplicate = await client.create_relation(spec)
                assert duplicate.status == 400, duplicate.body
                assert "already exists" in duplicate.json()["error"]
                assert (await client.current("r")).json()["count"] == 1

    asyncio.run(scenario())
    assert opened == [str(tmp_path / "r.logfile")]


def test_fire_and_forget_ingest() -> None:
    async def scenario() -> None:
        async with running_server() as server:
            async with connected_client(server) as client:
                await client.create_relation({"name": "r", "time_varying": ["v"]})
                queued = await client.bulk("r", [["a", 0, {"v": 1}]], wait=False)
                assert queued.status == 202
                assert queued.json() == {"queued": True, "rows": 1}
                await asyncio.sleep(0)  # let the writer drain
                for _ in range(50):
                    if (await client.current("r")).json()["count"] == 1:
                        break
                    await asyncio.sleep(0.01)
                assert (await client.current("r")).json()["count"] == 1

    asyncio.run(scenario())


def test_canonical_payload_ordering() -> None:
    """The same state serializes to the same bytes, read after read."""

    async def scenario() -> None:
        async with running_server() as server:
            async with connected_client(server) as client:
                await client.create_relation({"name": "r", "time_varying": ["v"]})
                await client.bulk(
                    "r",
                    [["b", 3 * MICRO, {"v": 1}], ["a", MICRO, {"v": 2}], ["c", 2 * MICRO, None]],
                )
                one = await client.current("r")
                two = await client.current("r")
                assert one.body == two.body
                rows = one.json()["rows"]
                assert [row["tt_start"] for row in rows] == sorted(
                    row["tt_start"] for row in rows
                )
                # Canonical JSON: compact separators, sorted keys.
                assert one.body == json.dumps(
                    one.json(), sort_keys=True, separators=(",", ":")
                ).encode()

    asyncio.run(scenario())


def test_metrics_endpoint_reports_request_counters() -> None:
    async def scenario() -> None:
        async with running_server(ServerConfig(port=0, metrics=True)) as server:
            async with connected_client(server) as client:
                await client.create_relation({"name": "r", "time_varying": ["v"]})
                await client.bulk("r", [["a", 0, {"v": 1}]])
                await client.current("r")
                snapshot = (await client.metrics()).json()
                assert snapshot["enabled"] is True
                counters = snapshot["metrics"]["counters"]
                assert counters["server.requests"] >= 3
                assert counters["server.writer.commits"] == 1
                assert counters["server.rows_served"] >= 1
                histograms = snapshot["metrics"]["histograms"]
                assert "server.latency.current" in histograms
                assert histograms["server.latency.current"]["count"] >= 1
                assert "p99" in histograms["server.latency.current"]

    asyncio.run(scenario())
