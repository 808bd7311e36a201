"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``regions`` -- the Figure 1 region table and the completeness count;
* ``lattice {fig2,fig3,fig4,fig5} [--dot]`` -- a figure as ASCII or DOT;
* ``classify FILE.csv`` -- infer specializations for (tt, vt[, object])
  rows and print the design recommendation;
* ``workload NAME [--tql STATEMENT]`` -- generate one of the paper's
  example workloads and optionally query it;
* ``explain NAME STATEMENT`` -- run a TQL statement against a workload
  under the observability layer: chosen strategy, the planner's pruning
  decisions, timed spans, and (with ``--metrics``) the registry
  snapshot;
* ``recover FILE [--dry-run]`` -- scan a write-ahead log (v0 or v1),
  quarantine any torn/corrupt/uncommitted tail into ``FILE.corrupt``,
  truncate the log to its committed prefix, and report what was done;
* ``serve`` -- run the asyncio HTTP/JSON server over a (possibly
  pre-loaded) temporal database (see ``docs/server.md``);
* ``demo`` -- a one-screen tour (insert, enforce, query, infer).
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import List, Optional, Sequence

from repro.chronos.timestamp import Timestamp
from repro.core.taxonomy.base import Stamped
from repro.core.taxonomy.lattice import (
    EVENT_ISOLATED_LATTICE,
    INTER_EVENT_ORDERING_LATTICE,
    INTER_EVENT_REGULARITY_LATTICE,
    INTER_INTERVAL_LATTICE,
)
from repro.core.taxonomy.regions import enumerate_regions
from repro.design.advisor import Advisor
from repro.design.report import render_lattice_ascii, render_recommendation

_LATTICES = {
    "fig2": EVENT_ISOLATED_LATTICE,
    "fig3": INTER_EVENT_ORDERING_LATTICE,
    "fig4": INTER_EVENT_REGULARITY_LATTICE,
    "fig5": INTER_INTERVAL_LATTICE,
}

_WORKLOADS = {
    "monitoring": "generate_monitoring",
    "payroll": "generate_payroll",
    "assignments": "generate_assignments",
    "ledger": "generate_ledger",
    "orders": "generate_orders",
    "archeology": "generate_excavation",
    "warnings": "generate_warnings",
    "general": "generate_general",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Temporal Specialization (Jensen & Snodgrass, ICDE 1992), executable.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("regions", help="Figure 1 region table")

    lattice = commands.add_parser("lattice", help="print a figure's lattice")
    lattice.add_argument("figure", choices=sorted(_LATTICES))
    lattice.add_argument("--dot", action="store_true", help="emit GraphViz DOT")

    classify = commands.add_parser(
        "classify", help="infer specializations from a CSV of tt,vt[,object] rows"
    )
    classify.add_argument("file", help="CSV path, or - for stdin")
    classify.add_argument(
        "--margin", type=float, default=0.5, help="bound-widening margin (default 0.5)"
    )

    workload = commands.add_parser("workload", help="generate an example workload")
    workload.add_argument("name", choices=sorted(_WORKLOADS))
    workload.add_argument("--tql", help="a TQL statement to run against it")
    workload.add_argument(
        "--explain", action="store_true", help="show the chosen plan for --tql"
    )
    workload.add_argument("--seed", type=int, default=1992)

    explain = commands.add_parser(
        "explain", help="plan, run, and trace a TQL statement against a workload"
    )
    explain.add_argument("name", choices=sorted(_WORKLOADS))
    explain.add_argument("statement", help="the TQL statement to explain")
    explain.add_argument("--seed", type=int, default=1992)
    explain.add_argument(
        "--no-execute",
        action="store_true",
        help="plan only; skip execution (no operator spans)",
    )
    explain.add_argument(
        "--metrics",
        action="store_true",
        help="also print the metrics-registry snapshot for the run",
    )

    recover = commands.add_parser(
        "recover",
        help="scan a write-ahead log, truncate any torn/uncommitted tail, report",
    )
    recover.add_argument("path", help="the log file to recover")
    recover.add_argument(
        "--dry-run",
        action="store_true",
        help="report only; leave the file (and no sidecar) untouched",
    )

    compact = commands.add_parser(
        "compact",
        help=(
            "demote sealed history to compressed cold segment files and "
            "fold pending closes into them (see docs/storage.md)"
        ),
    )
    compact.add_argument("path", help="the write-ahead log file to compact")
    compact.add_argument(
        "--tier-dir",
        default=None,
        help=(
            "directory for the compressed segment files (default: "
            "<path>.tier beside the log)"
        ),
    )
    compact.add_argument(
        "--segment-size",
        type=int,
        default=None,
        help="segment size for the replayed store, at least 2 (default: 4096)",
    )

    serve = commands.add_parser(
        "serve", help="run the asyncio HTTP/JSON server (see docs/server.md)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787)
    serve.add_argument(
        "--workload",
        choices=sorted(_WORKLOADS),
        action="append",
        default=None,
        help="pre-load an example workload relation (repeatable)",
    )
    serve.add_argument("--seed", type=int, default=1992)
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="writer-queue bound; a full queue answers 429 (default 64)",
    )
    serve.add_argument(
        "--data-dir",
        default=None,
        help="directory for durable engines created via POST /relations",
    )
    serve.add_argument(
        "--tier-dir",
        default=None,
        help=(
            "root directory for compressed cold segment files; each created "
            "relation tiers into <name>.tier under it"
        ),
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=256,
        help="response-cache entry budget; 0 disables the cache (default 256)",
    )
    serve.add_argument(
        "--cache-bytes",
        type=int,
        default=16 * 1024 * 1024,
        help="response-cache byte budget (default 16 MiB)",
    )
    serve.add_argument(
        "--no-metrics",
        action="store_true",
        help="leave the metrics registry disabled",
    )

    watch = commands.add_parser(
        "watch",
        help=(
            "tail a served relation's delta stream (long-poll "
            "/relations/<name>/subscribe; see docs/views.md)"
        ),
    )
    watch.add_argument("relation", help="the relation name on the server")
    watch.add_argument("--host", default="127.0.0.1")
    watch.add_argument("--port", type=int, default=8787)
    watch.add_argument(
        "--since",
        type=int,
        default=None,
        help=(
            "epoch cursor (microseconds) to resume from -- e.g. the "
            "'tt' of a snapshot read's epoch; default: from now"
        ),
    )
    watch.add_argument(
        "--rounds",
        type=int,
        default=0,
        help="long-poll rounds before exiting (default 0: until interrupted)",
    )
    watch.add_argument(
        "--poll-timeout",
        type=float,
        default=25.0,
        help="per-round long-poll timeout in seconds (default 25)",
    )

    commands.add_parser("demo", help="a one-screen tour")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = _build_parser().parse_args(argv)
    handler = {
        "regions": _cmd_regions,
        "lattice": _cmd_lattice,
        "classify": _cmd_classify,
        "workload": _cmd_workload,
        "explain": _cmd_explain,
        "recover": _cmd_recover,
        "compact": _cmd_compact,
        "serve": _cmd_serve,
        "watch": _cmd_watch,
        "demo": _cmd_demo,
    }[arguments.command]
    return handler(arguments)


def _cmd_regions(_arguments: argparse.Namespace) -> int:
    named = enumerate_regions()
    print("Figure 1 region shapes (Section 3.1 completeness enumeration):")
    for name in EVENT_ISOLATED_LATTICE.topological_order():
        if name == "degenerate":
            print(f"  {name:<42} d = 0 (point region)")
            continue
        region = EVENT_ISOLATED_LATTICE.instance(name).region()
        print(f"  {name:<42} {region}")
    one = sum(1 for shape in named.values() if shape.line_count == 1)
    two = sum(1 for shape in named.values() if shape.line_count == 2)
    print(f"\n{one} one-line + {two} two-line + general = {len(named)} shapes")
    return 0


def _cmd_lattice(arguments: argparse.Namespace) -> int:
    lattice = _LATTICES[arguments.figure]
    print(lattice.to_dot() if arguments.dot else render_lattice_ascii(lattice))
    return 0


def _cmd_classify(arguments: argparse.Namespace) -> int:
    if arguments.file == "-":
        rows = list(csv.reader(sys.stdin))
    else:
        with open(arguments.file, newline="") as handle:
            rows = list(csv.reader(handle))
    elements: List[Stamped] = []
    for row in rows:
        if not row or row[0].lstrip().startswith("#"):
            continue
        if not row[0].strip().lstrip("-").isdigit():
            continue  # header line
        tt, vt = int(row[0]), int(row[1])
        who = row[2].strip() if len(row) > 2 else None
        elements.append(
            Stamped(tt_start=Timestamp(tt), vt=Timestamp(vt), object_surrogate=who)
        )
    if not elements:
        print("no (tt, vt) rows found", file=sys.stderr)
        return 1
    recommendation = Advisor(margin=arguments.margin).recommend(elements)
    print(render_recommendation(recommendation, arguments.file))
    return 0


def _cmd_workload(arguments: argparse.Namespace) -> int:
    import repro.workloads as workloads
    from repro.database import TemporalDatabase

    generator = getattr(workloads, _WORKLOADS[arguments.name])
    workload = generator(seed=arguments.seed)
    print(workload)
    print(f"declared: {', '.join(workload.relation.schema.specialization_names()) or 'none'}")
    if arguments.tql:
        database = TemporalDatabase()
        database.attach(workload.relation)
        if arguments.explain:
            from repro.query.tql import explain

            print(explain(arguments.tql, workload.relation))
        results = database.execute(arguments.tql)
        for row in results[:20]:
            print(f"  {row}")
        if len(results) > 20:
            print(f"  ... {len(results) - 20} more")
        print(f"{len(results)} result(s)")
    return 0


def _cmd_explain(arguments: argparse.Namespace) -> int:
    import repro.workloads as workloads
    from repro.observability import metrics

    generator = getattr(workloads, _WORKLOADS[arguments.name])
    workload = generator(seed=arguments.seed)
    relation = workload.relation
    print(f"workload  : {workload}")
    declared = ", ".join(relation.schema.specialization_names()) or "none"
    print(f"declared  : {declared}")
    with metrics.enabled_scope(fresh=True) as registry:
        report = relation.explain(arguments.statement, execute=not arguments.no_execute)
        print(report.render())
        if arguments.metrics:
            print("metrics   :")
            print(registry.snapshot_json(indent=2))
    return 0


def _refuses_sharded(path: str) -> bool:
    """Say so (and let the caller exit 2) when *path* is a data
    directory the deleted sharded serve mode wrote."""
    import os

    from repro.storage.logfile import SHARDS_MANIFEST, SHARDS_REMOVED

    if not os.path.exists(os.path.join(path, SHARDS_MANIFEST)):
        return False
    print(f"{path}: {SHARDS_REMOVED}", file=sys.stderr)
    return True


def _cmd_recover(arguments: argparse.Namespace) -> int:
    """Exit 0 when the log is clean or was recovered; 1 when a dry run
    found damage (so scripts can gate on it); 2 when unreadable."""
    from repro.storage.wal import recover_file

    if _refuses_sharded(arguments.path):
        return 2
    try:
        _batches, report = recover_file(arguments.path, dry_run=arguments.dry_run)
    except OSError as error:
        print(f"cannot read {arguments.path}: {error}", file=sys.stderr)
        return 2
    print(report.render())
    if arguments.dry_run and not report.clean:
        return 1
    return 0


def _cmd_compact(arguments: argparse.Namespace) -> int:
    """Exit 0 after compacting; 2 when the path is unreadable or the
    segment size is invalid."""
    import os

    from repro.storage.logfile import LogFileEngine

    path = arguments.path
    if _refuses_sharded(path):
        return 2
    if not os.path.isfile(path):
        print(f"cannot read {path}: not a write-ahead log file", file=sys.stderr)
        return 2
    tier_dir = arguments.tier_dir if arguments.tier_dir is not None else path + ".tier"
    try:
        engine = LogFileEngine(path, segment_size=arguments.segment_size, tier_dir=tier_dir)
    except ValueError as error:
        print(f"cannot compact {path}: {error}", file=sys.stderr)
        return 2
    try:
        store = engine.store
        report = store.compact()
        stats = store.statistics()
        print(
            f"{path}: demoted {report['demoted']} segment(s), "
            f"rewrote {report['rewritten']} patched file(s), "
            f"{report['cold']} cold "
            f"({stats.get('tier_bytes_written', 0)} bytes written)"
        )
    finally:
        engine.close()
    return 0


def _cmd_serve(arguments: argparse.Namespace) -> int:
    import asyncio

    from repro.server import ServerConfig, TemporalServer

    config = ServerConfig(
        host=arguments.host,
        port=arguments.port,
        queue_limit=arguments.queue_limit,
        metrics=not arguments.no_metrics,
        data_dir=arguments.data_dir,
        close_engines=True,
        tier_dir=arguments.tier_dir,
        cache_entries=arguments.cache_entries,
        cache_bytes=arguments.cache_bytes,
    )
    server = TemporalServer(config)
    for name in arguments.workload or ():
        import repro.workloads as workloads

        generator = getattr(workloads, _WORKLOADS[name])
        server.attach_relation(generator(seed=arguments.seed).relation)

    async def run() -> None:
        await server.start()
        print(
            f"serving on http://{config.host}:{server.port} "
            f"(relations: {', '.join(server.database.names()) or 'none'})"
        )
        await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shut down")
    return 0


def _cmd_watch(arguments: argparse.Namespace) -> int:
    """Tail a relation's epoch-stamped delta stream as JSON lines.

    On ``resync`` (the cursor fell behind the server's journal floor,
    e.g. across a server restart) the watcher re-anchors at the
    server's current pin and says so -- the reconciliation recipe from
    ``docs/views.md``, performed live.
    """
    import asyncio
    import json

    from repro.server.client import ServerClient

    async def run() -> int:
        client = ServerClient(arguments.host, arguments.port)
        await client.connect()
        cursor = arguments.since
        rounds = 0
        try:
            while True:
                response = await client.subscribe(
                    arguments.relation, since=cursor, timeout=arguments.poll_timeout
                )
                if not response.ok:
                    print(f"error {response.status}: {response.body!r}", file=sys.stderr)
                    return 1
                body = response.json()
                if body.get("resync"):
                    cursor = body["epoch"]["tt"]
                    print(
                        json.dumps({"resync": True, "cursor": cursor}),
                        flush=True,
                    )
                else:
                    for delta in body["deltas"]:
                        print(json.dumps(delta, sort_keys=True), flush=True)
                    cursor = body["cursor"]
                rounds += 1
                if arguments.rounds and rounds >= arguments.rounds:
                    return 0
        finally:
            await client.close()

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _cmd_demo(_arguments: argparse.Namespace) -> int:
    from repro import (
        ConstraintViolation,
        SimulatedWallClock,
        TemporalRelation,
        TemporalSchema,
    )
    from repro.core.taxonomy import classify as infer

    schema = TemporalSchema(
        name="temps",
        time_varying=("celsius",),
        specializations=["delayed retroactive(30s)"],
    )
    clock = SimulatedWallClock(start=1_000)
    relation = TemporalRelation(schema, clock=clock)
    relation.insert("s1", Timestamp(940), {"celsius": 21.5})
    print(f"inserted under {schema.specialization_names()}: {relation.current()[0]}")
    try:
        relation.insert("s1", Timestamp(999_999), {"celsius": 0.0})
    except ConstraintViolation:
        print("future-valid insert rejected by the declared specialization")
    report = infer(relation.all_elements())
    print(f"inferred: {[spec.name for spec in report.specializations()]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
