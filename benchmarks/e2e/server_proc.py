"""The program under test, as a child process of ``run.py``.

Builds the workload's relation with the library on a known clock,
attaches it to a :class:`TemporalServer` on an ephemeral loopback port
(``metrics=False``), prints one ``READY {json}`` line, and serves until
its stdin closes or says ``STOP``.  The end-to-end passes SIGKILL it;
the traced pass (``--trace``) wraps the layer entry points with span
recorders first, enables the metrics registry for that pass only, and
on ``STOP`` writes the spans to ``--spans`` before exiting.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, HERE)

import scenario  # noqa: E402
import spans  # noqa: E402
from repro.chronos.clock import LogicalClock  # noqa: E402
from repro.database import TemporalDatabase  # noqa: E402
from repro.server.app import ServerConfig, TemporalServer  # noqa: E402
from repro.storage.memory import MemoryEngine  # noqa: E402


def build_database(workload: str, seed: int, elements: int, directory: str):
    """(database, relation or None, tier directory or None)."""
    database = TemporalDatabase(
        clock=LogicalClock(start=scenario.IngestScenario.CLOCK_START_MS, granularity="millisecond")
    )
    relation = scenario.build_relation(workload, seed, elements)
    tier_dir = None
    if workload == "history_tiered":
        # The generator builds on a plain memory engine; move the
        # history onto a tiering one so every sealed segment beyond the
        # hot reserve is demoted to a cold .seg file before serving.
        tier_dir = os.path.join(directory, "tier")
        os.makedirs(os.path.join(tier_dir, f"{relation.schema.name}.tier"))
        stored = list(relation.engine.scan())
        engine = MemoryEngine(
            segment_size=scenario.tier_segment_size(len(stored)),
            tier_dir=os.path.join(tier_dir, f"{relation.schema.name}.tier"),
        )
        engine.extend(stored)
        relation.engine = engine
        relation.notify_engine_replaced()
    return database, relation, tier_dir


async def serve(args: argparse.Namespace, tracer) -> None:
    database, relation, tier_dir = build_database(
        args.workload, args.seed, args.elements, args.dir
    )
    config = ServerConfig(
        port=0,
        metrics=tracer is not None,
        data_dir=os.path.join(args.dir, "data"),
        tier_dir=tier_dir,
    )
    server = TemporalServer(config, database)
    if relation is not None:
        server.attach_relation(relation)
    await server.start()
    ready = {"port": server.port, "pid": os.getpid(), "ready_at": time.time()}
    if relation is not None:
        ready["epoch"] = relation.pin_epoch().to_json()
    print("READY " + json.dumps(ready), flush=True)
    loop = asyncio.get_running_loop()
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if not line or line.strip() == "STOP":
            break
    await server.stop()
    if tracer is not None:
        tracer.dump(args.spans)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(scenario.RELATION_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--elements", type=int, required=True)
    parser.add_argument("--dir", required=True, help="scratch directory for WAL and .seg files")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where the traced pass writes its spans (JSON lines)")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    asyncio.run(serve(args, tracer))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
