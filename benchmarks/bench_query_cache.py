"""Epoch-keyed response caching: hot repeated server reads vs uncached.

The caching claim (docs/caching.md): between commits a relation is
immutable, so the second identical pinned read should cost a
dictionary lookup, not a scan and an encode.  The benchmark drives hot
repeated GETs against a live :class:`~repro.server.app.TemporalServer`
with the response cache on vs off (``cache_entries=0``), reporting mean
and p99 latency.

Gates (``benchmarks/thresholds.json``, always applied): a cached server
read must cost no more than an absolute bound
(``server_cached_mean_ms``), and the cached body must be identical to
the uncached one.  The bound used to be a cached/uncached ratio; every
time the *uncached* path got faster (the pool dispatch going, then
pinned reads joining the scan contract) the ratio shrank and the gate
punished the improvement, so it bounds the cached path itself.  The
ratios are still printed.

Run directly::

    PYTHONPATH=src python benchmarks/bench_query_cache.py           # full (120k)
    PYTHONPATH=src python benchmarks/bench_query_cache.py --quick   # CI smoke (40k)

The script exits non-zero when a gate fails; ``--emit-json`` also writes
``BENCH_query_cache.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

#: BENCH_*.json destination when --emit-json names no directory.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from repro.chronos.clock import LogicalClock
from repro.chronos.timestamp import Timestamp
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.server import ServerClient, ServerConfig, TemporalServer
from repro.storage.memory import MemoryEngine
from repro.workloads.base import seeded

SERVER_READS = 200


def build_relation(count: int) -> TemporalRelation:
    """A general relation (no declarations): the uncached timeslice
    is the work the cache claims to spare."""
    schema = TemporalSchema(name="cachebench", time_varying=("reading",))
    relation = TemporalRelation(
        schema,
        clock=LogicalClock(start=1),
        engine=MemoryEngine(),
    )
    rng = seeded(1992)
    span = 2 * count
    relation.append_many(
        (
            (f"obj-{i}", Timestamp(rng.randint(0, span)), {"reading": i})
            for i in range(count)
        )
    )
    return relation


async def _server_reads(count: int, cache_entries: int) -> Tuple[List[float], bytes]:
    relation = build_relation(count)
    probe = relation.all_elements()[count // 2].vt
    config = ServerConfig(port=0, metrics=False, cache_entries=cache_entries)
    server = TemporalServer(config)
    server.attach_relation(relation)
    await server.start()
    latencies: List[float] = []
    body = b""
    try:
        client = ServerClient(config.host, server.port)
        await client.connect()
        try:
            await client.timeslice("cachebench", vt=probe.microseconds)  # warm
            for _ in range(SERVER_READS):
                started = time.perf_counter()
                response = await client.timeslice(
                    "cachebench", vt=probe.microseconds
                )
                latencies.append(time.perf_counter() - started)
                body = response.body
        finally:
            await client.close()
    finally:
        await server.stop()
    return latencies, body


def server_phase(count: int) -> Dict[str, Any]:
    off_lat, off_body = asyncio.run(_server_reads(count, cache_entries=0))
    on_lat, on_body = asyncio.run(_server_reads(count, cache_entries=256))
    off_lat.sort()
    on_lat.sort()

    def p99(sorted_lat: List[float]) -> float:
        return sorted_lat[min(len(sorted_lat) - 1, int(len(sorted_lat) * 0.99))]

    off_mean = sum(off_lat) / len(off_lat)
    on_mean = sum(on_lat) / len(on_lat)
    return {
        "server_uncached_mean_ms": off_mean * 1_000,
        "server_cached_mean_ms": on_mean * 1_000,
        "server_uncached_p99_ms": p99(off_lat) * 1_000,
        "server_cached_p99_ms": p99(on_lat) * 1_000,
        "server_hot_read_speedup": off_mean / max(on_mean, 1e-9),
        "server_p99_speedup": p99(off_lat) / max(p99(on_lat), 1e-9),
        "server_bodies_identical": 1.0 if off_body == on_body else 0.0,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: 40k elements"
    )
    parser.add_argument(
        "--emit-json",
        nargs="?",
        const=REPO_ROOT,
        default=None,
        metavar="DIR",
        help="also write BENCH_query_cache.json",
    )
    args = parser.parse_args(argv)
    count = 40_000 if args.quick else 120_000

    print(f"epoch-keyed response caching, {count} elements, {SERVER_READS} reads:")
    results: Dict[str, Any] = {"count": count, "reads": SERVER_READS}
    results.update(server_phase(count))
    print(
        "  server:    mean {server_uncached_mean_ms:.2f} ms -> "
        "{server_cached_mean_ms:.2f} ms ({server_hot_read_speedup:.1f}x), "
        "p99 {server_uncached_p99_ms:.2f} ms -> {server_cached_p99_ms:.2f} ms"
        .format(**results)
    )

    from report import check_thresholds, write_bench_json

    if args.emit_json is not None:
        write_bench_json(
            "query_cache",
            results,
            parameters={"quick": args.quick, "count": count},
            directory=args.emit_json,
        )
    failed = False
    for line in check_thresholds(results, "query_cache_quick" if args.quick else "query_cache"):
        print(f"FAIL: {line}")
        failed = True

    if not failed:
        print("all query-cache targets met")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
