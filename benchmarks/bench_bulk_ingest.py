"""Batched ingestion benchmark: ``append_many`` vs element-at-a-time.

Measures the bulk-ingestion path:

1. on the memory engine, one ``append_many`` of every row, against a
   loop of single ``insert`` calls (the speedup is printed; the gate
   is the batch's own time, since a faster ``insert`` shrinks the ratio
   without the batch getting any slower);
2. a constraint-checked batch (declared specializations validated in
   one amortized pass) stays within 2x of an unchecked batch;
3. the durable engine's batch effect: one fsync per batch for the
   log-file engine.

Run directly::

    PYTHONPATH=src python benchmarks/bench_bulk_ingest.py            # full (100k)
    PYTHONPATH=src python benchmarks/bench_bulk_ingest.py --quick    # CI smoke (10k)

The script exits non-zero when claim 2 fails or, at 10k or 100k rows
(the sizes its bounds were set for), a result regresses against
``benchmarks/thresholds.json``, so CI can use it as a gate.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import tempfile
from typing import Any, Dict, List, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

#: BENCH_*.json destination when --emit-json names no directory.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from repro.chronos.timestamp import Timestamp
from repro.observability import metrics
from repro.observability.timing import timed
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import InsertRow, TemporalRelation
from repro.storage.logfile import LogFileEngine


def make_rows(count: int, shuffled: bool = True) -> List[InsertRow]:
    """Event rows with retroactive stamps (vt well before any tt).

    ``shuffled`` models the general heavy-traffic case: facts about the
    past arriving in arbitrary order, so the valid-time index cannot
    treat insertions as appends.  This is where element-at-a-time
    maintenance degrades to O(n) list insertions per element while the
    batch path sorts once and merges once.
    """
    vts = list(range(-1_000_000, -1_000_000 + count))
    if shuffled:
        random.Random(42).shuffle(vts)
    return [
        (f"obj-{i % 97}", Timestamp(vt), {"reading": float(i)})
        for i, vt in enumerate(vts)
    ]


def event_schema(specializations: Tuple[str, ...] = ()) -> TemporalSchema:
    return TemporalSchema(
        name="ingest",
        time_varying=("reading",),
        specializations=list(specializations),
    )


def bench_memory(count: int) -> Tuple[float, float]:
    print(f"memory engine, {count} elements (out-of-order valid times):")
    rows = make_rows(count)

    batch_rel = TemporalRelation(event_schema())
    batched = timed("append_many (unchecked)", lambda: batch_rel.append_many(rows))
    batch_stored = len(batch_rel)
    del batch_rel

    one_rel = TemporalRelation(event_schema())

    def one_at_a_time() -> None:
        for object_surrogate, vt, attributes in rows:
            one_rel.insert(object_surrogate, vt, attributes)

    single = timed("element-at-a-time insert", one_at_a_time)
    assert batch_stored == len(one_rel) == count
    del one_rel

    sorted_rows = make_rows(count, shuffled=False)
    sorted_batch_rel = TemporalRelation(event_schema())
    sorted_batch = timed(
        "  (reference) sorted-vt append_many",
        lambda: sorted_batch_rel.append_many(sorted_rows),
    )
    del sorted_batch_rel
    sorted_single_rel = TemporalRelation(event_schema())

    def sorted_one_at_a_time() -> None:
        for object_surrogate, vt, attributes in sorted_rows:
            sorted_single_rel.insert(object_surrogate, vt, attributes)

    sorted_single = timed("  (reference) sorted-vt single insert", sorted_one_at_a_time)
    del sorted_single_rel

    speedup = single / batched
    print(f"  -> batch speedup: {speedup:.1f}x")
    print(f"  -> sorted-vt batch speedup: {sorted_single / sorted_batch:.1f}x")
    return speedup, batched


def bench_checked(count: int, unchecked: float) -> float:
    print(f"constraint-checked batch, {count} elements:")
    rows = make_rows(count)
    checked_rel = TemporalRelation(event_schema(("retroactive",)))
    checked = timed(
        "append_many (retroactive declared)",
        lambda: checked_rel.append_many(rows),
    )
    ratio = checked / unchecked
    print(f"  -> checked/unchecked ratio: {ratio:.2f}x (target <= 2x)")
    return ratio


def bench_engines(count: int) -> None:
    print(f"log-file engine, {count} elements per batch:")
    rows = make_rows(count)
    with tempfile.TemporaryDirectory() as tmp:
        engine = LogFileEngine(os.path.join(tmp, "ingest.jsonl"))
        log_rel = TemporalRelation(event_schema(), engine=engine)
        timed("logfile append_many (one fsync)", lambda: log_rel.append_many(rows))
        engine.close()


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: 10k elements, skip the log-file engine batch",
    )
    parser.add_argument(
        "--count",
        type=int,
        default=None,
        help="override the element count (default: 100000, or 10000 with --quick)",
    )
    parser.add_argument(
        "--emit-json",
        nargs="?",
        const=REPO_ROOT,
        default=None,
        metavar="DIR",
        help="run with metrics enabled and write BENCH_bulk_ingest.json",
    )
    args = parser.parse_args(argv)
    count = args.count if args.count is not None else (10_000 if args.quick else 100_000)

    if args.emit_json is not None:
        metrics.enable()
        metrics.reset()
    speedup, batched = bench_memory(count)
    ratio = bench_checked(count, batched)
    if not args.quick:
        bench_engines(min(count, 20_000))

    failed = False
    if ratio > 2.0:
        print(f"FAIL: checked/unchecked ratio {ratio:.2f}x above the 2x target")
        failed = True

    from report import check_thresholds, write_bench_json

    results: Dict[str, Any] = {
        "count": count,
        "batch_speedup": speedup,
        "batched_seconds": batched,
        "checked_ratio": ratio,
    }
    if args.emit_json is not None:
        write_bench_json(
            "bulk_ingest",
            results,
            parameters={"quick": args.quick, "count": count},
            directory=args.emit_json,
        )
        metrics.disable()
    # batched_seconds is absolute: its bounds hold only at the sizes they were set for.
    benchmark = {10_000: "bulk_ingest_quick", 100_000: "bulk_ingest"}.get(count)
    if benchmark is None:
        print(f"thresholds.json not applied: its bounds are for 10k and 100k rows, not {count}")
    for line in check_thresholds(results, benchmark) if benchmark else []:
        print(f"FAIL: {line}")
        failed = True

    if not failed:
        print("all ingestion targets met")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
