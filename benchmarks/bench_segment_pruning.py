"""Segment pruning benchmark: zone maps and the current-state view.

Measures the tentpole claims of the segmented transaction-time store:

1. a point timeslice on a segmented relation examines >= 5x fewer
   elements than the naive full scan at 100k elements -- on a
   bounded relation (declared offsets narrow the range first), on a
   sequential relation, and for a plain relation's timeslice spec run
   straight through the scan contract, where zone maps alone do the
   pruning;
2. ``current()`` examines exactly the live elements (the materialized
   view), not the whole history -- with 90% of history closed, the
   history/examined ratio is 10x.

Run directly::

    PYTHONPATH=src python benchmarks/bench_segment_pruning.py            # full (100k)
    PYTHONPATH=src python benchmarks/bench_segment_pruning.py --quick    # CI smoke (10k)

The script exits non-zero when a claim fails, so CI can use it as a
regression gate; ``--emit-json`` also diffs the machine-independent
numbers against ``benchmarks/thresholds.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

#: BENCH_*.json destination when --emit-json names no directory.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.timestamp import Timestamp
from repro.observability import metrics
from repro.observability.timing import best_of
from repro.query import NaiveExecutor, Planner, Scan, ValidTimeslice, operators
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.columnar import ScanSpec
from repro.storage.memory import MemoryEngine
from repro.workloads.base import seeded


def build_events(count, specializations, offset_of, segment_size=None):
    schema = TemporalSchema(name="r", specializations=list(specializations))
    clock = SimulatedWallClock(start=0)
    engine = MemoryEngine(segment_size=segment_size)
    relation = TemporalRelation(schema, clock=clock, engine=engine)
    for i in range(count):
        clock.advance_to(Timestamp(10 * i))
        relation.insert("o", Timestamp(10 * i + offset_of(i)), {})
    return relation, clock


def run_timeslice(relation, probe, spec_only=False) -> Dict[str, Any]:
    """The planned timeslice beside the naive full scan.  With
    *spec_only* the timeslice's :class:`ScanSpec` runs straight through
    the store's kernel, ``engine.store.select`` (zone maps prune, then
    the column kernel) -- the engine answers an undeclared live
    timeslice from the valid-time index."""
    query = ValidTimeslice(Scan(relation), probe)
    executor = NaiveExecutor()
    naive_ms = best_of(lambda: NaiveExecutor().run(query))
    executor.run(query)
    if spec_only:
        spec = ScanSpec.of(probe)
        store = relation.engine.store
        plan_ms = best_of(lambda: store.select(spec))
        stats = operators.SegmentStats()
        strategy, (_matches, examined) = "scan-spec", store.select(spec, stats)
    else:
        plan = Planner(relation).plan(query)
        plan_ms = best_of(lambda: Planner(relation).plan(query).execute())
        plan.execute()
        strategy, examined, stats = plan.strategy, plan.examined, plan.segment_stats
    out = {
        "strategy": strategy,
        "examined_naive": executor.examined,
        "examined_planned": examined,
        "ratio": executor.examined / max(examined, 1),
        "naive_ms": naive_ms,
        "planned_ms": plan_ms,
    }
    if stats is not None:
        out["segments_scanned"] = stats.scanned
        out["segments_pruned"] = stats.pruned
    return out


def describe(label: str, data: Dict[str, Any]) -> None:
    segments = ""
    if "segments_scanned" in data:
        segments = (
            f", segments {data['segments_scanned']} scanned"
            f" / {data['segments_pruned']} pruned"
        )
    print(
        f"  {label}: {data['strategy']}, examined "
        f"{data['examined_naive']} -> {data['examined_planned']} "
        f"({data['ratio']:.1f}x){segments}"
    )


def bench_timeslices(count: int, segment_size: Optional[int]) -> Dict[str, Any]:
    print(f"timeslice pruning, {count} elements:")
    probe = Timestamp(10 * (count // 2))

    rng = seeded(300)
    bounded, _ = build_events(
        count,
        ["strongly bounded(300s, 300s)"],
        lambda i: rng.randint(-300, 300),
        segment_size=segment_size,
    )
    bounded_data = run_timeslice(bounded, probe)
    describe("bounded", bounded_data)
    del bounded

    sequential, _ = build_events(
        count, ["globally sequential"], lambda i: -4, segment_size=segment_size
    )
    sequential_data = run_timeslice(sequential, Timestamp(10 * (count // 2) - 4))
    describe("sequential", sequential_data)
    del sequential

    # No declarations and the spec run directly: zone maps are the only
    # pruning, so this isolates what segmentation alone buys.
    plain, _ = build_events(count, [], lambda i: 0, segment_size=segment_size)
    pruned_data = run_timeslice(plain, probe, spec_only=True)
    describe("zone-map only", pruned_data)
    del plain

    return {
        "bounded": bounded_data,
        "sequential": sequential_data,
        "zone_map_only": pruned_data,
    }


def bench_current(count: int, segment_size: Optional[int]) -> Dict[str, Any]:
    live_target = count // 10
    print(f"current-state view, {count} elements, {live_target} live:")
    relation, clock = build_events(count, [], lambda i: 0, segment_size=segment_size)
    clock.advance_to(Timestamp(10 * count + 10))
    elements = relation.all_elements()
    for i, element in enumerate(elements):
        if i % 10 != 0:
            relation.delete(element.element_surrogate)

    view_ms = best_of(relation.current)
    scan_ms = best_of(
        lambda: [e for e in relation.engine.scan() if e.is_current]
    )
    examined = len(relation.current())
    live = relation.live_count()
    history = len(relation.engine)
    print(
        f"  view read: {examined} examined (live={live}, history={history}) "
        f"in {view_ms:.3f} ms; scan-filter reference {scan_ms:.3f} ms"
    )
    return {
        "history": history,
        "live": live,
        "examined_current": examined,
        "history_ratio": history / max(examined, 1),
        "view_ms": view_ms,
        "scan_filter_ms": scan_ms,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: 10k elements"
    )
    parser.add_argument(
        "--emit-json",
        nargs="?",
        const=REPO_ROOT,
        default=None,
        metavar="DIR",
        help="write BENCH_segment_pruning.json and gate the results "
        "against benchmarks/thresholds.json",
    )
    args = parser.parse_args(argv)
    count = 10_000 if args.quick else 100_000
    # At smoke size the default 4096-element segments leave too few
    # segments for pruning ratios to mean anything; scale them down so
    # the quick run exercises the same ~24-segment shape as the full one.
    segment_size = 512 if args.quick else None

    if args.emit_json is not None:
        metrics.enable()
        metrics.reset()

    slices = bench_timeslices(count, segment_size)
    current = bench_current(count, segment_size)

    results: Dict[str, Any] = {
        "count": count,
        "timeslices": slices,
        "current": current,
        "timeslice_pruned_ratio": slices["zone_map_only"]["ratio"],
        "bounded_window_ratio": slices["bounded"]["ratio"],
        "sequential_ratio": slices["sequential"]["ratio"],
        "current_history_ratio": current["history_ratio"],
    }

    failed = False
    for name in ("timeslice_pruned_ratio", "bounded_window_ratio", "sequential_ratio"):
        if results[name] < 5.0:
            print(f"FAIL: {name} {results[name]:.1f}x below the 5x target")
            failed = True
    if current["examined_current"] != current["live"]:
        print(
            f"FAIL: current() examined {current['examined_current']} != "
            f"live {current['live']} -- view is not O(live)"
        )
        failed = True

    if args.emit_json is not None:
        from report import check_thresholds, write_bench_json

        write_bench_json(
            "segment_pruning",
            results,
            parameters={"quick": args.quick, "count": count},
            directory=args.emit_json,
        )
        metrics.disable()
        benchmark = "segment_pruning_quick" if args.quick else "segment_pruning"
        for line in check_thresholds(results, benchmark):
            print(f"FAIL: {line}")
            failed = True

    if not failed:
        print("all segment-pruning targets met")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
