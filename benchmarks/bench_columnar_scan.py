"""Columnar stamp-kernel benchmark: column kernels vs object predicates.

Measures the tentpole claim of the columnar sidecar: on segments that
survive zone-map pruning, running the range-shaped predicates as tight
integer loops over the stamp columns (with Elements materialized only
for survivors) beats evaluating the same predicates per Python object.

The comparison is apples-to-apples: one store, queried twice -- once
through ``engine.store.select(spec)`` (the kernel), once through the
reference that evaluates the same predicate on every ``Element``
(``operators.timeslice_full_scan`` / ``NaiveExecutor``, the suite's
oracles).  The workload scatters valid times widely so zone maps cannot
prune (every segment survives and must be examined row-by-row -- the
regime the sidecar exists for) while few rows actually match, which is
where late materialization pays.

1. a point timeslice runs >= 5x faster on the columns than on the
   objects at 100k elements;
2. a valid-time overlap window runs >= 3x faster;
3. rebuilding the current-state view from the live bitmap is no slower
   than the object scan (>= 1x);
4. kernel and reference return element-for-element identical answers.

Run directly::

    PYTHONPATH=src python benchmarks/bench_columnar_scan.py            # full (100k)
    PYTHONPATH=src python benchmarks/bench_columnar_scan.py --quick    # CI smoke (10k)

The script exits non-zero when a claim fails; ``--emit-json`` also
diffs the machine-independent numbers against
``benchmarks/thresholds.json``.
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
from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.observability import metrics
from repro.observability.timing import best_of
from repro.query import NaiveExecutor, Scan, ValidOverlap, operators
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.columnar import ScanSpec
from repro.storage.memory import MemoryEngine
from repro.workloads.base import seeded


def build_events(count, offset_of, specializations=(), segment_size=None):
    schema = TemporalSchema(name="r", specializations=list(specializations))
    clock = SimulatedWallClock(start=0)
    engine = MemoryEngine(segment_size=segment_size)
    relation = TemporalRelation(schema, clock=clock, engine=engine)
    rows = [("o", Timestamp(10 * i + offset_of(i)), {}) for i in range(count)]
    clock.advance_to(Timestamp(0))
    relation.append_many(rows)
    clock.advance_to(Timestamp(10 * count + 10))
    return relation, clock


def compare(label: str, run, reference) -> Dict[str, Any]:
    """Time *run* (column kernels) against *reference* (the same
    predicate evaluated per ``Element`` object)."""
    columnar_ms = best_of(lambda: run()[0])
    columnar_rows, stats = run()
    object_ms = best_of(reference)
    object_rows = reference()
    identical = [repr(e) for e in columnar_rows] == [repr(e) for e in object_rows]
    data = {
        "matches": len(columnar_rows),
        "columnar_ms": columnar_ms,
        "object_ms": object_ms,
        "speedup": object_ms / max(columnar_ms, 1e-9),
        "identical": 1.0 if identical else 0.0,
    }
    if stats is not None:
        data["positions_examined"] = stats.positions_examined
        data["materialized"] = stats.materialized
    print(
        f"  {label}: {data['matches']} matches, object {object_ms:.3f} ms -> "
        f"columnar {columnar_ms:.3f} ms ({data['speedup']:.1f}x), "
        f"identical={identical}"
    )
    return data


def bench_timeslice(relation, probe) -> Dict[str, Any]:
    def run():
        stats = operators.SegmentStats()
        rows, _examined = relation.engine.store.select(ScanSpec.of(probe), stats)
        return rows, stats

    return compare(
        "timeslice", run, lambda: operators.timeslice_full_scan(relation, probe)[0]
    )


def bench_overlap(relation, window) -> Dict[str, Any]:
    # No declared bounds: the spec keeps the full transaction-time
    # range, so the kernel-vs-object comparison covers every row.
    def run():
        stats = operators.SegmentStats()
        rows, _examined = relation.engine.store.select(ScanSpec.of(window), stats)
        return rows, stats

    query = ValidOverlap(Scan(relation), window)
    return compare("overlap", run, lambda: NaiveExecutor().run(query))


def bench_current_rebuild(relation) -> Dict[str, Any]:
    store = relation.engine.store

    def run():
        store.invalidate_view()
        return relation.current(), None

    def reference():
        # The same surrogate -> position view, built by probing
        # ``is_current`` on every historical object, then read back.
        elements = list(store)
        view = {}
        for position, element in enumerate(elements):
            if element.is_current:
                view[element.element_surrogate] = position
        return [elements[position] for position in view.values()]

    return compare("current rebuild", run, reference)


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
        help="write BENCH_columnar_scan.json and gate the results "
        "against benchmarks/thresholds.json",
    )
    args = parser.parse_args(argv)
    count = 10_000 if args.quick else 100_000
    segment_size = 512 if args.quick else None

    if args.emit_json is not None:
        metrics.enable()
        metrics.reset()

    # Valid times scattered across the whole line: every segment's zone
    # covers every probe (nothing prunes), few rows match any probe.
    rng = seeded(500)
    span = 10 * count
    relation, clock = build_events(
        count, lambda i: rng.randint(-span // 2, span // 2), segment_size=segment_size
    )
    for element in relation.all_elements()[::10]:
        relation.delete(element.element_surrogate)

    # Probe an actual stored valid time so the timeslice materializes
    # real survivors (late materialization, not just an empty scan).
    probe = relation.all_elements()[count // 2 + 1].vt
    window = Interval(Timestamp(10 * (count // 2)), Timestamp(10 * (count // 2) + 500))

    print(f"columnar kernels vs object predicates, {count} elements:")
    timeslice = bench_timeslice(relation, probe)
    overlap = bench_overlap(relation, window)
    current = bench_current_rebuild(relation)

    results: Dict[str, Any] = {
        "count": count,
        "timeslice": timeslice,
        "overlap": overlap,
        "current_rebuild": current,
        "timeslice_speedup": timeslice["speedup"],
        "overlap_speedup": overlap["speedup"],
        "current_rebuild_speedup": current["speedup"],
        "paths_identical": min(
            timeslice["identical"], overlap["identical"], current["identical"]
        ),
    }

    failed = False
    for name, target in (
        ("timeslice_speedup", 5.0),
        ("overlap_speedup", 3.0),
        ("current_rebuild_speedup", 1.0),
    ):
        if results[name] < target:
            print(f"FAIL: {name} {results[name]:.1f}x below the {target:.0f}x target")
            failed = True
    if results["paths_identical"] != 1.0:
        print("FAIL: kernel and reference answers disagree")
        failed = True

    if args.emit_json is not None:
        from report import check_thresholds, write_bench_json

        write_bench_json(
            "columnar_scan",
            results,
            parameters={"quick": args.quick, "count": count},
            directory=args.emit_json,
        )
        metrics.disable()
        benchmark = "columnar_scan_quick" if args.quick else "columnar_scan"
        for line in check_thresholds(results, benchmark):
            print(f"FAIL: {line}")
            failed = True

    if not failed:
        print("all columnar-scan targets met")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
