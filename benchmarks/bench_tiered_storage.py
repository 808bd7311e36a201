"""Tiered-storage benchmark: compressed cold segments vs flat memory.

Measures the tentpole claims of the two-tier storage engine:

1. **Resident footprint**: after compaction demotes sealed history to
   compressed ``.seg`` files (delta/RLE stamp columns, mmap-served),
   the store retains >= 4x less Python heap than the flat in-memory
   store holding the same elements (tracemalloc, steady cold state).
2. **Timeslice latency**: the stamp kernels running over lazily-decoded
   cold columns keep the columnar sidecar's speedup over evaluating the
   predicate on every decoded ``Element`` (the reference full scan) --
   demotion must not give back what PR 5 won.
3. **Bisect latency**: transaction-time cuts on cold segments answer
   from the compressed delta blocks (at most one block decoded per
   probe), keeping the bitemporal kernels' speedup as well.
4. **Identity ledger**: tiered kernel, tiered reference scan, and the
   flat store return element-for-element identical answers.

The workload closes ~90% of elements while their segments are still
hot (so compression sees realistic mostly-dead history and the live
bitmap RLE-compresses), with a per-element payload so the flat store's
footprint is honest.

Run directly::

    PYTHONPATH=src python benchmarks/bench_tiered_storage.py           # full (1M)
    PYTHONPATH=src python benchmarks/bench_tiered_storage.py --quick   # CI smoke (60k)

The script exits non-zero when a claim fails; ``--emit-json`` also
diffs the machine-independent numbers against
``benchmarks/thresholds.json``.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tracemalloc
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

#: BENCH_*.json destination when --emit-json names no directory.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.timestamp import Timestamp
from repro.observability.timing import best_of
from repro.query import BitemporalSlice, NaiveExecutor, Scan, operators
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.columnar import ScanSpec
from repro.storage.memory import MemoryEngine
from repro.workloads.base import seeded

SEGMENT = 4096
CLOSE_FRACTION = 0.9


def build_relation(count: int, tier_dir: Optional[str]) -> Tuple[TemporalRelation, Any]:
    """One relation: *count* inserts, ~90% closed while their segment is
    still hot (ahead of auto-demotion's hot reserve)."""
    schema = TemporalSchema(name="r", time_varying=("payload",))
    clock = SimulatedWallClock(start=0)
    engine = MemoryEngine(segment_size=SEGMENT, tier_dir=tier_dir)
    relation = TemporalRelation(schema, clock=clock, engine=engine)
    rng = seeded(1992)
    span = 10 * count
    tick = 0
    for base in range(0, count, SEGMENT):
        batch = []
        for i in range(base, min(base + SEGMENT, count)):
            batch.append(
                (
                    f"obj-{i}",
                    Timestamp(rng.randint(0, span)),
                    {"payload": f"reading-{i}-{i * 7919 % 1000}"},
                )
            )
        tick += 100
        clock.advance_to(Timestamp(tick))
        appended = relation.append_many(batch)
        # Close 90% of THIS batch immediately: the segment is at most
        # one block old, far inside the hot reserve, so every close
        # lands in memory (no cold patches) before demotion seals it.
        tick += 100
        clock.advance_to(Timestamp(tick))
        close = [e.element_surrogate for e in appended]
        rng.shuffle(close)
        for surrogate in close[: int(len(close) * CLOSE_FRACTION)]:
            relation.delete(surrogate)
    return relation, clock


def measured_build(count: int, tier_dir: Optional[str]) -> Tuple[TemporalRelation, int]:
    """Build under tracemalloc; returns (relation, resident_bytes) where
    resident is the traced heap AFTER compaction and cache release (the
    steady cold state a long-running server sits in)."""
    gc.collect()
    tracemalloc.start()
    relation, _clock = build_relation(count, tier_dir)
    store = relation.engine.store
    if store.tiering is not None:
        store.compact()
        store.tiering.release_all()
    gc.collect()
    resident, _peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return relation, resident


def compare(
    label: str, tiered_relation, flat_relation, spec, reference, object_repeats: int = 5
) -> Dict[str, Any]:
    """Time *spec* on the tiered relation's kernels (``engine.store.select``)
    against *reference* (the same predicate on every decoded object of
    that relation); check both against the flat store's answer."""

    def tiered_run():
        stats = operators.SegmentStats()
        rows, _examined = tiered_relation.engine.store.select(spec, stats)
        return rows, stats

    kernel_ms = best_of(lambda: tiered_run()[0])
    kernel_rows, stats = tiered_run()
    assert stats.cold_segments, f"{label}: no cold segments served"
    # The reference re-decodes every cold segment per run (the scan
    # exceeds the tier cache), so each repeat does the same
    # deterministic decode work -- few repeats are stable.
    object_ms = best_of(reference, repeats=object_repeats)
    object_rows = reference()
    flat_rows, _examined = flat_relation.engine.store.select(spec)
    ledger = [repr(e) for e in kernel_rows]
    identical = ledger == [repr(e) for e in object_rows] and ledger == [
        repr(e) for e in flat_rows
    ]
    data = {
        "matches": len(kernel_rows),
        "kernel_ms": kernel_ms,
        "object_ms": object_ms,
        "speedup": object_ms / max(kernel_ms, 1e-9),
        "identical": 1.0 if identical else 0.0,
    }
    print(
        f"  {label}: {data['matches']} matches, object {object_ms:.3f} ms -> "
        f"cold kernels {kernel_ms:.3f} ms ({data['speedup']:.1f}x), "
        f"identical={identical}"
    )
    return data


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: 60k elements"
    )
    parser.add_argument(
        "--emit-json",
        nargs="?",
        const=REPO_ROOT,
        default=None,
        metavar="DIR",
        help="write BENCH_tiered_storage.json and gate the results "
        "against benchmarks/thresholds.json",
    )
    args = parser.parse_args(argv)
    count = 60_000 if args.quick else 1_000_000

    print(f"tiered storage vs flat memory, {count} elements:")
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-bench-tier-") as tier_dir:
        flat_relation, flat_resident = measured_build(count, tier_dir=None)
        tiered_relation, tiered_resident = measured_build(count, tier_dir)
        store = tiered_relation.engine.store
        assert store.cold_base > 0, "nothing demoted -- bench is vacuous"
        footprint_ratio = flat_resident / max(tiered_resident, 1)
        disk = store.tiering.statistics()["tier_bytes_written"]
        print(
            f"  footprint: flat {flat_resident / 1e6:.1f} MB -> tiered "
            f"{tiered_resident / 1e6:.1f} MB resident ({footprint_ratio:.1f}x, "
            f"{disk / 1e6:.1f} MB compressed on disk, "
            f"{store._cold} cold segments)"
        )

        # Probe a surviving element's valid time so the answer is
        # non-empty and the identity ledger compares real rows.
        live = [e for e in flat_relation.all_elements() if e.is_current]
        probe = live[len(live) // 2].vt
        as_of = Timestamp(5 * count)

        object_repeats = 5 if args.quick else 2
        slice_query = BitemporalSlice(Scan(tiered_relation), probe, as_of)
        timeslice = compare(
            "timeslice",
            tiered_relation,
            flat_relation,
            ScanSpec.of(probe),
            lambda: operators.timeslice_full_scan(tiered_relation, probe)[0],
            object_repeats,
        )
        bisect = compare(
            "bisect",
            tiered_relation,
            flat_relation,
            ScanSpec.of(probe, as_of),
            lambda: NaiveExecutor().run(slice_query),
            object_repeats,
        )

    results: Dict[str, Any] = {
        "count": count,
        "flat_resident_bytes": flat_resident,
        "tiered_resident_bytes": tiered_resident,
        "disk_bytes": disk,
        "timeslice": timeslice,
        "bisect": bisect,
        "footprint_ratio": footprint_ratio,
        "timeslice_speedup": timeslice["speedup"],
        "bisect_speedup": bisect["speedup"],
        "results_identical": min(timeslice["identical"], bisect["identical"]),
    }

    kernel_target = 8.0 if args.quick else 50.0
    failed = False
    for name, target in (
        ("footprint_ratio", 4.0),
        ("timeslice_speedup", kernel_target),
        ("bisect_speedup", kernel_target),
    ):
        # Same 20% machine-noise tolerance the thresholds gate applies.
        if results[name] < target * 0.8:
            print(f"FAIL: {name} {results[name]:.1f}x below the {target:.0f}x target")
            failed = True
    if results["results_identical"] != 1.0:
        print("FAIL: tiered and flat answers disagree")
        failed = True

    if args.emit_json is not None:
        from report import check_thresholds, write_bench_json

        write_bench_json(
            "tiered_storage",
            results,
            parameters={"quick": args.quick, "count": count},
            directory=args.emit_json,
        )
        benchmark = "tiered_storage_quick" if args.quick else "tiered_storage"
        for line in check_thresholds(results, benchmark):
            print(f"FAIL: {line}")
            failed = True

    if not failed:
        print("all tiered-storage targets met")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
