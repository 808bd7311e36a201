"""Standing-view maintenance: delta application vs from-scratch recompute.

The continuous-query claim: once a standing view is registered, keeping
its answer fresh across a live mutation stream costs O(1) per delta --
the registry folds each committed mutation into the materialized
result -- where the naive alternative recomputes the query from scratch
on every poll.  At 100k elements of history the maintained path must
be >= 10x faster than recomputation, and byte-identical to it.

The baseline relation is the general case (no declared
specializations): exactly the relation a standing query would otherwise
re-run against.  Three view shapes ride the same stream:

* ``timeslice`` -- ``valid_at(vt)`` over the current state;
* ``overlap``   -- ``valid_overlapping([start, end))``;
* ``watch``     -- a constraint-violation predicate over live elements.

Run directly::

    PYTHONPATH=src python benchmarks/bench_standing_views.py           # full (100k)
    PYTHONPATH=src python benchmarks/bench_standing_views.py --quick   # CI smoke (20k)

The script exits non-zero when a claim fails; ``--emit-json`` also
diffs the machine-independent numbers against
``benchmarks/thresholds.json``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

#: BENCH_*.json destination when --emit-json names no directory.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from repro.chronos.clock import LogicalClock
from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.memory import MemoryEngine
from repro.workloads.base import seeded

BATCH = 5_000
DELETE_RATE = 0.2
STREAM_ROUNDS = 200


def build_relation(count: int) -> TemporalRelation:
    """*count* inserts with ~20% interleaved deletes: realistic history."""
    schema = TemporalSchema(name="standing", time_varying=("reading",))
    relation = TemporalRelation(
        schema,
        clock=LogicalClock(start=1),
        engine=MemoryEngine(),
    )
    rng = seeded(1992)
    span = 2 * count
    for base in range(0, count, BATCH):
        size = min(BATCH, count - base)
        appended = relation.append_many(
            (
                (f"obj-{base + i}", Timestamp(rng.randint(0, span)), {"reading": i})
                for i in range(size)
            )
        )
        for element in appended[: int(size * DELETE_RATE)]:
            relation.delete(element.element_surrogate)
    return relation


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke mode: 20k elements"
    )
    parser.add_argument(
        "--emit-json",
        nargs="?",
        const=REPO_ROOT,
        default=None,
        metavar="DIR",
        help="write BENCH_standing_views.json and gate the results "
        "against benchmarks/thresholds.json",
    )
    args = parser.parse_args(argv)
    count = 20_000 if args.quick else 100_000

    print(f"standing-view maintenance vs recompute, {count} elements of history:")
    relation = build_relation(count)
    rng = seeded(7919)
    span = 2 * count

    registry = relation.views
    # Probe a vt that actually occurs so the timeslice answer is real.
    live = relation.current()
    probe = live[len(live) // 2].vt
    window = Interval(Timestamp(span // 4), Timestamp(span // 4 + span // 100))
    started = time.perf_counter()
    views = [
        registry.register_timeslice("slice", probe),
        registry.register_overlap("window", window),
        registry.register_watch(
            "hot", lambda element: (element.time_varying.get("reading") or 0) > 4_900
        ),
    ]
    registration_ms = (time.perf_counter() - started) * 1_000
    print(
        f"  registered 3 views in {registration_ms:.1f} ms "
        f"(sizes: {[len(view) for view in views]})"
    )

    # One live mutation stream; after every round the maintained path
    # reads each view's materialized answer while the naive path
    # recomputes it from the engine.  The mutation itself is common to
    # both strategies and excluded from both timers.
    maintained_s = 0.0
    recompute_s = 0.0
    identical = True
    for round_index in range(STREAM_ROUNDS):
        relation.insert(
            f"live-{round_index}",
            Timestamp(rng.randint(0, span)),
            {"reading": rng.randint(0, 1000)},
        )
        if round_index % 3 == 2:
            live = relation.current()
            relation.delete(live[rng.randint(0, len(live) - 1)].element_surrogate)

        started = time.perf_counter()
        maintained = [view.snapshot() for view in views]
        maintained_s += time.perf_counter() - started

        started = time.perf_counter()
        recomputed = [view.recompute() for view in views]
        recompute_s += time.perf_counter() - started

        if round_index % 20 == 0 and maintained != recomputed:
            identical = False

    if [view.snapshot() for view in views] != [view.recompute() for view in views]:
        identical = False

    maintained_ms = maintained_s * 1_000
    recompute_ms = recompute_s * 1_000
    speedup = recompute_s / max(maintained_s, 1e-9)
    per_round_us = maintained_s / STREAM_ROUNDS * 1e6
    print(
        f"  {STREAM_ROUNDS} mutation rounds: recompute {recompute_ms:.1f} ms -> "
        f"maintained {maintained_ms:.1f} ms ({speedup:.0f}x, "
        f"{per_round_us:.1f} us/round maintained), identical={identical}"
    )

    results: Dict[str, Any] = {
        "count": count,
        "stream_rounds": STREAM_ROUNDS,
        "registration_ms": registration_ms,
        "maintained_ms": maintained_ms,
        "recompute_ms": recompute_ms,
        "maintenance_speedup": speedup,
        "results_identical": 1.0 if identical else 0.0,
    }

    failed = False
    if results["maintenance_speedup"] < 10.0 * 0.8:  # same 20% noise margin as CI
        print(
            f"FAIL: maintenance_speedup {speedup:.1f}x below the 10x target"
        )
        failed = True
    if results["results_identical"] != 1.0:
        print("FAIL: maintained views diverged from recomputation")
        failed = True

    if args.emit_json is not None:
        from report import check_thresholds, write_bench_json

        write_bench_json(
            "standing_views",
            results,
            parameters={"quick": args.quick, "count": count},
            directory=args.emit_json,
        )
        benchmark = "standing_views_quick" if args.quick else "standing_views"
        for line in check_thresholds(results, benchmark):
            print(f"FAIL: {line}")
            failed = True

    if not failed:
        print("all standing-view targets met")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
