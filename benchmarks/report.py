"""Regenerate the EXPERIMENTS.md measurement tables in one run.

Usage:  python benchmarks/report.py [--quick] [--emit-json [DIR]]

Prints the E6-E8, E11, E12, and E16 tables (the measured half of the
reproduction; E1-E5 are asserted structurally by the test suite).
``--quick`` quarters the sizes for a fast smoke pass.  Wall-clock
numbers vary by machine; the *shapes* (who wins, how the win scales)
are the reproduced result.

``--emit-json`` additionally writes ``BENCH_report.json`` -- the same
numbers machine-readable, with the metrics-registry snapshot embedded
-- which is the format every ``bench_*.py`` emitter routes through
(:func:`write_bench_json`) and the CI regression gate consumes
(:func:`check_thresholds` against ``benchmarks/thresholds.json``).

All wall-clock measurement goes through
:mod:`repro.observability.timing` (``best_of`` / ``timed``), the one
stopwatch shared by the whole benchmark suite.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.timestamp import Timestamp
from repro.core.taxonomy.inference import classify
from repro.observability import metrics
from repro.observability.timing import best_of
from repro.query import (
    CurrentState,
    NaiveExecutor,
    Planner,
    Scan,
    TemporalJoin,
    ValidTimeslice,
)
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.snapshot import SnapshotCache
from repro.workloads import generate_general, generate_monitoring
from repro.workloads.base import seeded

#: The JSON schema version of every BENCH_*.json file this suite writes.
BENCH_JSON_SCHEMA_VERSION = 1

#: Default BENCH_*.json destination: the repository root, regardless of
#: the invoking working directory -- so every emitter drops artifacts
#: in one predictable place CI can upload wholesale.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

THRESHOLDS_PATH = os.path.join(os.path.dirname(__file__), "thresholds.json")

#: The committed seed run (``--quick --emit-json`` output, renamed);
#: ``--check-baseline`` diffs the machine-independent numbers against it.
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_baseline.json")


# -- machine-readable emission (shared by every bench_* script) ---------------------


def write_bench_json(
    name: str,
    results: Dict[str, Any],
    parameters: Optional[Dict[str, Any]] = None,
    directory: Optional[str] = None,
) -> str:
    """Write ``BENCH_<name>.json`` and return its path.

    *directory* of ``None`` normalizes to the repository root, so a
    bench script run from any working directory lands its artifact
    where CI's upload step looks.  The payload embeds the current
    metrics-registry snapshot, so a CI artifact carries the
    engine/planner/constraint counters alongside the wall-clock
    numbers.
    """
    if directory is None:
        directory = REPO_ROOT
    payload = {
        "schema_version": BENCH_JSON_SCHEMA_VERSION,
        "benchmark": name,
        "parameters": dict(parameters or {}),
        "results": results,
        "metrics": metrics.registry().snapshot(),
    }
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    return path


def load_thresholds(path: str = THRESHOLDS_PATH) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_thresholds(
    results: Dict[str, Any],
    benchmark: str,
    thresholds: Optional[Dict[str, Any]] = None,
) -> List[str]:
    """Compare *results* against the checked-in baselines.

    ``thresholds.json`` stores, per benchmark, per metric, a baseline
    value and a direction (``higher`` = higher is better).  A metric
    regresses when it is worse than baseline by more than the file's
    ``tolerance`` (default 20%).  Returns human-readable failure lines;
    an empty list means no regression.
    """
    if thresholds is None:
        thresholds = load_thresholds()
    tolerance = float(thresholds.get("tolerance", 0.20))
    failures: List[str] = []
    for metric, spec in thresholds.get("benchmarks", {}).get(benchmark, {}).items():
        if metric not in results:
            failures.append(f"{benchmark}.{metric}: missing from results")
            continue
        value = float(results[metric])
        baseline = float(spec["baseline"])
        higher_is_better = spec.get("direction", "higher") == "higher"
        if higher_is_better:
            floor = baseline * (1 - tolerance)
            if value < floor:
                failures.append(
                    f"{benchmark}.{metric}: {value:.3f} regressed below "
                    f"{floor:.3f} (baseline {baseline:.3f} - {tolerance:.0%})"
                )
        else:
            ceiling = baseline * (1 + tolerance)
            if value > ceiling:
                failures.append(
                    f"{benchmark}.{metric}: {value:.3f} regressed above "
                    f"{ceiling:.3f} (baseline {baseline:.3f} + {tolerance:.0%})"
                )
    return failures


def _stable_items(results: Dict[str, Any], prefix: str = ""):
    """Yield ``(dotted_key, value)`` for machine-independent leaves.

    Wall-clock leaves (``*_ms``, speedups, seconds) vary by machine and
    are skipped; sizes, operation counts, strategies, and examined
    numbers are deterministic (seeded workloads on a simulated clock)
    and must reproduce exactly.
    """
    for key, value in sorted(results.items()):
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _stable_items(value, dotted + ".")
        elif isinstance(value, list):
            for i, entry in enumerate(value):
                if isinstance(entry, dict):
                    yield from _stable_items(entry, f"{dotted}[{i}].")
        else:
            lowered = key.lower()
            if lowered.endswith("_ms") or "speedup" in lowered or "seconds" in lowered:
                continue
            yield dotted, value


def check_baseline(
    results: Dict[str, Any],
    quick: bool,
    path: str = BASELINE_PATH,
) -> List[str]:
    """Diff this run's machine-independent numbers against the seed baseline.

    Returns human-readable failure lines; empty means the run reproduces
    the committed shapes exactly.  The baseline records which sizes it
    ran at (``parameters.quick``), so a mismatched invocation fails fast
    instead of reporting every count as drifted.
    """
    with open(path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    baseline_quick = bool(baseline.get("parameters", {}).get("quick", False))
    if baseline_quick != quick:
        flag = "--quick" if baseline_quick else "full sizes"
        return [f"baseline was recorded at {flag}; rerun with matching sizes"]
    expected = dict(_stable_items(baseline.get("results", {})))
    actual = dict(_stable_items(results))
    failures: List[str] = []
    for key, value in expected.items():
        if key not in actual:
            failures.append(f"baseline key missing from this run: {key}")
        elif actual[key] != value:
            failures.append(f"{key}: {actual[key]!r} != baseline {value!r}")
    for key in actual:
        if key not in expected:
            failures.append(f"new un-baselined key: {key} (re-baseline deliberately)")
    return failures


# -- the report tables ---------------------------------------------------------------


def build_events(size, specializations, offset_of):
    schema = TemporalSchema(name="r", specializations=specializations)
    clock = SimulatedWallClock(start=0)
    relation = TemporalRelation(schema, clock=clock)
    for i in range(size):
        clock.advance_to(Timestamp(10 * i))
        relation.insert("o", Timestamp(10 * i + offset_of(i)), {})
    return relation


def table(title, header, rows):
    print(f"\n{title}")
    print("| " + " | ".join(header) + " |")
    print("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        print("| " + " | ".join(str(cell) for cell in row) + " |")


def run_timeslice_pair(relation, probe):
    query = ValidTimeslice(Scan(relation), probe)
    executor = NaiveExecutor()
    naive_ms = best_of(lambda: NaiveExecutor().run(query))
    executor.run(query)
    plan = Planner(relation).plan(query)
    plan_ms = best_of(lambda: Planner(relation).plan(query).execute())
    plan.execute()
    return plan.strategy, executor.examined, plan.examined, naive_ms, plan_ms


def e6_e7(size) -> Dict[str, Any]:
    rows = []
    data: Dict[str, Any] = {"size": size}
    degenerate = build_events(size, ["degenerate"], lambda i: 0)
    strategy, naive_x, plan_x, naive_ms, plan_ms = run_timeslice_pair(
        degenerate, Timestamp(10 * (size // 2))
    )
    rows.append(
        ("E6 degenerate", strategy, f"{naive_x} -> {plan_x}", f"{naive_ms:.2f} -> {plan_ms:.4f}")
    )
    data["e6"] = {
        "strategy": strategy,
        "examined_naive": naive_x,
        "examined_planned": plan_x,
        "naive_ms": naive_ms,
        "planned_ms": plan_ms,
    }
    sequential = build_events(size, ["globally sequential"], lambda i: -4)
    strategy, naive_x, plan_x, naive_ms, plan_ms = run_timeslice_pair(
        sequential, Timestamp(10 * (size // 2) - 4)
    )
    rows.append(
        ("E7 sequential", strategy, f"{naive_x} -> {plan_x}", f"{naive_ms:.2f} -> {plan_ms:.4f}")
    )
    data["e7"] = {
        "strategy": strategy,
        "examined_naive": naive_x,
        "examined_planned": plan_x,
        "naive_ms": naive_ms,
        "planned_ms": plan_ms,
    }
    table(
        f"E6/E7 -- timeslice on n={size} (declared vs reference)",
        ("experiment", "strategy", "examined", "time ms"),
        rows,
    )
    return data


def e8(size) -> Dict[str, Any]:
    rows = []
    sweep: List[Dict[str, Any]] = []
    for bound in (10, 60, 300, 1_800):
        rng = seeded(bound)
        relation = build_events(
            size,
            [f"strongly bounded({bound}s, {bound}s)"],
            lambda i, rng=rng, bound=bound: rng.randint(-bound, bound),
        )
        _strategy, naive_x, plan_x, naive_ms, plan_ms = run_timeslice_pair(
            relation, Timestamp(10 * (size // 2))
        )
        speedup = naive_ms / plan_ms if plan_ms else float("inf")
        rows.append((f"{bound} s", plan_x, naive_x, f"{speedup:.0f}x"))
        sweep.append(
            {
                "bound_seconds": bound,
                "examined_window": plan_x,
                "examined_naive": naive_x,
                "speedup": speedup,
            }
        )
    table(
        f"E8 -- bounded-window sweep on n={size}",
        ("declared Dt", "examined (window)", "examined (naive)", "speedup"),
        rows,
    )
    return {"size": size, "sweep": sweep}


def e11(sizes) -> Dict[str, Any]:
    rows = []
    points: List[Dict[str, Any]] = []
    for size in sizes:
        workload = generate_monitoring(sensors=4, samples_per_sensor=size // 4, seed=1992)
        elements = workload.relation.all_elements()
        classify_ms = best_of(lambda: classify(elements))
        rows.append((size, f"{classify_ms:.2f} ms"))
        points.append({"size": size, "classify_ms": classify_ms})
    table("E11 -- inference cost vs sample size", ("n", "classify()"), rows)
    return {"points": points}


def e12(inserts) -> Dict[str, Any]:
    workload = generate_general(inserts=inserts, delete_rate=0.15, seed=1992)
    relation = workload.relation
    backlog = relation.backlog()
    cache = SnapshotCache(backlog, interval=128)
    cache.refresh()
    elements = relation.all_elements()
    mid = elements[len(elements) // 2].tt_start
    replay_ms = best_of(lambda: backlog.state_at(mid))
    cache_ms = best_of(lambda: cache.state_at(mid))
    prefix_ms = best_of(lambda: relation.as_of(mid))
    rows = [
        ("backlog replay", f"{replay_ms:.3f} ms"),
        (f"snapshot cache ({cache.snapshot_count} snapshots)", f"{cache_ms:.3f} ms"),
        ("tuple store tt-prefix", f"{prefix_ms:.3f} ms"),
    ]
    table(f"E12 -- rollback representations ({len(backlog)} ops)", ("representation", "time"), rows)
    return {
        "operations": len(backlog),
        "backlog_replay_ms": replay_ms,
        "snapshot_cache_ms": cache_ms,
        "tt_prefix_ms": prefix_ms,
    }


def e16(size) -> Dict[str, Any]:
    def build(name):
        schema = TemporalSchema(
            name=name, time_varying=("k",), specializations=["globally non-decreasing"]
        )
        clock = SimulatedWallClock(start=0)
        relation = TemporalRelation(schema, clock=clock)
        for i in range(size):
            clock.advance_to(Timestamp(10 * i))
            relation.insert("o", Timestamp(5 * i), {"k": i % 7})
        return relation

    left, right = build("l"), build("r")
    query = TemporalJoin(
        CurrentState(Scan(left)),
        CurrentState(Scan(right)),
        condition=lambda a, b: a.attributes["k"] == b.attributes["k"],
    )
    plan = Planner(left).plan(query)
    plan_ms = best_of(lambda: Planner(left).plan(query).execute(), repeats=3)
    plan.execute()
    executor = NaiveExecutor()
    naive_ms = best_of(lambda: NaiveExecutor().run(query), repeats=3)
    executor.run(query)
    table(
        f"E16 -- valid-time join, two ordered relations of n={size}",
        ("strategy", "examined", "time"),
        [
            ("nested loop (reference)", executor.examined, f"{naive_ms:.1f} ms"),
            (plan.strategy, plan.examined, f"{plan_ms:.3f} ms"),
        ],
    )
    return {
        "size": size,
        "strategy": plan.strategy,
        "examined_naive": executor.examined,
        "examined_planned": plan.examined,
        "naive_ms": naive_ms,
        "planned_ms": plan_ms,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="quarter-size fast pass")
    parser.add_argument(
        "--emit-json",
        nargs="?",
        const=REPO_ROOT,
        default=None,
        metavar="DIR",
        help="write BENCH_report.json (to DIR, default the repository root)",
    )
    parser.add_argument(
        "--check-baseline",
        nargs="?",
        const=BASELINE_PATH,
        default=None,
        metavar="PATH",
        help="diff machine-independent numbers (examined counts, sizes, "
        "strategies) against the committed seed baseline "
        "(benchmarks/BENCH_baseline.json by default) and exit non-zero "
        "on drift",
    )
    arguments = parser.parse_args(argv)
    scale = 4 if arguments.quick else 1
    print("EXPERIMENTS.md measurement tables, regenerated")
    print("(shapes are the result; absolute times are machine-specific)")
    with metrics.enabled_scope(fresh=True):
        results: Dict[str, Any] = {
            "e6_e7": e6_e7(20_000 // scale),
            "e8": e8(10_000 // scale),
            "e11": e11([100, 1_000 // scale * 1, 4_000 // scale]),
            "e12": e12(4_000 // scale),
            "e16": e16(600 // scale),
        }
        if arguments.emit_json is not None:
            write_bench_json(
                "report",
                results,
                parameters={"quick": arguments.quick},
                directory=arguments.emit_json,
            )
    if arguments.check_baseline is not None:
        failures = check_baseline(
            results, quick=arguments.quick, path=arguments.check_baseline
        )
        for line in failures:
            print(f"BASELINE DRIFT: {line}")
        if failures:
            return 1
        print(f"baseline reproduced: {arguments.check_baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
