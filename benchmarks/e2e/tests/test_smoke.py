"""The command itself, end to end, at smoke size."""

import json
import os
import subprocess
import sys
import time

import spec

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "run.py")


def run(*arguments, timeout=120):
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, RUN, *arguments], capture_output=True, text=True, timeout=timeout
    )
    return completed, time.perf_counter() - started


def test_smoke_runs_all_four_workloads_without_error_in_under_a_minute():
    completed, elapsed = run("--smoke")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert elapsed < 60
    lines = completed.stdout.splitlines()
    rates = [line.split() for line in lines if line.strip().startswith("error_rate")]
    assert len(rates) == len(spec.workloads())
    assert all(fields[1] == "0" for fields in rates)
    assert any("recovered" in line and "acknowledged rows" in line for line in lines)


def test_one_workload_ends_with_the_contract_line():
    completed, _ = run("--smoke", "--workload", "point_specialized", "--seed", "5", "--trace", "0")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [metric.name for metric in spec.gated()]
    for metric in spec.gated():
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit and entry["value"] > 0


def test_traced_pass_reports_every_layer_metric():
    completed, _ = run("--smoke", "--workload", "ingest_durable", "--trace", "1")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == [metric.name for metric in spec.per_layer()]
    value = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert value["storage.logfile.fsyncs_per_batch"] == 1.0
    assert value["views.standing.deltas_per_row"] == 1.0
    assert value["core.constraints.checks_per_row"] == 2.0
    assert 0.9 <= value["bench.span_coverage"] <= 1.0
    assert 0 < value["bench.trace_overhead_ratio"] <= 1.2
