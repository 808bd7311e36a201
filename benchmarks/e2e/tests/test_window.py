"""A window's metrics from its slices: every time is divided by the
slice's slowdown before anything is pooled."""

import pytest

import loadgen
import run


def op(latency, kind="tql_at", rows=1):
    return loadgen.Op(0.0, latency, kind, rows, 100, 0)


def test_a_slow_slice_reads_as_the_quiet_one_does():
    quiet = run.Slice([op(0.001)] * 100, 1.0, 200.0, 0.8, 1.0)
    # The same work while the box runs 1.5x more slowly: two thirds of
    # the requests, each 1.5x longer, the same CPU per second.
    slow = run.Slice([op(0.0015)] * 66, 0.99, 198.0, 0.792, 1.5)
    alone = run.window_metrics([quiet] * 6)
    mixed = run.window_metrics([quiet, slow] * 3)
    for name in ("ops_per_s", "tql_p50_ms", "read_p95_ms", "server_cpu_ms_per_op"):
        assert mixed[name]["value"] == pytest.approx(alone[name]["value"], rel=0.01), name
    assert alone["tql_p50_ms"]["value"] == pytest.approx(1.0)
    assert alone["ops_per_s"]["value"] == pytest.approx(100.0)
    assert alone["server_cpu_ms_per_op"]["value"] == pytest.approx(2.0)


def test_classes_keep_their_own_latency_metric_and_absent_ones_are_null():
    ops = [op(0.001)] * 8 + [op(0.060, "timeslice")] * 2
    metrics = run.window_metrics([run.Slice(ops, 1.0, 100.0, 0.01, 1.0)] * 2)
    assert metrics["tql_p50_ms"]["value"] == pytest.approx(1.0)
    assert metrics["get_p50_ms"]["value"] == pytest.approx(60.0)
    assert metrics["get_p50_ms"]["samples"] == 4
    assert metrics["write_p50_ms"]["value"] is None
    assert metrics["ingest_rows_per_s"]["value"] is None
    assert metrics["result_rows_per_s"]["value"] == pytest.approx(10.0)
