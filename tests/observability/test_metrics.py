"""The metrics registry: instruments, concurrency, snapshots, gating."""

import json
import threading

import pytest

from repro.chronos.clock import ManualTimer
from repro.observability import metrics
from repro.observability.metrics import Counter, Gauge, Histogram, MetricsRegistry


@pytest.fixture(autouse=True)
def _metrics_off():
    """Leave the process-global gate the way each test found it."""
    was = metrics.enabled()
    yield
    (metrics.enable if was else metrics.disable)()
    metrics.reset()


class TestCounter:
    def test_counts_up(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_concurrent_increments_do_not_lose_updates(self):
        counter = Counter("c")
        increments_per_thread = 10_000

        def hammer():
            for _ in range(increments_per_thread):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8 * increments_per_thread


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.add(-2.5)
        assert gauge.value == 7.5


class TestHistogram:
    def test_exact_aggregates(self):
        histogram = Histogram("h")
        for value in (3.0, 1.0, 2.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == 6.0
        summary = histogram.to_dict()
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0

    def test_nearest_rank_percentiles(self):
        histogram = Histogram("h")
        for value in range(1, 101):  # 1..100
            histogram.observe(value)
        assert histogram.percentile(50) == 50
        assert histogram.percentile(90) == 90
        assert histogram.percentile(99) == 99
        assert histogram.percentile(100) == 100
        # nearest-rank on a tiny sample: ceil(q/100 * n)
        small = Histogram("s")
        for value in (10.0, 20.0, 30.0):
            small.observe(value)
        assert small.percentile(50) == 20.0
        assert small.percentile(34) == 20.0
        assert small.percentile(33) == 10.0

    def test_percentile_bounds(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(0)
        with pytest.raises(ValueError):
            histogram.percentile(101)

    def test_empty_percentile_errors(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(50)

    def test_empty_to_dict(self):
        assert Histogram("h").to_dict() == {"count": 0, "sum": 0.0}

    def test_count_stays_exact_beyond_sample_limit(self):
        histogram = Histogram("h")
        for value in range(10_500):
            histogram.observe(value)
        assert histogram.count == 10_500
        assert histogram.to_dict()["max"] == 10_499

    def test_percentiles_follow_the_recent_window(self):
        """The sample is a ring of the most recent 10 000 observations:
        after the distribution shifts, percentiles describe the shifted
        one while count/sum/min/max still cover everything."""
        histogram = Histogram("h")
        for value in range(10_000):  # the first, slow, era: 0..9999
            histogram.observe(value)
        for value in range(15_000):  # then 15 000 fast requests
            histogram.observe(100_000 + value % 100)
        summary = histogram.to_dict()
        assert summary["count"] == 25_000
        assert summary["min"] == 0
        assert summary["max"] == 100_099
        assert summary["sum"] == sum(range(10_000)) + sum(
            100_000 + value % 100 for value in range(15_000)
        )
        assert summary["p50"] == 100_049
        assert summary["p90"] == 100_089
        assert summary["p99"] == 100_098
        assert histogram.percentile(1) >= 100_000  # nothing of the first era is left

    def test_concurrent_observations(self):
        histogram = Histogram("h")

        def hammer():
            for value in range(1_000):
                histogram.observe(value)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count == 4_000


class TestRegistry:
    def test_instruments_are_memoized(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_concurrent_creation_yields_one_instrument(self):
        registry = MetricsRegistry()
        seen = []

        def create():
            for i in range(200):
                seen.append(registry.counter(f"name-{i % 10}"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        by_name = {}
        for counter in seen:
            by_name.setdefault(counter.name, set()).add(id(counter))
        assert all(len(ids) == 1 for ids in by_name.values())

    def test_snapshot_is_isolated_from_later_updates(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(5)
        before = registry.snapshot()
        registry.counter("hits").inc(100)
        assert before["counters"]["hits"] == 5
        assert registry.snapshot()["counters"]["hits"] == 105

    def test_snapshot_json_round_trips(self):
        registry = MetricsRegistry(timer_source=ManualTimer())
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        with registry.timer("t"):
            registry.timer_source.advance(0.25)
        decoded = json.loads(registry.snapshot_json())
        assert decoded["counters"] == {"c": 3}
        assert decoded["gauges"] == {"g": 1.5}
        assert decoded["histograms"]["t"]["count"] == 1
        assert decoded["histograms"]["t"]["sum"] == 0.25

    def test_timer_records_seconds(self):
        timer_source = ManualTimer()
        registry = MetricsRegistry(timer_source=timer_source)
        with registry.timer("op") as timer:
            timer_source.advance(1.5)
        assert timer.elapsed == 1.5
        assert registry.histogram("op").sum == 1.5

    def test_clear(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.clear()
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestGlobalGate:
    def test_enable_disable(self):
        metrics.disable()
        assert not metrics.enabled()
        metrics.enable()
        assert metrics.enabled()

    def test_enabled_scope_restores_prior_state(self):
        metrics.disable()
        with metrics.enabled_scope() as registry:
            assert metrics.enabled()
            assert registry is metrics.registry()
        assert not metrics.enabled()

    def test_enabled_scope_fresh_clears(self):
        metrics.registry().counter("stale").inc()
        with metrics.enabled_scope(fresh=True) as registry:
            assert "stale" not in registry.snapshot()["counters"]
