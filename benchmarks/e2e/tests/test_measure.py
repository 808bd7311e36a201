"""Percentiles, the sample-count rule, spreads, parts and the reference kernel."""

import pytest

import measure


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert measure.percentile(samples, 50) == 50
    assert measure.percentile(samples, 95) == 95
    assert measure.percentile(samples, 100) == 100
    assert measure.percentile([7.0], 95) == 7.0
    assert measure.percentile([3, 1, 2], 50) == 2
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_samples_beyond_counts_strictly_higher_ranks():
    assert measure.samples_beyond(100, 95) == 5
    assert measure.samples_beyond(200, 95) == 10
    assert measure.samples_beyond(1000, 99) == 10
    assert measure.samples_beyond(0, 95) == 0


def test_highest_supported_percentile_needs_ten_samples_beyond():
    assert measure.highest_supported_percentile(10_000) == 99.9
    assert measure.highest_supported_percentile(1_000) == 99.0
    assert measure.highest_supported_percentile(200) == 95.0
    assert measure.highest_supported_percentile(199) == 90.0
    assert measure.highest_supported_percentile(40) == 75.0
    assert measure.highest_supported_percentile(39) is None


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0]
    # statistics.quantiles (exclusive): Q1 = 10.75, Q3 = 14.25, median = 12.5
    assert measure.spread(values) == pytest.approx(3.5 / 12.5)
    assert measure.spread([5.0, 5.0, 5.0]) == 0.0
    assert measure.spread([5.0]) is None
    assert measure.spread([0.0, 0.0]) is None
    assert measure.spread([1.0, None, 3.0]) == measure.spread([1.0, 3.0])


def test_parts_cut_a_sequence_into_runs_of_nearly_equal_length():
    assert measure.parts(list(range(12))) == [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11]]
    assert measure.parts(list(range(10)), 3) == [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]
    # Fewer items than parts: the empty parts are the caller's to drop.
    assert [part for part in measure.parts([1, 2]) if part] == [[1], [2]]


def test_worse_by_respects_direction():
    assert measure.worse_by("lower", 100.0, 110.0) == pytest.approx(0.10)
    assert measure.worse_by("lower", 100.0, 90.0) == pytest.approx(-0.10)
    assert measure.worse_by("higher", 100.0, 90.0) == pytest.approx(0.10)


def test_latency_summary_pools_the_window_and_spreads_the_parts():
    per_part = [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], []]
    value, spread, samples = measure.summarize_latencies(per_part, 50)
    assert (value, samples) == (2.0, 6)
    assert spread == measure.spread([2.0, 3.0])
    assert measure.summarize_latencies([[], []], 50) == (None, None, 0)


def test_slowdown_is_the_median_kernel_pass_over_the_reference(monkeypatch):
    passes = iter([0.5, 5.0, 1.1, 1.1, 0.9])
    monkeypatch.setattr(measure, "kernel_pass_ms", lambda: next(passes))
    monkeypatch.setattr(measure, "REFERENCE_KERNEL_MS", 0.55)
    assert measure.slowdown(passes=5) == pytest.approx(2.0)


def test_the_reference_kernel_takes_about_what_the_reference_says():
    # Within 4x either way: the constant is this sandbox's, not a law.
    assert 0.25 < measure.slowdown(passes=5) < 4.0
