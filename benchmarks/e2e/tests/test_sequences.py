"""The request sequence is a pure function of the seed, and the oracle's
counts are the sizes of its own filtered row lists."""

import bisect
from collections import Counter

import pytest

import scenario as sc

ELEMENTS = 2_000


def read_sequence(workload, seed, count):
    relation = sc.build_relation(workload, seed, ELEMENTS)
    oracle = sc.Oracle(relation)
    cls = sc.HistoryScenario if workload == "history_tiered" else sc.PointScenario
    scenario = cls(workload, oracle, seed)
    scenario.ensure(count)
    return scenario


@pytest.mark.parametrize("workload", ["point_specialized", "point_general", "history_tiered"])
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    first = read_sequence(workload, 1992, 300).requests
    again = read_sequence(workload, 1992, 300).requests
    other = read_sequence(workload, 2024, 300).requests
    assert [r.wire for r in first] == [r.wire for r in again]
    assert [r.rows for r in first] == [r.rows for r in again]
    assert [r.wire for r in first] != [r.wire for r in other]


def test_a_longer_sequence_extends_the_shorter_one():
    short = read_sequence("point_specialized", 7, 120)
    grown = read_sequence("point_specialized", 7, 60)
    grown.ensure(120)
    assert [r.wire for r in grown.requests] == [r.wire for r in short.requests]


def test_point_mix_is_exact_and_never_repeats_a_parameter():
    requests = read_sequence("point_general", 7, 500).requests
    kinds = [request.kind for request in requests]
    assert kinds.count("tql_at") == 390
    assert kinds.count("tql_overlap") == 100
    assert kinds.count("timeslice") == 10
    assert len({request.wire for request in requests}) == len(requests)
    assert all(request.rows >= 1 for request in requests if request.kind != "tql_overlap")


def test_oracle_counts_agree_with_its_row_filters():
    for workload in ("point_general", "history_tiered"):
        scenario = read_sequence(workload, 11, 120)
        for request in scenario.requests[::7]:
            assert request.rows == len(scenario.oracle._rows(request))


def test_history_pool_alternates_kinds_and_stays_inside_the_resident_segments():
    scenario = read_sequence("history_tiered", 3, 10)
    half = scenario.POOL // 2
    kinds = [request.kind for request in scenario.pool]
    assert kinds[0::2] == ["rollback"] * half and kinds[1::2] == ["tql_overlap"] * half
    sizes = sorted(request.rows for request in scenario.pool[0::2])
    assert 0.035 * ELEMENTS < sizes[0] and sizes[-1] <= 0.085 * ELEMENTS
    elements = scenario.oracle.elements
    resident = scenario.RESIDENT * sc.tier_segment_size(len(elements))
    assert sizes[-1] <= resident
    past = elements[resident].vt.microseconds
    assert all(request.param[1] < past for request in scenario.pool[1::2])


def test_history_deep_reads_walk_more_cold_segments_than_the_tier_caches():
    scenario = read_sequence("history_tiered", 3, 10)
    elements = scenario.oracle.elements
    size = sc.tier_segment_size(len(elements))
    starts = [element.tt_start.microseconds for element in elements]
    segments = []
    for request in scenario.deep:
        assert request.kind == "tql_deep" and request.rows > 0
        rows = scenario.oracle._rows(request)
        touched = {bisect.bisect_left(starts, row.tt_start.microseconds) // size for row in rows}
        assert len(touched) == 1
        segments.append(touched.pop())
    cold = len(elements) // size - sc.DEFAULT_HOT_RESERVE
    assert segments == list(range(scenario.RESIDENT + 1, cold))
    assert len(segments) > sc.DEFAULT_CACHE_SEGMENTS


def test_history_block_is_one_hot_three_cold_one_deep():
    scenario = read_sequence("history_tiered", 3, 5 * 94)
    hot = scenario.pool[: scenario.HOT]
    cold = scenario.pool[scenario.HOT :]
    blocks = [scenario.requests[i : i + 5] for i in range(0, len(scenario.requests), 5)]
    for number, block in enumerate(blocks):
        assert sum(request in hot for request in block) == 1
        assert hot[number % 2] in block
        assert scenario.deep[number % len(scenario.deep)] in block
    # 94 blocks of three cold requests walk the 94 cold sets exactly three times.
    asked = Counter(request.wire for request in scenario.requests if request in cold)
    assert asked == Counter({request.wire: 3 for request in cold})


def test_ingest_batches_are_seeded_compliant_and_ledgered():
    first, again, other = sc.IngestScenario(5), sc.IngestScenario(5), sc.IngestScenario(6)
    for ingest in (first, again, other):
        ingest.ensure(70)
    assert [b.wire for b in first.batches] == [b.wire for b in again.batches]
    assert [b.wire for b in first.batches] != [b.wire for b in other.batches]
    assert first.view_rows_through[0] == first.VIEW_ROWS
    assert first.view_rows_through[64] == first.VIEW_ROWS + 1
    for batch in (0, 1, 64):
        rows = first.rows(batch)
        expected = first.expected_elements(batch)
        assert len(rows) == first.BATCH_ROWS
        probes = [row for row in rows if row[1] == first.probe_vt(batch)]
        assert len(probes) == first.probes[batch].rows == 1 + batch % 3
        for (_, tt, _, vt) in expected:
            # retroactive, and strongly retroactively bounded by an hour
            assert tt - first.BOUND_MS * sc.MILLI <= vt <= tt
    assert first.epoch_tt(0) == first.first_tt(1) - 1
    assert first.batch_of_epoch(3 * first.BATCH_ROWS) == 2


def test_sequence_header_is_added_once():
    wire = sc.encode("GET", "/health")
    stamped = sc.with_sequence(wire, 12)
    assert stamped.count(b"X-Bench-Seq: 12\r\n") == 1
    assert stamped.replace(b"X-Bench-Seq: 12\r\n", b"") == wire
