"""Self time from spans: duration minus what the children cover."""

import threading

import spans


def test_self_time_subtracts_direct_children_only():
    recorded = [
        (0, None, "root", 0, 0, 100),
        (1, 0, "child", 0, 10, 40),
        (2, 1, "grandchild", 0, 20, 30),
        (3, 0, "child", 0, 50, 70),
    ]
    own = spans.self_times(recorded)
    assert own == {0: 100 - 30 - 20, 1: 30 - 10, 2: 10, 3: 20}
    assert sum(own.values()) == 100  # self times partition the root


def test_overlapping_and_overhanging_children_are_merged_and_clipped():
    recorded = [
        (0, None, "root", 0, 0, 100),
        (1, 0, "a", 0, 10, 60),
        (2, 0, "b", 0, 40, 80),  # overlaps a
        (3, 0, "c", 0, 90, 130),  # ends after its parent
    ]
    assert spans.self_times(recorded)[0] == 100 - 70 - 10


def test_by_request_sums_layers_and_skips_unstamped_requests():
    recorded = [
        (0, None, spans.ROOT, 7, 0, 10_000),
        (1, 0, "server.app.handler", 7, 1_000, 9_000),
        (2, 1, "relation.read", 7, 2_000, 5_000),
        (3, 1, "relation.read", 7, 6_000, 7_000),
        (4, None, spans.ROOT, -1, 0, 5_000),  # a set-up call
    ]
    table = spans.by_request(recorded)
    assert set(table) == {7}
    assert table[7]["wall"] == 10.0
    assert table[7][spans.ROOT] == 2.0
    assert table[7]["server.app.handler"] == 4.0
    assert table[7]["relation.read"] == 4.0
    layers = sum(value for name, value in table[7].items() if name != "wall")
    assert layers == table[7]["wall"]


def test_median_layer_per_row_and_restricted():
    table = {
        0: {"x": 100.0},
        1: {"x": 300.0},
        2: {"x": 500.0},
        3: {"y": 1.0},
    }
    assert spans.median_layer(table, "x") == 300.0
    assert spans.median_layer(table, "x", per={0: 10, 1: 10, 2: 0}) == 20.0
    assert spans.median_layer(table, "x", only=[2, 3]) == 500.0
    assert spans.median_layer(table, "absent") == 0.0


def test_tracer_nests_on_one_thread_and_attaches_pool_threads_to_the_loop():
    tracer = spans.Tracer()
    outer = tracer.begin()
    seen = {}

    def on_pool_thread():
        token = tracer.begin()
        seen["parent"] = token[1]
        tracer.end("pooled", token)

    worker = threading.Thread(target=on_pool_thread)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    inner = tracer.begin()
    tracer.end("inner", inner)
    tracer.end("outer", outer)
    assert seen["parent"] == outer[0]
    by_name = {span[2]: span for span in tracer.spans}
    assert by_name["inner"][1] == outer[0]
    assert by_name["outer"][1] is None
    assert by_name["pooled"][1] == outer[0]


def test_dump_and_load_round_trip(tmp_path):
    tracer = spans.Tracer()
    token = tracer.begin()
    tracer.end("only", token)
    path = tmp_path / "spans.jsonl"
    tracer.dump(str(path))
    assert spans.load(str(path)) == tracer.spans
