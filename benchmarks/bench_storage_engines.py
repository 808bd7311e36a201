"""E12 -- storage representations (Section 2): tuple store, backlog,
snapshot cache.

Measures (a) rollback by backlog replay vs snapshot-cached replay vs the
tuple store's tt-index prefix, and (b) insert throughput on the memory
engine, on the general (unrestricted) workload.
"""

import pytest

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.timestamp import Timestamp
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.snapshot import SnapshotCache
from repro.storage.memory import MemoryEngine


@pytest.fixture(scope="module")
def populated(general_workload):
    relation = general_workload.relation
    backlog = relation.backlog()
    cache = SnapshotCache(backlog, interval=128)
    cache.refresh()
    elements = relation.all_elements()
    mid_tt = elements[len(elements) // 2].tt_start
    return relation, backlog, cache, mid_tt


def test_rollback_backlog_replay(benchmark, populated):
    _relation, backlog, _cache, mid_tt = populated
    state = benchmark(backlog.state_at, mid_tt)
    assert state


def test_rollback_snapshot_cached(benchmark, populated):
    _relation, _backlog, cache, mid_tt = populated
    state = benchmark(cache.state_at, mid_tt)
    assert state


def test_rollback_tuple_store_prefix(benchmark, populated):
    relation, _backlog, _cache, mid_tt = populated
    state = benchmark(relation.as_of, mid_tt)
    assert state


def test_representations_agree(populated):
    relation, backlog, cache, mid_tt = populated
    from_engine = sorted(e.element_surrogate for e in relation.as_of(mid_tt))
    assert from_engine == sorted(backlog.state_at(mid_tt))
    assert from_engine == sorted(cache.state_at(mid_tt))


def _drive(engine_factory, updates: int = 1_000):
    schema = TemporalSchema(name="drive", time_varying=("v",))
    clock = SimulatedWallClock(start=0)
    relation = TemporalRelation(schema, clock=clock, engine=engine_factory())
    for i in range(updates):
        clock.advance_to(Timestamp(10 * i))
        relation.insert("obj", Timestamp(10 * i - 3), {"v": i})
    return relation


def test_insert_throughput_memory(benchmark):
    relation = benchmark(_drive, MemoryEngine)
    assert len(relation) == 1_000
