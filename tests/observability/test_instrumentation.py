"""Engine, planner, and constraint call sites report the right counters."""

import os
import random
import tempfile

import pytest

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.timestamp import Timestamp
from repro.observability import metrics
from repro.query import Planner, Scan, ValidTimeslice, tql
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.logfile import LogFileEngine
from repro.storage.memory import MemoryEngine


@pytest.fixture
def registry():
    with metrics.enabled_scope(fresh=True) as reg:
        yield reg


def build(engine=None, specializations=()):
    schema = TemporalSchema(name="r", specializations=list(specializations))
    clock = SimulatedWallClock(start=0)
    return (
        TemporalRelation(schema, clock=clock, engine=engine),
        clock,
    )


def rows(count):
    return [("o", Timestamp(10 * i), {}) for i in range(count)]


class TestMemoryEngine:
    def test_insert_and_scan_counters(self, registry):
        relation, clock = build()
        for i in range(5):
            clock.advance_to(Timestamp(10 * i))
            relation.insert("o", Timestamp(10 * i), {})
        list(relation.engine.scan())
        counters = registry.snapshot()["counters"]
        assert counters["relation.inserts"] == 5
        assert counters["storage.memory.appends"] == 5
        assert counters["storage.memory.rows_scanned"] == 5

    def test_batch_counters(self, registry):
        relation, _clock = build()
        relation.append_many(rows(100))
        counters = registry.snapshot()["counters"]
        assert counters["relation.batches"] == 1
        assert counters["relation.batch_rows"] == 100
        assert counters["storage.memory.batch_appends"] == 1
        assert counters["storage.memory.rows_appended"] == 100

    def test_vt_index_hit(self, registry):
        relation, _clock = build()
        relation.append_many(rows(10))
        relation.valid_at(Timestamp(50))
        counters = registry.snapshot()["counters"]
        assert counters.get("storage.memory.vt_index_hits", 0) == 1


class TestValidTimeIndexSettling:
    """Ingest is flat in history as a *count*: a bulk append indexes its
    own rows only, and the valid-time index is sorted by whoever first
    reads it live -- each row exactly once, a declared relation never."""

    BATCHES, ROWS, BOUND = 40, 50, 3600

    def shuffled_batches(self, relation, clock):
        """Append the batches (valid times shuffled inside the hour before
        each row's stamp), yielding one stored valid time after each."""
        rng = random.Random(19)
        for batch in range(self.BATCHES):
            clock.advance_to(Timestamp(10_000 + 100 * batch))
            now = clock.peek().microseconds // 1_000_000
            vts = [now - rng.randrange(1, self.BOUND - 200) for _ in range(self.ROWS)]
            relation.append_many([("o", Timestamp(vt), {}) for vt in vts])
            yield vts[0]

    def test_declared_relation_never_settles(self, registry, tmp_path):
        engine = LogFileEngine(str(tmp_path / "declared.wal"))
        relation, clock = build(
            engine, ["retroactive", f"strongly retroactively bounded({self.BOUND}s)"]
        )
        for vt in self.shuffled_batches(relation, clock):
            rows = tql.execute(f"SELECT * FROM r VALID AT {vt}s", relation)
            assert any(row.vt == Timestamp(vt) for row in rows)
        counters = registry.snapshot()["counters"]
        assert counters["storage.memory.rows_appended"] == self.BATCHES * self.ROWS
        assert counters.get("storage.memory.vt_index_settled_rows", 0) == 0
        assert counters.get("storage.memory.vt_index_settles", 0) == 0
        engine.close()

    def test_undeclared_relation_settles_each_row_once(self, registry):
        relation, clock = build(MemoryEngine())
        for vt in self.shuffled_batches(relation, clock):
            assert relation.valid_at(Timestamp(vt))
            relation.valid_at(Timestamp(vt))  # nothing left to settle
        counters = registry.snapshot()["counters"]
        assert counters["storage.memory.vt_index_settles"] == self.BATCHES
        assert counters["storage.memory.vt_index_settled_rows"] == self.BATCHES * self.ROWS

    def test_single_inserts_in_valid_time_order_are_all_appends(self, registry):
        """E15's claim: on a sequential stream the index never inserts."""
        relation, clock = build(MemoryEngine(), ["globally sequential"])
        for i in range(10_000):
            clock.advance_to(Timestamp(10 * i + 5))
            relation.insert("o", Timestamp(10 * i + 3), {})
        stats = relation.engine.index_statistics()
        assert stats["vt_inserts_out_of_order"] == 0
        assert stats["vt_appends_in_order"] == 10_000
        assert "storage.memory.vt_index_settles" not in registry.snapshot()["counters"]


class TestLogFileEngine:
    def test_batch_is_one_fsync(self, registry):
        with tempfile.TemporaryDirectory() as tmp:
            engine = LogFileEngine(os.path.join(tmp, "r.jsonl"))
            relation, _clock = build(engine=engine)
            relation.append_many(rows(20))
            counters = registry.snapshot()["counters"]
            assert counters["storage.logfile.fsyncs"] == 1
            assert counters["storage.logfile.bytes_written"] > 0
            engine.close()


class TestPlannerCounters:
    def test_plan_and_execute_counters(self, registry):
        relation, _clock = build(specializations=["degenerate"])
        relation.append_many([("o", Timestamp(0), {})])
        # degenerate requires vt == tt; rebuild rows accordingly
        plan = Planner(relation).plan(ValidTimeslice(Scan(relation), Timestamp(0)))
        plan.execute()
        counters = registry.snapshot()["counters"]
        assert counters["query.planned.degenerate-rollback"] == 1
        assert counters["query.plans.degenerate-rollback"] == 1
        assert "query.elements_examined" in counters
        assert "query.elements_returned" in counters
        histograms = registry.snapshot()["histograms"]
        assert histograms["query.execute_seconds.degenerate-rollback"]["count"] == 1


class TestConstraintCounters:
    def test_batch_checks_and_shadow_swap(self, registry):
        relation, _clock = build(specializations=["retroactive"])
        relation.append_many(
            [("o", Timestamp(-100 + i), {}) for i in range(10)]
        )
        counters = registry.snapshot()["counters"]
        assert counters["constraints.checks"] == 10  # one monitor x 10 elements
        assert counters["constraints.shadow_swaps"] == 1
        assert counters.get("constraints.violations", 0) == 0

    def test_per_element_checks(self, registry):
        relation, clock = build(specializations=["retroactive"])
        clock.advance_to(Timestamp(100))
        relation.insert("o", Timestamp(50), {})
        assert registry.snapshot()["counters"]["constraints.checks"] == 1


class TestDisabledIsFree:
    def test_nothing_recorded_when_disabled(self):
        metrics.disable()
        before = metrics.registry().snapshot()
        relation, _clock = build()
        relation.append_many(rows(10))
        assert metrics.registry().snapshot() == before
