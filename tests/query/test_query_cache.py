"""Epoch-keyed query caching: units and the cached-plan differential.

Two halves:

* unit coverage of the machinery -- LRU entry/byte budgets and
  eviction, parse-cache memoization, plan-cache reuse and epoch
  rollover, the ``cache.*`` layer counters, ``mutation_count()``
  monotonicity on every engine;
* a Hypothesis differential: a randomized mutation/maintenance/query
  script runs against flat, unindexed, segmented, and tiered
  topologies, and at every query point the answer of the plan the
  cache serves must be byte-identical -- via the server's canonical
  codec -- to a freshly built plan's and to ``NaiveExecutor``'s.
  Vacuum engine swaps, segment compaction, and out-of-band
  ``extend()`` straight into the engine all interleave: every one must
  roll the epoch.
"""

import json
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chronos.clock import LogicalClock
from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.observability import metrics
from repro.query import NaiveExecutor, Planner, Scan, ValidOverlap, ValidTimeslice, tql
from repro.query import cache as qcache
from repro.query.ast import CurrentState, Rollback
from repro.relation.element import Element
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.server.protocol import elements_to_json
from repro.storage.logfile import LogFileEngine
from repro.storage.memory import MemoryEngine
from repro.storage.tiered import TierManager
from repro.storage.vacuum import vacuum_relation
from tests.strategies import OBJECTS, SMALL_TICKS

CLOCK_START = 1_000


def make_relation(engine=None, specializations=()):
    schema = TemporalSchema(
        name="cached",
        time_varying=("reading",),
        specializations=list(specializations),
    )
    return TemporalRelation(
        schema, clock=LogicalClock(start=CLOCK_START), engine=engine
    )


def fill(relation, count=12):
    relation.append_many(
        [(f"o{i % 3}", Timestamp(i * 5), {"reading": i}) for i in range(count)]
    )
    return relation


# -- the LRU ------------------------------------------------------------------------


class TestLRUCache:
    def test_entry_budget_evicts_oldest(self):
        cache = qcache.LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = qcache.LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_byte_budget_evicts_under_pressure(self):
        cache = qcache.LRUCache(100, max_bytes=100)
        cache.put("a", "x", nbytes=40)
        cache.put("b", "y", nbytes=40)
        cache.put("c", "z", nbytes=40)  # 120 > 100: "a" must go
        assert cache.get("a") is None
        assert cache.get("b") == "y"
        assert cache.bytes == 80

    def test_oversized_value_is_rejected_not_cached(self):
        cache = qcache.LRUCache(100, max_bytes=100)
        cache.put("small", "s", nbytes=10)
        cache.put("huge", "h", nbytes=1_000)
        assert cache.get("huge") is None
        assert cache.get("small") == "s"  # untouched by the rejection

    def test_replacement_updates_byte_accounting(self):
        cache = qcache.LRUCache(10, max_bytes=100)
        cache.put("a", "old", nbytes=60)
        cache.put("a", "new", nbytes=20)
        assert cache.bytes == 20
        assert cache.get("a") == "new"


# -- parse cache --------------------------------------------------------------------


class TestParseCache:
    def test_repeated_statements_share_the_instance(self):
        qcache.parse_cache.clear()
        first = tql.parse("SELECT * FROM cached VALID AT 10")
        second = tql.parse("SELECT * FROM cached VALID AT 10")
        assert first is second

    def test_parse_errors_are_not_cached(self):
        qcache.parse_cache.clear()
        for _ in range(2):
            try:
                tql.parse("SELECT broken FROM")
            except tql.TQLError:
                pass
        assert len(qcache.parse_cache) == 0


# -- plan cache ---------------------------------------------------------------------


class TestPlanCache:
    def test_same_epoch_reuses_the_plan_object(self):
        relation = fill(make_relation())
        query = ValidTimeslice(Scan(relation), Timestamp(10))
        first = Planner(relation).plan(query)
        second = Planner(relation).plan(query)
        assert first is second

    def test_mutation_rolls_the_epoch_and_replans(self):
        relation = fill(make_relation())
        query = ValidTimeslice(Scan(relation), Timestamp(10))
        first = Planner(relation).plan(query)
        relation.insert("o9", Timestamp(99), {"reading": 9})
        second = Planner(relation).plan(query)
        assert first is not second

    def test_foreign_relation_scan_is_uncacheable(self):
        relation = fill(make_relation())
        other = fill(make_relation())
        query = ValidTimeslice(Scan(other), Timestamp(10))
        assert qcache.fingerprint(query, relation) is None

    def test_plan_layer_is_on_by_default(self):
        relation = fill(make_relation())
        assert isinstance(relation.query_cache, qcache.LRUCache)
        query = ValidTimeslice(Scan(relation), Timestamp(10))
        assert Planner(relation).plan(query) is Planner(relation).plan(query)

    def test_reexecuted_plan_hands_back_a_fresh_list(self):
        relation = fill(make_relation())
        query = ValidTimeslice(Scan(relation), Timestamp(10))
        first = Planner(relation).plan(query).execute()
        assert first
        first.clear()  # a caller mangling its copy...
        second = Planner(relation).plan(query).execute()
        assert second  # ...must not mangle what the cached plan returns

    def test_epoch_rollover_answers_the_new_state(self):
        relation = fill(make_relation())
        query = ValidTimeslice(Scan(relation), Timestamp(10))
        before = Planner(relation).plan(query).execute()
        relation.insert("oX", Timestamp(10), {"reading": 77})
        after = Planner(relation).plan(query).execute()
        assert len(after) == len(before) + 1

    def test_hits_feed_the_layer_counters(self):
        """The ``cache.{hits,misses}.{parse,plan}`` counters are what the
        end-to-end benchmark's hit ratios are computed from."""
        relation = fill(make_relation())
        statement = "SELECT * FROM cached VALID AT 10"
        qcache.parse_cache.clear()
        with metrics.enabled_scope(fresh=True) as registry:
            for _ in range(3):
                tql.execute(statement, relation)
        counters = registry.snapshot()["counters"]
        assert counters["cache.misses.parse"] == 1
        assert counters["cache.hits.parse"] == 2
        assert counters["cache.misses.plan"] == 1
        assert counters["cache.hits.plan"] == 2
        assert relation.query_cache.hits == 2

    def test_explain_of_a_cached_plan_matches_the_first(self):
        relation = fill(make_relation())
        statement = "SELECT * FROM cached VALID AT 10"
        first = relation.explain(statement)
        second = relation.explain(statement)
        assert second.decisions == first.decisions
        assert second.decisions[-1].startswith("chosen:")
        assert (second.examined, second.returned) == (first.examined, first.returned)


# -- satellite: every engine's mutation counter -------------------------------------


class TestMutationCount:
    def _exercise(self, relation):
        engine = relation.engine
        seen = [engine.mutation_count()]

        def advanced():
            seen.append(engine.mutation_count())
            assert seen[-1] > seen[-2], "mutation_count must advance"

        relation.insert("alpha", Timestamp(5), {"reading": 1})
        advanced()
        relation.append_many(
            [("beta", Timestamp(7), {"reading": 2}), ("gamma", Timestamp(9), {})]
        )
        advanced()
        victim = relation.current()[0]
        relation.delete(victim.element_surrogate)
        advanced()

    def test_memory(self):
        self._exercise(make_relation(MemoryEngine()))

    def test_segmented_memory(self):
        self._exercise(make_relation(MemoryEngine(segment_size=2)))

    def test_logfile(self, tmp_path):
        engine = LogFileEngine(str(tmp_path / "wal.log"))
        try:
            self._exercise(make_relation(engine))
        finally:
            engine.close()


# -- the cache-on/cache-off differential --------------------------------------------


def _canonical(elements):
    return json.dumps(elements_to_json(elements), sort_keys=True)


def _out_of_band_extend(relation, tick):
    """A write the relation never sees: straight into the engine.

    ``relation.version`` stays put, so only the engine's mutation
    counter can save the cache from serving the pre-extend answer.
    """
    element = Element(
        element_surrogate=relation._surrogates.fresh(),
        object_surrogate="smuggled",
        tt_start=relation.clock.now(),
        vt=Timestamp(tick),
        time_varying={"reading": -1},
    )
    relation.engine.extend([element])


QUERY_OPS = ("timeslice", "overlap", "rollback", "current", "tql")


@st.composite
def cache_workload(draw, min_ops=6, max_ops=20):
    op = st.one_of(
        st.tuples(st.just("insert"), OBJECTS, SMALL_TICKS, st.integers(1, 12)),
        st.tuples(
            st.just("batch"),
            st.lists(
                st.tuples(OBJECTS, SMALL_TICKS, st.integers(1, 12)),
                min_size=1,
                max_size=4,
            ),
        ),
        st.tuples(st.just("delete"), st.integers(0, 63)),
        st.tuples(st.just("vacuum"), st.integers(0, 80)),
        st.tuples(st.just("compact")),
        st.tuples(st.just("extend"), SMALL_TICKS),
        st.tuples(st.just("query"), st.sampled_from(QUERY_OPS), SMALL_TICKS),
    )
    return draw(st.lists(op, min_size=min_ops, max_size=max_ops))


def _query_node(relation, which, tick):
    if which in ("timeslice", "tql"):  # TQL's VALID AT compiles to a timeslice
        return ValidTimeslice(Scan(relation), Timestamp(tick))
    if which == "overlap":
        return ValidOverlap(Scan(relation), Interval(Timestamp(tick), Timestamp(tick + 10)))
    if which == "rollback":
        return Rollback(Scan(relation), Timestamp(CLOCK_START + tick, "microsecond"))
    return CurrentState(Scan(relation))


def _answers(relation, which, tick):
    """(cache-served, freshly planned, naive) answers, canonically encoded.

    The query runs once first so the second planning of it is a cache
    hit whenever the epoch has not moved.
    """
    node = _query_node(relation, which, tick)
    if which == "tql":
        statement = f"SELECT * FROM cached VALID AT {tick}"
        tql.execute(statement, relation)
        served = tql.execute(statement, relation)
    else:
        Planner(relation).plan(node).execute()
        served = Planner(relation).plan(node).execute()
    fresh = Planner(relation)._build_plan(node).execute()
    naive = NaiveExecutor().run(node)
    return _canonical(served), _canonical(fresh), _canonical(naive)


def run_cache_differential(relation, ops):
    """Every query answers three ways: through the plan cache (a tiny
    4-entry LRU, so eviction pressure is constant), through a plan
    built from scratch, and through ``NaiveExecutor``.  The three must
    agree byte-for-byte at every step.
    """
    relation._query_cache = qcache.LRUCache(4, layer="plan")
    for op in ops:
        kind = op[0]
        if kind == "insert":
            relation.insert(op[1], Timestamp(op[2]), {"reading": op[3]})
        elif kind == "batch":
            relation.append_many(
                [(obj, Timestamp(tick), {"reading": length}) for obj, tick, length in op[1]]
            )
        elif kind == "delete":
            # Smuggled rows bypassed the backlog: not deletable there.
            live = [
                e for e in relation.current() if e.object_surrogate != "smuggled"
            ]
            if live:
                relation.delete(live[op[1] % len(live)].element_surrogate)
        elif kind == "vacuum":
            vacuum_relation(relation, Timestamp(op[1]))
        elif kind == "compact":
            relation.engine.store.compact()
        elif kind == "extend":
            _out_of_band_extend(relation, op[1])
        elif kind == "query":
            served, fresh, naive = _answers(relation, op[1], op[2])
            assert served == fresh == naive, (
                f"cache served a divergent {op[1]} answer:\n"
                f"  served: {served}\n"
                f"  fresh:  {fresh}\n"
                f"  naive:  {naive}"
            )
        else:  # pragma: no cover - strategy and runner must stay in sync
            raise AssertionError(f"unknown workload op {op!r}")
    served, fresh, naive = _answers(relation, "current", 0)
    assert served == fresh == naive


class TestCacheDifferential:
    @settings(max_examples=25, deadline=None)
    @given(ops=cache_workload())
    def test_flat_memory(self, ops):
        run_cache_differential(make_relation(MemoryEngine()), ops)

    @settings(max_examples=15, deadline=None)
    @given(ops=cache_workload())
    def test_small_segments(self, ops):
        run_cache_differential(make_relation(MemoryEngine(segment_size=4)), ops)

    @settings(max_examples=10, deadline=None)
    @given(ops=cache_workload())
    def test_tiered_cold_storage(self, ops):
        with tempfile.TemporaryDirectory() as tier_dir:
            engine = MemoryEngine(
                segment_size=4, tier_manager=TierManager(tier_dir, cache_segments=1)
            )
            try:
                run_cache_differential(make_relation(engine), ops)
            finally:
                engine.close()
