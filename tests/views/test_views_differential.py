"""Differential suite: delta-maintained views vs from-scratch recompute.

The invariant the whole subsystem rests on: after *any* interleaving of
mutations (single inserts, atomic batches, deletes, modifies) with
maintenance events (vacuum engine swaps, segment compaction into the
cold tier), every registered standing view's maintained snapshot equals a from-scratch recomputation over the
engine -- identical elements, identical canonical transaction-time
order.  Views register *mid-workload*, so they must also absorb
pre-existing state correctly.

Runs the same randomized scripts across every engine topology the repo
ships: flat memory, small segments, small segments spilling to the
compressed cold tier, and the durable write-ahead-log engine (which
refuses vacuum).
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chronos.clock import LogicalClock, SimulatedWallClock
from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.core.constraints import EnforcementMode
from repro.core.taxonomy.event_inter import GloballyNonDecreasing
from repro.core.taxonomy.event_isolated import Degenerate
from repro.core.taxonomy.partition import PerPartition
from repro.relation.schema import TemporalSchema, ValidTimeKind
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.memory import MemoryEngine
from repro.storage.logfile import LogFileEngine
from tests.strategies import (
    compliant_vt_ticks,
    run_standing_view_workload,
    specialization_declarations,
    standing_view_ops,
)

CLOCK_START = 1_000


def make_relation(engine=None, kind=ValidTimeKind.EVENT, specializations=()):
    schema = TemporalSchema(
        name="standing",
        valid_time_kind=kind,
        time_varying=("reading",),
        specializations=list(specializations),
    )
    return TemporalRelation(
        schema, clock=LogicalClock(start=CLOCK_START), engine=engine
    )


class TestEventTopologies:
    @settings(max_examples=25, deadline=None)
    @given(ops=standing_view_ops())
    def test_flat_memory(self, ops):
        run_standing_view_workload(make_relation(MemoryEngine()), ops)

    @settings(max_examples=15, deadline=None)
    @given(ops=standing_view_ops())
    def test_small_segments(self, ops):
        run_standing_view_workload(
            make_relation(MemoryEngine(segment_size=4)), ops
        )

    @settings(max_examples=10, deadline=None)
    @given(ops=standing_view_ops())
    def test_tiered_cold_storage(self, ops):
        with tempfile.TemporaryDirectory() as tier_dir:
            engine = MemoryEngine(segment_size=4, tier_dir=tier_dir)
            try:
                run_standing_view_workload(make_relation(engine), ops)
            finally:
                engine.close()

    @settings(max_examples=6, deadline=None)
    @given(ops=standing_view_ops(max_ops=16))
    def test_logfile(self, ops):
        with tempfile.TemporaryDirectory() as data_dir:
            engine = LogFileEngine(f"{data_dir}/standing.log", fsync=False)
            try:
                run_standing_view_workload(make_relation(engine), ops)
            finally:
                engine.close()


class TestIntervalTopologies:
    @settings(max_examples=20, deadline=None)
    @given(ops=standing_view_ops())
    def test_flat_memory(self, ops):
        run_standing_view_workload(
            make_relation(MemoryEngine(), kind=ValidTimeKind.INTERVAL), ops
        )


class TestDeclaredOrderings:
    """Frontier plans must stay byte-identical to probing.

    The workload stamps compliantly with the declared specialization
    (REJECT mode would refuse anything else), registers range-shaped
    views early so the frontier machinery engages, then deletes a
    sample of live elements -- closes must land even after the insert
    frontier has passed.
    """

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), declaration=specialization_declarations())
    def test_frontier_plans_match_recompute(self, data, declaration):
        count = data.draw(st.integers(min_value=4, max_value=24), label="count")
        ticks = data.draw(compliant_vt_ticks(declaration, count), label="ticks")
        boundary = data.draw(
            st.integers(min_value=-30, max_value=80), label="boundary"
        )
        # compliant_vt_ticks stamps element i for tt = i, so the clock
        # must open at 0 for the declarations to hold in REJECT mode.
        schema = TemporalSchema(
            name="standing",
            time_varying=("reading",),
            specializations=list(declaration),
        )
        relation = TemporalRelation(schema, clock=LogicalClock(start=0))
        registry = relation.views
        views = [
            registry.register_timeslice("slice", Timestamp(boundary)),
            registry.register_overlap(
                "window", Interval(Timestamp(boundary), Timestamp(boundary + 15))
            ),
        ]
        relation.append_many(
            [(f"o{i % 3}", Timestamp(tick)) for i, tick in enumerate(ticks)]
        )
        live = relation.current()
        for victim in live[:: max(1, len(live) // 4)]:
            relation.delete(victim.element_surrogate)
        for view in views:
            assert view.snapshot() == view.recompute(), view.name

    @pytest.mark.parametrize(
        "declared, mode, rows, probe",
        [
            # A per-object order is not a global one: b's 50 follows a's 100.
            pytest.param(
                PerPartition(GloballyNonDecreasing()), EnforcementMode.REJECT,
                [("a", 10, 100), ("b", 20, 50)], 50, id="per-object-non-decreasing",
            ),
            # Within one second, valid times are unordered.
            pytest.param(
                Degenerate("second"), EnforcementMode.REJECT,
                [("a", 1_000_000, 1_600_000), ("b", 1_100_000, 1_500_000)], 1_500_000,
                id="degenerate-per-second",
            ),
            # A recorded ordering stores its violator.
            pytest.param(
                GloballyNonDecreasing(), EnforcementMode.RECORD,
                [("a", 10, 100), ("b", 20, 50)], 50, id="recorded-non-decreasing",
            ),
        ],
    )
    def test_unguaranteed_orderings_probe(self, declared, mode, rows, probe):
        """Only an exact degenerate or a global ordering that storage
        guarantees licenses a frontier plan; anything else probes."""
        schema = TemporalSchema(
            name="standing",
            granularity="microsecond",
            specializations=[declared],
            enforcement=mode,
        )
        clock = SimulatedWallClock(start=0, granularity="microsecond")
        relation = TemporalRelation(schema, clock=clock)
        registry = relation.views
        at = Timestamp(probe, "microsecond")
        views = [
            registry.register_timeslice("slice", at),
            registry.register_overlap("window", Interval(at, Timestamp(probe + 1, "microsecond"))),
        ]
        for object_surrogate, tt, vt in rows:
            clock.advance_to(Timestamp(tt, "microsecond"))
            relation.insert(object_surrogate, Timestamp(vt, "microsecond"))
        for view in views:
            assert view.plan == "probe", view.name
            assert view.snapshot() == view.recompute() != [], view.name


class TestCrossTopologyAgreement:
    """One script, every topology: all views agree across engines.

    Byte-identity across topologies is the server's canonical-codec
    promise extended to standing views; the wire form makes the
    comparison exact.
    """

    @settings(max_examples=8, deadline=None)
    @given(ops=standing_view_ops(max_ops=14))
    def test_same_script_same_answers(self, ops):
        import json

        from repro.server.protocol import elements_to_json

        def run(engine):
            relation = make_relation(engine)
            views = run_standing_view_workload(
                relation, ops, check_after_every_op=False
            )
            return [
                json.dumps(elements_to_json(view.snapshot()), sort_keys=True)
                for view in views
            ]

        flat = run(MemoryEngine())
        assert run(MemoryEngine(segment_size=4)) == flat
