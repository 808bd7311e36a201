"""Unit tests for the standing-view registry: plan compilation, delta
journaling, epoch cursors, and the out-of-band resync machinery.

The differential suite (``test_views_differential``) checks end-to-end
equivalence under randomized workloads; these tests pin the individual
contracts those workloads rely on.
"""

import pytest

from repro.chronos.clock import LogicalClock
from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.core.constraints import EnforcementMode
from repro.relation.errors import SchemaError
from repro.relation.schema import TemporalSchema, ValidTimeKind
from repro.relation.temporal_relation import TemporalRelation
from repro.views import (
    ConstraintWatchView,
    CurrentStateView,
    OverlapView,
    TimesliceView,
    ViewRegistry,
    compile_maintenance_plan,
)


def make_relation(specializations=(), kind=ValidTimeKind.EVENT, enforcement=None):
    extra = {} if enforcement is None else {"enforcement": enforcement}
    schema = TemporalSchema(
        name="watched",
        valid_time_kind=kind,
        time_varying=("reading",),
        specializations=list(specializations),
        **extra,
    )
    return TemporalRelation(schema, clock=LogicalClock(start=100))


class TestPlanCompilation:
    def test_degenerate_event_gets_boundary_plan(self):
        relation = make_relation(["degenerate"])
        assert compile_maintenance_plan(relation.schema) == "degenerate-boundary"

    @pytest.mark.parametrize(
        "names", [["globally sequential"], ["globally non-decreasing"]]
    )
    def test_monotone_orderings_get_frontier_plan(self, names):
        relation = make_relation(names)
        assert compile_maintenance_plan(relation.schema) == "sequential-frontier"

    def test_undeclared_schema_probes(self):
        relation = make_relation()
        assert compile_maintenance_plan(relation.schema) == "probe"

    def test_record_mode_orderings_cannot_be_trusted(self):
        # RECORD mode admits violating stamps, so the frontier argument
        # is unsound: the compiler must fall back to probing.
        relation = make_relation(
            ["globally sequential"], enforcement=EnforcementMode.RECORD
        )
        assert compile_maintenance_plan(relation.schema) == "probe"

    def test_view_instances_carry_their_plan(self):
        relation = make_relation(["globally non-decreasing"])
        registry = relation.views
        assert registry.register_current().plan == "store-materialized"
        assert registry.register_timeslice("slice", Timestamp(5)).plan == (
            "sequential-frontier"
        )
        assert registry.register_watch("w", lambda e: True).plan == "probe"


class TestRegistry:
    def test_register_and_lookup(self):
        relation = make_relation()
        registry = relation.views
        view = registry.register_timeslice("slice", Timestamp(3))
        assert "slice" in registry
        assert registry.get("slice") is view
        assert registry.names() == ["slice"]
        assert len(registry) == 1

    def test_duplicate_name_rejected(self):
        registry = make_relation().views
        registry.register_current()
        with pytest.raises(SchemaError):
            registry.register_current()

    def test_unregister_unknown_name_rejected(self):
        registry = make_relation().views
        with pytest.raises(SchemaError):
            registry.unregister("ghost")

    def test_views_property_is_lazy(self):
        relation = make_relation()
        assert not relation.has_views
        relation.views.register_current()
        assert relation.has_views

    def test_registering_mid_workload_sees_existing_rows(self):
        relation = make_relation()
        relation.insert("alpha", Timestamp(5))
        relation.insert("beta", Timestamp(9))
        view = relation.views.register_timeslice("slice", Timestamp(5))
        assert [e.object_surrogate for e in view.snapshot()] == ["alpha"]


class TestDeltaJournal:
    def test_insert_and_delete_epochs_are_commit_stamps(self):
        relation = make_relation()
        registry = relation.views
        floor = registry.journal_floor
        stored = relation.insert("alpha", Timestamp(5))
        closed = relation.delete(stored.element_surrogate)
        feed = registry.deltas_since(floor)
        assert not feed.resync
        kinds = [(delta.kind, delta.epoch) for delta in feed.deltas]
        assert kinds == [
            ("insert", stored.tt_start.microseconds),
            ("close", closed.tt_stop.microseconds),
        ]
        assert feed.epoch == closed.tt_stop.microseconds

    def test_modify_emits_paired_deltas_sharing_one_epoch(self):
        relation = make_relation()
        registry = relation.views
        stored = relation.insert("alpha", Timestamp(5))
        cursor = registry.last_epoch
        replacement = relation.modify(stored.element_surrogate, vt=Timestamp(7))
        feed = registry.deltas_since(cursor)
        assert [delta.kind for delta in feed.deltas] == ["close", "insert"]
        assert feed.deltas[0].epoch == feed.deltas[1].epoch
        assert feed.deltas[1].element.element_surrogate == replacement.element_surrogate

    def test_cursor_at_last_epoch_sees_nothing(self):
        relation = make_relation()
        relation.insert("alpha", Timestamp(5))
        registry = relation.views
        feed = registry.deltas_since(registry.last_epoch)
        assert not feed.resync
        assert feed.deltas == ()
        assert feed.epoch == registry.last_epoch

    def test_cursor_behind_floor_must_resync(self):
        relation = make_relation()
        registry = relation.views
        relation.insert("alpha", Timestamp(5))
        feed = registry.deltas_since(registry.journal_floor - 10)
        assert feed.resync
        assert feed.deltas == ()

    def test_bounded_journal_evicts_and_advances_floor(self):
        relation = make_relation()
        registry = relation.views
        registry._journal_limit = 4
        opening_floor = registry.journal_floor
        elements = [relation.insert("alpha", Timestamp(i)) for i in range(8)]
        # Four deltas fell off the front; the floor is the newest
        # evicted epoch, so older cursors must resync while cursors at
        # or past the floor stream the retained tail.
        assert registry.journal_floor == elements[3].tt_start.microseconds
        assert registry.deltas_since(opening_floor).resync
        fresh = registry.deltas_since(registry.journal_floor)
        assert [d.element.element_surrogate for d in fresh.deltas] == [
            e.element_surrogate for e in elements[4:]
        ]

    def test_default_journal_limit_is_generous(self):
        assert ViewRegistry.JOURNAL_LIMIT >= 1024


class TestOutOfBandChanges:
    def test_vacuum_marks_views_stale_but_keeps_journal(self):
        from repro.storage.vacuum import vacuum_relation

        relation = make_relation()
        registry = relation.views
        view = registry.register_timeslice("slice", Timestamp(5))
        stored = relation.insert("alpha", Timestamp(5))
        relation.delete(relation.insert("beta", Timestamp(5)).element_surrogate)
        cursor = registry.journal_floor
        before = registry.deltas_since(registry.journal_floor)
        vacuum_relation(relation, relation.clock.peek())
        # Logical state is preserved: the journal still answers the old
        # cursor, and the view re-derives against the new engine.
        after = registry.deltas_since(cursor)
        assert not after.resync
        assert [d.kind for d in after.deltas] == [d.kind for d in before.deltas]
        assert view.snapshot() == view.recompute()
        assert [e.element_surrogate for e in view.snapshot()] == [
            stored.element_surrogate
        ]

    def test_untracked_engine_write_forces_resync(self):
        relation = make_relation()
        registry = relation.views
        view = registry.register_current()
        stored = relation.insert("alpha", Timestamp(5))
        cursor = registry.last_epoch
        # Mutate storage behind the relation's back.
        relation.engine.close_element(
            stored.element_surrogate, relation.clock.now()
        )
        feed = registry.deltas_since(cursor)
        assert feed.resync
        assert view.snapshot() == view.recompute() == []


class TestFrontierMaintenance:
    def test_frontier_closes_once_and_stays_correct(self):
        relation = make_relation(["globally non-decreasing"])
        view = relation.views.register_timeslice("slice", Timestamp(2))
        relation.insert("alpha", Timestamp(2))
        assert not view.describe()["frontier_passed"]
        relation.insert("beta", Timestamp(5))  # past the slice: closes frontier
        assert view.describe()["frontier_passed"]
        relation.insert("gamma", Timestamp(9))  # skipped in O(1)
        assert view.snapshot() == view.recompute()
        assert [e.object_surrogate for e in view.snapshot()] == ["alpha"]

    def test_closes_processed_after_frontier_passes(self):
        relation = make_relation(["globally non-decreasing"])
        view = relation.views.register_timeslice("slice", Timestamp(2))
        stored = relation.insert("alpha", Timestamp(2))
        relation.insert("beta", Timestamp(7))
        relation.delete(stored.element_surrogate)
        assert view.snapshot() == view.recompute() == []

    def test_overlap_frontier_uses_window_end(self):
        from repro.core.taxonomy.interval_inter import IntervalGloballyNonDecreasing

        relation = make_relation(
            [IntervalGloballyNonDecreasing()], kind=ValidTimeKind.INTERVAL
        )
        window = Interval(Timestamp(4), Timestamp(8))
        view = relation.views.register_overlap("window", window)
        relation.insert("alpha", Interval(Timestamp(2), Timestamp(6)))
        relation.insert("beta", Interval(Timestamp(8), Timestamp(12)))  # closes
        relation.insert("gamma", Interval(Timestamp(9), Timestamp(20)))
        assert view.describe()["frontier_passed"]
        assert view.snapshot() == view.recompute()
        assert [e.object_surrogate for e in view.snapshot()] == ["alpha"]


class TestViewSemantics:
    def test_current_view_delegates_to_store(self):
        relation = make_relation()
        view = relation.views.register_current()
        assert isinstance(view, CurrentStateView)
        stored = relation.insert("alpha", Timestamp(5))
        assert len(view) == relation.live_count() == 1
        relation.delete(stored.element_surrogate)
        assert view.snapshot() == view.recompute() == []

    def test_timeslice_event_requires_exact_coincidence(self):
        relation = make_relation()
        view = relation.views.register_timeslice("slice", Timestamp(5))
        relation.insert("alpha", Timestamp(5))
        relation.insert("beta", Timestamp(4))
        assert [e.object_surrogate for e in view.snapshot()] == ["alpha"]

    def test_overlap_event_uses_half_open_window(self):
        relation = make_relation()
        window = Interval(Timestamp(4), Timestamp(8))
        view = relation.views.register_overlap("window", window)
        relation.insert("at-start", Timestamp(4))
        relation.insert("at-end", Timestamp(8))  # excluded: half-open
        assert [e.object_surrogate for e in view.snapshot()] == ["at-start"]

    def test_watch_view_flags_predicate_matches(self):
        relation = make_relation()
        view = relation.views.register_watch(
            "hot", lambda element: (element.time_varying.get("reading") or 0) > 10
        )
        assert isinstance(view, ConstraintWatchView)
        relation.insert("alpha", Timestamp(1), {"reading": 3})
        hot = relation.insert("beta", Timestamp(2), {"reading": 40})
        assert [e.element_surrogate for e in view.snapshot()] == [
            hot.element_surrogate
        ]
        relation.delete(hot.element_surrogate)
        assert view.snapshot() == []

    def test_views_are_byte_identical_to_recompute_on_the_wire(self):
        from repro.server.protocol import elements_to_json

        relation = make_relation()
        view = relation.views.register_overlap(
            "window", Interval(Timestamp(0), Timestamp(50))
        )
        for i in range(12):
            relation.insert(f"o{i % 3}", Timestamp(i * 4), {"reading": i})
        for victim in relation.current()[::3]:
            relation.delete(victim.element_surrogate)
        import json

        maintained = json.dumps(elements_to_json(view.snapshot()), sort_keys=True)
        recomputed = json.dumps(elements_to_json(view.recompute()), sort_keys=True)
        assert maintained == recomputed


class TestExplainIntegration:
    def test_explain_lists_standing_views(self):
        relation = make_relation()
        relation.views.register_timeslice("slice", Timestamp(5))
        relation.insert("alpha", Timestamp(5))
        report = relation.explain("SELECT * FROM watched")
        rendered = report.render()
        assert "standing view 'slice'" in rendered
        assert "plan=probe" in rendered

    def test_explain_unchanged_without_views(self):
        relation = make_relation()
        relation.insert("alpha", Timestamp(5))
        report = relation.explain("SELECT * FROM watched")
        assert "standing view" not in report.render()
