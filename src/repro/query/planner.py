"""The specialization-aware planner.

This is the operational payoff of the paper (Section 1): declared
temporal specializations license cheaper access paths.

A specialization is a region of offsets ``d = vt - tt`` (Section 3.1,
Figure 1), so a query need only look at the transaction-time window
that region allows -- and, for a window wider than a two-sided band,
need not test the valid time of the rows in the window's *core*, which
the region proves match.  :func:`windowed` *computes* both from the
schema's declared offset region with the algebra in
:mod:`repro.core.taxonomy.regions` -- for the planner, which hands
:meth:`MemoryEngine.select <repro.storage.memory.MemoryEngine.select>`
one :class:`~repro.storage.columnar.ScanSpec` (the strategy names are
labels over the derived window, not separate code paths), and for the
relation's own read methods alike.

Rules, in preference order, for a valid timeslice:

1. *degenerate* (exact) -- the point region ``[0, 0]``: the window is
   the probe itself, a point lookup on the transaction-time index
   (Section 3.1: treat the relation as a rollback relation);
   granularity-relative degenerate -- the one tick containing the probe;
2. event relation declared *non-decreasing* / *sequential* (or
   *non-increasing*) -- valid time follows transaction order (Section
   3.2: "valid time can be approximated with transaction time"), so the
   valid-time event index is an append-only run and one bisect of it
   answers the timeslice;
3. interval relation declared *sequential* -- intervals are disjoint
   and ordered; one stab of the interval tree;
4. any declared bounded region -- the window the region permits (one- or
   two-sided), and inside a two-sided window its sure-match core;
5. no declaration -- the full range: the engine's valid-time index
   (event index or interval tree), which every engine keeps.

Rules 2, 3 and 5 hand the engine the same un-narrowed spec; the
strategy name records which declaration licensed the read.  Every plan
but the merge joins and the reference fallback is one
:meth:`~repro.storage.memory.MemoryEngine.select`, and the choice
depends on the schema and the query alone, never on the stored data.

"Declared" means guaranteed: only a schema that REJECTs violating
elements licenses a rule, so RECORD and WARN declarations license
nothing (``TemporalSchema.guaranteed_specializations``).

Rollback and bitemporal queries always bisect the append order
(uniqueness and monotonicity of transaction time need no declaration).
Any tree shape the rules do not cover falls back to the reference
executor, so planning never changes results -- property-tested in the
suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.chronos.timestamp import Timestamp
from repro.observability import metrics as _metrics
from repro.core.taxonomy.event_inter import (
    GloballyNonDecreasing,
    GloballyNonIncreasing,
    GloballySequential,
)
from repro.core.taxonomy.interval_inter import IntervalGloballySequential
from repro.query import ast, operators
from repro.query import cache as _query_cache
from repro.query.executor import NaiveExecutor
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.columnar import NEG_SENTINEL, POS_SENTINEL, ScanSpec


def windowed(schema: TemporalSchema, spec: ScanSpec) -> ScanSpec:
    """*spec* with its tt window narrowed to what *schema*'s declarations
    allow for its valid-time window, and the window's sure-match core --
    Figure 1 used as code, to exclude rows and to include them.

    An element with offset ``d = vt - tt`` inside the declared region
    and valid time inside the spec's window has ``tt`` inside
    :meth:`OffsetRegion.tt_window`; a granularity-relative degenerate
    declaration (``floor(vt) = floor(tt)``, no fixed region) confines
    it to the ticks the window touches.  No guaranteed declaration, an
    interval relation, or an unbounded valid-time side leaves the full
    range.

    Conversely every element with ``tt`` inside
    :meth:`OffsetRegion.tt_core` has its valid time inside the window,
    so the store tests only its existence.  The core needs a region and
    a window bounded on both sides, and is empty when the window is
    narrower than the band (a point read has none unless the region is
    the point ``[0, 0]``).  A hull wider than the declarations only
    shrinks it.  Schema-static: thread-safe.
    """
    if spec.vt_lo is None or not schema.is_event:
        return spec
    first = spec.vt_lo if spec.vt_lo > NEG_SENTINEL else None
    last = spec.vt_hi - 1 if spec.vt_hi < POS_SENTINEL else None
    region = schema.declared_offset_region
    if region is not None:
        spec = spec.narrowed(*region.tt_window(first, last))
    degenerate = schema.declared_degenerate
    if degenerate is not None and degenerate.granularity is not None:
        tick = degenerate.granularity.microseconds
        spec = spec.narrowed(
            None if first is None else first - first % tick,
            None if last is None else last - last % tick + tick - 1,
        )
    core = None if region is None else region.tt_core(first, last)
    return spec if core is None else spec.cored(*core)


@dataclass
class PlannedQuery:
    """An executable plan with its explanation and decision log.

    ``decisions`` records the planning walk: every rule the planner
    considered, why the pruned ones did not apply, and which one fired
    -- the audit trail ``explain`` renders.

    ``segment_stats`` is present when the store's kernel serves the
    plan's spec (the kernel fills it in during execution); each execute
    starts a fresh one, so re-running a plan (benchmark repetitions, a
    plan-cache hit) reports one run.
    """

    strategy: str
    explanation: str
    #: Runs the plan; receives this run's ``segment_stats`` (or None).
    _thunk: Callable[[Optional[operators.SegmentStats]], Tuple[list, int]]
    decisions: List[str] = field(default_factory=list)
    examined: int = field(default=0, init=False)
    segment_stats: Optional[operators.SegmentStats] = None

    def execute(self) -> list:
        if self.segment_stats is not None:
            self.segment_stats = operators.SegmentStats()
        if not _metrics.enabled():
            results, examined = self._thunk(self.segment_stats)
            self.examined = examined
            return results
        registry = _metrics.registry()
        with registry.timer(f"query.execute_seconds.{self.strategy}"):
            results, examined = self._thunk(self.segment_stats)
        self.examined = examined
        registry.counter(f"query.plans.{self.strategy}").inc()
        registry.counter("query.elements_examined").inc(examined)
        registry.counter("query.elements_returned").inc(len(results))
        if self.segment_stats is not None:
            registry.counter("query.segments_scanned").inc(self.segment_stats.scanned)
            registry.counter("query.segments_pruned").inc(self.segment_stats.pruned)
            registry.counter("query.columnar_positions_examined").inc(
                self.segment_stats.positions_examined
            )
            registry.counter("query.columnar_elements_materialized").inc(
                self.segment_stats.materialized
            )
            registry.counter("query.columnar_positions_accepted").inc(
                self.segment_stats.accepted
            )
            if self.segment_stats.cold_segments:
                registry.counter("query.tier_cold_segments").inc(
                    self.segment_stats.cold_segments
                )
        return results


class Planner:
    """Chooses physical operators from a relation's declared semantics."""

    def __init__(self, relation: TemporalRelation) -> None:
        self.relation = relation

    # -- declared-semantics predicates --------------------------------------------

    def _has(self, *classes: type) -> bool:
        """Is one of *classes* guaranteed (per relation, not per partition)?

        Per-partition orderings do NOT license global binary search --
        only the global forms do -- so PerPartition wrappers are
        deliberately not unwrapped here.  A declaration that is only
        recorded or warned about guarantees nothing
        (``TemporalSchema.guaranteed_specializations``).
        """
        return any(
            isinstance(spec, classes)
            for spec in self.relation.schema.guaranteed_specializations
        )

    # -- planning -----------------------------------------------------------------------

    def plan(self, query: ast.QueryNode) -> PlannedQuery:
        """Plan *query*, consulting the epoch-keyed plan cache first.

        A cached plan is keyed on (fingerprint, relation version,
        engine identity, engine mutation count): any mutation changes
        the key and re-plans.  Plans are safe to share across planner
        instances: thunks close over the relation, and ``execute()``
        resets per-run accounting.
        """
        fp = _query_cache.fingerprint(query, self.relation)
        if fp is None:
            return self._build_plan(query)
        cache = self.relation.query_cache
        key = (fp, _query_cache.epoch_key(self.relation))
        cached = cache.get(key)
        if cached is not None:
            if _metrics.enabled():
                _metrics.registry().counter(f"query.planned.{cached.strategy}").inc()
            return cached
        plan = self._build_plan(query)
        cache.put(key, plan)
        return plan

    def _build_plan(self, query: ast.QueryNode) -> PlannedQuery:
        decisions: List[str] = []
        plan = self._try_plan(query, decisions)
        if plan is None:
            decisions.append("no specialized rule covers this tree shape")
            plan = PlannedQuery(
                strategy="naive",
                explanation="no applicable rule; reference executor",
                _thunk=lambda _stats: _run_naive(query),
            )
        if plan.segment_stats is not None:
            decisions.append("columnar: stamp-column kernel with late materialization")
        if plan.segment_stats is not None and self.relation.engine.store.cold_base > 0:
            decisions.append(
                "tiered: cold segments served from compressed segment files "
                "(lazy per-column decode)"
            )
        decisions.append(f"chosen: {plan.strategy} -- {plan.explanation}")
        plan.decisions = decisions
        if _metrics.enabled():
            _metrics.registry().counter(f"query.planned.{plan.strategy}").inc()
        return plan

    def _try_plan(
        self, query: ast.QueryNode, decisions: List[str]
    ) -> Optional[PlannedQuery]:
        if isinstance(query, ast.Rollback) and self._is_scan(query.child):
            decisions.append(
                "rollback query: transaction-time monotonicity needs no declaration"
            )
            return self._read_plan(
                "rollback-prefix",
                "transaction times are append-ordered; binary search + prefix, "
                "zone maps skip dead segments",
                ScanSpec.of(as_of=query.tt),
            )
        if isinstance(query, ast.BitemporalSlice) and self._is_scan(query.child):
            decisions.append("bitemporal slice: tt prefix is free, vt filters the prefix")
            return self._read_plan(
                "bitemporal-prefix",
                "tt-prefix by binary search, vt filter on the prefix; zone maps "
                "skip segments dead at tt or outside vt",
                windowed(self.relation.schema, ScanSpec.of(query.vt, query.tt)),
            )
        if isinstance(query, ast.ValidTimeslice) and self._is_scan(query.child):
            return self._plan_timeslice(query.vt, decisions)
        if isinstance(query, ast.ValidOverlap) and self._is_scan(query.child):
            spec = ScanSpec.of(query.window)
            if self.relation.schema.is_event:
                narrowed = windowed(self.relation.schema, spec)
                if narrowed != spec:
                    decisions.append(
                        "bounded-tt-window-overlap: declared offset region prunes the scan"
                    )
                    return self._read_plan(
                        "bounded-tt-window-overlap",
                        "declared bounds confine the window's matches to a "
                        "transaction-time range; zone maps skip segments inside it",
                        narrowed,
                    )
                decisions.append(
                    "bounded-tt-window-overlap: pruned -- no bounded region declared"
                )
            else:
                decisions.append(
                    "bounded-tt-window-overlap: pruned -- not an event relation"
                )
            return self._read_plan(
                "engine-overlap",
                "engine valid-time index (sorted index / interval tree)",
                spec,
            )
        if isinstance(query, ast.CurrentState) and self._is_scan(query.child):
            decisions.append(
                "current query: the engine's current-state path (materialized "
                "view on segmented engines -- O(live), not O(history))"
            )
            return self._read_plan(
                "current",
                "current-state read (materialized view when available)",
                ScanSpec.of(),
            )
        if isinstance(query, ast.TemporalJoin):
            return self._plan_join(query, decisions)
        return None

    def _plan_join(
        self, query: ast.TemporalJoin, decisions: List[str]
    ) -> Optional[PlannedQuery]:
        """Sort-merge join when both inputs are ordered event relations.

        Applies to ``TemporalJoin(CurrentState(Scan), CurrentState(Scan))``
        -- the natural "join the facts we currently believe" shape.  The
        merge requires both relations' current elements to be valid-time
        sorted in transaction order, exactly what a non-decreasing (or
        sequential) declaration guarantees.
        """

        def scanned_current(node: ast.QueryNode):
            if isinstance(node, ast.CurrentState) and self._is_scan(node.child):
                return node.child.relation  # type: ignore[union-attr]
            return None

        left_relation = scanned_current(query.left)
        right_relation = scanned_current(query.right)
        if left_relation is None or right_relation is None:
            decisions.append(
                "merge-join: pruned -- inputs are not CurrentState(Scan) on both sides"
            )
            return None

        def declared_ordered(relation: TemporalRelation) -> bool:
            if relation.schema.is_event:
                ordered_types: tuple = (GloballySequential, GloballyNonDecreasing)
            else:
                from repro.core.taxonomy.interval_inter import (
                    IntervalGloballyNonDecreasing,
                )

                ordered_types = (
                    IntervalGloballySequential,
                    IntervalGloballyNonDecreasing,
                )
            return any(
                isinstance(spec, ordered_types)
                for spec in relation.schema.guaranteed_specializations
            )

        if not (declared_ordered(left_relation) and declared_ordered(right_relation)):
            decisions.append(
                "merge-join: pruned -- both inputs must declare a global ordering"
            )
            return None
        if left_relation.schema.is_event and right_relation.schema.is_event:
            decisions.append("merge-join: both event inputs declared ordered")
            return PlannedQuery(
                strategy="merge-join",
                explanation=(
                    "both inputs declared non-decreasing; single merge pass over "
                    "valid-time-sorted current states"
                ),
                _thunk=lambda _stats: operators.merge_join_events(
                    left_relation, right_relation, query.condition
                ),
            )
        if not left_relation.schema.is_event and not right_relation.schema.is_event:
            decisions.append("interval-merge-join: both interval inputs declared ordered")
            return PlannedQuery(
                strategy="interval-merge-join",
                explanation=(
                    "both interval inputs declared non-decreasing; plane-sweep "
                    "overlap join over start-sorted current states"
                ),
                _thunk=lambda _stats: operators.merge_join_intervals(
                    left_relation, right_relation, query.condition
                ),
            )
        decisions.append("merge-join: pruned -- mixed event/interval inputs")
        return None

    def _read_plan(self, strategy: str, explanation: str, spec: ScanSpec) -> PlannedQuery:
        """A plan that runs *spec* through the engine's one read; the
        strategy is its label.  It reports segment counts exactly when
        the store's kernel serves the spec (:attr:`ScanSpec.kernel_served`)."""
        return PlannedQuery(
            strategy=strategy,
            explanation=explanation,
            _thunk=lambda stats: self.relation.engine.select(spec, stats),
            segment_stats=operators.SegmentStats() if spec.kernel_served else None,
        )

    def _plan_timeslice(self, vt: Timestamp, decisions: List[str]) -> PlannedQuery:
        is_event = self.relation.schema.is_event
        spec = ScanSpec.of(vt)
        narrowed = windowed(self.relation.schema, spec)
        degenerate = self.relation.schema.declared_degenerate
        if degenerate is not None and is_event:
            if degenerate.granularity is None:
                decisions.append("degenerate: declared -- timeslice is a tt point lookup")
                return self._read_plan(
                    "degenerate-rollback",
                    "vt = tt declared; timeslice is a tt-index point lookup",
                    narrowed,
                )
            tick = degenerate.granularity.name.lower()
            decisions.append(f"degenerate({tick}): declared -- timeslice scans one tt tick")
            return self._read_plan(
                "degenerate-tick-window",
                f"vt = tt within one {tick} declared; timeslice scans a "
                "single granularity tick of the tt index",
                narrowed,
            )
        decisions.append("degenerate: pruned -- not declared (or not an event relation)")
        # A declared ordering makes the valid-time index an append-ordered
        # run (Section 3.2), so the un-narrowed spec's index read *is* the
        # binary search: the label names the declaration, not another path.
        if is_event and self._has(GloballySequential, GloballyNonDecreasing):
            decisions.append(
                "monotone-binary-search: globally sequential/non-decreasing declared"
            )
            return self._read_plan(
                "monotone-binary-search",
                "valid times non-decreasing along transaction order; one "
                "bisect of the append-ordered valid-time index",
                spec,
            )
        if is_event and self._has(GloballyNonIncreasing):
            decisions.append("monotone-binary-search: globally non-increasing declared")
            return self._read_plan(
                "monotone-binary-search-descending",
                "valid times non-increasing along transaction order; one "
                "bisect of the valid-time index",
                spec,
            )
        decisions.append("monotone-binary-search: pruned -- no global event ordering declared")
        if not is_event and self._has(IntervalGloballySequential):
            decisions.append("sequential-interval-search: sequential intervals declared")
            return self._read_plan(
                "sequential-interval-search",
                "sequential intervals are disjoint and ordered; one stab of "
                "the interval tree",
                spec,
            )
        if narrowed != spec:
            bounded = (narrowed.tt_lo > NEG_SENTINEL) + (narrowed.tt_hi < POS_SENTINEL)
            sides = ("one" if bounded == 1 else "two") + "-sided"
            decisions.append(
                f"bounded-tt-window: declared offset region prunes to a {sides} window"
            )
            return self._read_plan(
                "bounded-tt-window",
                f"declared bounds confine matches to a {sides} "
                "transaction-time window; zone maps skip segments inside it",
                narrowed,
            )
        decisions.append("bounded-tt-window: pruned -- no bounded region declared")
        return self._read_plan(
            "engine-index",
            "engine valid-time index (sorted index / interval tree)",
            spec,
        )

    @staticmethod
    def _is_scan(node: ast.QueryNode) -> bool:
        return isinstance(node, ast.Scan)


def _run_naive(query: ast.QueryNode) -> Tuple[list, int]:
    executor = NaiveExecutor()
    results = executor.run(query)
    return results, executor.examined
