"""EXPLAIN: the chosen plan, its pruning decisions, and timed spans.

``explain_query`` runs one query through the specialization-aware
planner under a :class:`~repro.observability.tracing.QueryTrace` and
returns an :class:`ExplainReport`: which strategy fired, which rules
were pruned and why (the planner's decision log), and a span tree with
per-stage timings.  Surfaced as ``TemporalRelation.explain`` and the
``repro explain`` CLI command.

This module sits above the query layer; import it lazily from lower
layers (``repro.observability``'s package init deliberately does not
pull it in, so storage engines can import the metrics module without a
cycle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Union

from repro.chronos.clock import TimerSource
from repro.observability.tracing import QueryTrace

if TYPE_CHECKING:
    from repro.query import ast
    from repro.relation.temporal_relation import TemporalRelation

__all__ = ["ExplainReport", "explain_query"]


@dataclass
class ExplainReport:
    """Everything one planner execution can tell you about itself."""

    statement: Optional[str]
    algebra: str
    strategy: str
    explanation: str
    decisions: List[str]
    trace: QueryTrace
    examined: int = 0
    returned: int = 0
    executed: bool = True
    results: list = field(default_factory=list)
    #: Zone-map accounting; None when the chosen strategy does not scan
    #: segment-at-a-time (point lookups, engine-index delegation, naive).
    segments_scanned: Optional[int] = None
    segments_pruned: Optional[int] = None
    #: Columnar accounting, alongside the zone-map counts: positions the
    #: kernel tested vs Element objects materialized -- the
    #: late-materialization ratio.
    columnar_positions_examined: Optional[int] = None
    columnar_elements_materialized: Optional[int] = None
    #: Of the materialized, those returned with no valid-time test
    #: (zone-accepted segments and the declared region's sure-match core).
    columnar_rows_accepted: Optional[int] = None
    #: Tiered-storage accounting; None unless some scanned segments were
    #: served from the compressed cold tier.
    tier_cold_segments: Optional[int] = None

    def render(self) -> str:
        lines: List[str] = []
        if self.statement is not None:
            lines.append(f"statement : {self.statement.strip()}")
        lines.append(f"algebra   : {self.algebra}")
        lines.append(f"strategy  : {self.strategy}")
        lines.append(f"reason    : {self.explanation}")
        lines.append("decisions :")
        for decision in self.decisions:
            lines.append(f"  - {decision}")
        if self.executed:
            lines.append(f"examined  : {self.examined} element(s)")
            lines.append(f"returned  : {self.returned} result(s)")
            if self.segments_scanned is not None:
                lines.append(
                    f"segments  : {self.segments_scanned} scanned, "
                    f"{self.segments_pruned} pruned by zone maps"
                )
            if self.columnar_positions_examined is not None:
                lines.append(
                    f"columnar  : {self.columnar_positions_examined} positions "
                    f"examined, {self.columnar_elements_materialized} elements "
                    f"materialized, {self.columnar_rows_accepted} accepted"
                )
            if self.tier_cold_segments is not None:
                lines.append(
                    f"tier      : {self.tier_cold_segments} segment(s) served "
                    "from compressed cold storage"
                )
        lines.append("spans     :")
        lines.append(self.trace.render())
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def explain_query(
    relation: "TemporalRelation",
    query: Union[str, "ast.QueryNode"],
    execute: bool = True,
    timer: Optional[TimerSource] = None,
) -> ExplainReport:
    """Plan (and by default run) *query*, reporting plan + trace.

    *query* is either a TQL statement or an algebra tree.  TQL WHERE /
    SELECT clauses are compiled for the algebra description but the
    plan covers the temporal core, exactly as execution does.
    """
    from repro.query import tql
    from repro.query.ast import QueryNode
    from repro.query.planner import Planner

    trace = QueryTrace(timer=timer)
    statement: Optional[str] = None

    if isinstance(query, str):
        statement = query
        with trace.span("compile") as span:
            parsed = tql.parse(query)
            core = tql.compile_query(
                tql.ParsedQuery(
                    relation_name=parsed.relation_name,
                    attributes=None,
                    valid_at=parsed.valid_at,
                    valid_window=parsed.valid_window,
                    as_of=parsed.as_of,
                    explicit_current=parsed.explicit_current,
                ),
                relation,
            )
            algebra = tql.compile_query(parsed, relation).describe()
            span.annotate(relation=relation.schema.name)
    elif isinstance(query, QueryNode):
        core = query
        algebra = query.describe()
    else:
        raise TypeError(f"explain expects a TQL string or QueryNode, got {query!r}")

    with trace.span("plan") as span:
        plan = Planner(relation).plan(core)
        span.annotate(strategy=plan.strategy)

    decisions = list(plan.decisions)
    if relation.has_views:
        # Standing views ride the mutation stream instead of rescans;
        # surface each one's compiled maintenance plan alongside the
        # query plan it spares. Inserted ahead of the planner's final
        # "chosen: ..." line, which callers rely on staying last.
        view_lines = [
            "standing view {name!r}: kind={kind}, plan={plan}, "
            "{size} row(s), {deltas} delta(s) applied".format(
                name=summary["name"],
                kind=summary["kind"],
                plan=summary["plan"],
                size=summary["size"],
                deltas=summary["deltas_applied"],
            )
            for summary in relation.views.describe()
        ]
        if decisions and decisions[-1].startswith("chosen:"):
            decisions[-1:-1] = view_lines
        else:
            decisions.extend(view_lines)

    report = ExplainReport(
        statement=statement,
        algebra=algebra,
        strategy=plan.strategy,
        explanation=plan.explanation,
        decisions=decisions,
        trace=trace,
        executed=execute,
    )
    if not execute:
        return report

    with trace.span("execute", strategy=plan.strategy) as span:
        with trace.span(f"operator:{plan.strategy}") as operator_span:
            results = plan.execute()
            operator_span.annotate(examined=plan.examined, returned=len(results))
            if plan.segment_stats is not None:
                operator_span.annotate(
                    segments_scanned=plan.segment_stats.scanned,
                    segments_pruned=plan.segment_stats.pruned,
                    columnar_positions=plan.segment_stats.positions_examined,
                    columnar_materialized=plan.segment_stats.materialized,
                    columnar_accepted=plan.segment_stats.accepted,
                )
                if plan.segment_stats.cold_segments:
                    operator_span.annotate(
                        tier_cold_segments=plan.segment_stats.cold_segments
                    )
        span.annotate(returned=len(results))
    report.examined = plan.examined
    report.returned = len(results)
    report.results = results
    if plan.segment_stats is not None:
        report.segments_scanned = plan.segment_stats.scanned
        report.segments_pruned = plan.segment_stats.pruned
        report.columnar_positions_examined = plan.segment_stats.positions_examined
        report.columnar_elements_materialized = plan.segment_stats.materialized
        report.columnar_rows_accepted = plan.segment_stats.accepted
        if plan.segment_stats.cold_segments:
            report.tier_cold_segments = plan.segment_stats.cold_segments
    return report
