"""A catalog of temporal relations with a TQL front door.

:class:`TemporalDatabase` holds named relations sharing one transaction
clock (so transaction times are globally ordered across relations --
the usual DBMS discipline), executes TQL statements against them, and
produces whole-database design reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.chronos.clock import LogicalClock, TransactionClock
from repro.design.advisor import Advisor
from repro.design.report import render_recommendation
from repro.query import tql
from repro.relation.errors import SchemaError
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.memory import MemoryEngine


class TemporalDatabase:
    """Named temporal relations over one shared transaction clock."""

    def __init__(self, clock: Optional[TransactionClock] = None) -> None:
        self.clock = clock if clock is not None else LogicalClock()
        self._relations: Dict[str, TemporalRelation] = {}

    # -- catalog ------------------------------------------------------------------

    def create_relation(
        self, schema: TemporalSchema, engine: Optional[MemoryEngine] = None
    ) -> TemporalRelation:
        """Create and register a relation under its schema name."""
        if schema.name in self._relations:
            raise SchemaError(f"relation {schema.name!r} already exists")
        relation = TemporalRelation(schema, clock=self.clock, engine=engine)
        self._relations[schema.name] = relation
        return relation

    def attach(self, relation: TemporalRelation) -> None:
        """Register an existing relation (e.g. one built by a workload
        generator).  Its clock is left untouched."""
        name = relation.schema.name
        if name in self._relations:
            raise SchemaError(f"relation {name!r} already exists")
        self._relations[name] = relation

    def drop_relation(self, name: str) -> None:
        if name not in self._relations:
            raise SchemaError(f"no relation named {name!r}")
        del self._relations[name]

    def relation(self, name: str) -> TemporalRelation:
        try:
            return self._relations[name]
        except KeyError:
            known = ", ".join(sorted(self._relations)) or "none"
            raise SchemaError(f"no relation named {name!r} (known: {known})") from None

    def names(self) -> List[str]:
        return sorted(self._relations)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    # -- querying -----------------------------------------------------------------------

    def execute(
        self, statement: Union[str, tql.ParsedQuery], use_planner: bool = True
    ) -> tql.Rows:
        """Run one TQL statement (text, or already parsed), resolving the
        relation by name."""
        parsed = tql.parse(statement) if isinstance(statement, str) else statement
        relation = self.relation(parsed.relation_name)
        return tql.execute(parsed, relation, use_planner=use_planner)

    # -- design -------------------------------------------------------------------------

    def design_report(self, margin: float = 0.5) -> str:
        """Advisor analysis of every non-empty relation, concatenated."""
        advisor = Advisor(margin=margin)
        sections = []
        for name in self.names():
            relation = self._relations[name]
            if len(relation) == 0:
                sections.append(f"Design analysis: {name}\n  (empty; nothing to infer)")
                continue
            recommendation = advisor.recommend_for_relation(relation)
            sections.append(render_recommendation(recommendation, name))
        return "\n\n".join(sections)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}({len(rel)})" for name, rel in sorted(self._relations.items())
        )
        return f"TemporalDatabase({inner})"
