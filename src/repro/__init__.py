"""repro: an executable reproduction of *Temporal Specialization*
(C. S. Jensen & R. T. Snodgrass, ICDE 1992).

The paper defines a taxonomy of *specialized temporal relations* --
bitemporal relations whose valid and transaction time-stamps interact
in restricted ways -- and argues that declaring these restrictions
captures application semantics and enables better storage, indexing,
and query processing.  This library makes the whole programme
executable:

* :mod:`repro.chronos` -- the time domain (stamps, durations, Allen's
  interval relations, clocks);
* :mod:`repro.core` -- the taxonomy itself: every specialization of
  Sections 3.1-3.4, the Figure 1 region algebra with the completeness
  enumeration, the Figures 2-5 lattices, constraint enforcement, and
  specialization inference;
* :mod:`repro.relation` -- temporal relations per Section 2's
  conceptual model (elements, surrogates, historical states);
* :mod:`repro.storage` -- tuple-store, backlog, snapshot-cached, and
  write-ahead-log storage with tt/vt indexes;
* :mod:`repro.query` -- current / historical / rollback queries with a
  specialization-aware planner;
* :mod:`repro.design` -- the design methodology: infer specializations
  from samples and recommend declarations;
* :mod:`repro.workloads` -- generators for every running example in
  the paper.

Quickstart::

    from repro import TemporalRelation, TemporalSchema, Timestamp

    schema = TemporalSchema(
        name="plant_temperatures",
        time_varying=("celsius",),
        specializations=["delayed retroactive(30s)"],
    )
    relation = TemporalRelation(schema)
    # inserts are checked against the declared specialization ...
"""

from repro.chronos import (
    AllenRelation,
    CalendricDuration,
    Duration,
    FOREVER,
    Granularity,
    Interval,
    LogicalClock,
    Period,
    SimulatedWallClock,
    Timestamp,
    allen_relation,
)
from repro.core import ConstraintSet, ConstraintViolation, EnforcementMode
from repro.core.taxonomy import REGISTRY, parse
from repro.design import Advisor
from repro.query import NaiveExecutor, Planner, Scan, ValidTimeslice
from repro.relation import Element, TemporalRelation, TemporalSchema, ValidTimeKind

__version__ = "1.0.0"

__all__ = [
    "AllenRelation",
    "CalendricDuration",
    "Duration",
    "FOREVER",
    "Granularity",
    "Interval",
    "LogicalClock",
    "Period",
    "SimulatedWallClock",
    "Timestamp",
    "allen_relation",
    "ConstraintSet",
    "ConstraintViolation",
    "EnforcementMode",
    "REGISTRY",
    "parse",
    "Advisor",
    "NaiveExecutor",
    "Planner",
    "Scan",
    "ValidTimeslice",
    "Element",
    "TemporalRelation",
    "TemporalSchema",
    "ValidTimeKind",
    "__version__",
]
