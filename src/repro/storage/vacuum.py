"""Specialization-aware vacuuming of transaction-time history.

A bitemporal store never physically deletes, so it grows without bound.
Vacuuming trades history for space: fix a *rollback horizon* H and
discard whatever no query with ``tt >= H`` can see -- exactly the
elements whose existence interval ended before H.

The taxonomy sharpens this.  For a relation with declared offset bounds
``lower <= vt - tt <= upper``, a valid timeslice at any ``vt >= V`` can
only touch elements with ``tt >= V - upper``; so a *valid-time interest
floor* V (e.g. "we never ask about reality before last January")
translates into a transaction-time horizon via the declared bounds
(:func:`tt_horizon_for_valid_floor`), and vacuuming to that horizon
provably preserves every remaining query answer -- one more instance of
the paper's claim that the declared semantics drive storage decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.chronos.timestamp import Timestamp
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.logfile import LogFileEngine
from repro.storage.memory import MemoryEngine


@dataclass(frozen=True)
class VacuumReport:
    """What a vacuum pass did."""

    horizon: Timestamp
    kept: int
    purged: int

    @property
    def total(self) -> int:
        return self.kept + self.purged

    @property
    def space_saved_fraction(self) -> float:
        return self.purged / self.total if self.total else 0.0


def vacuum_engine(engine: MemoryEngine, horizon: Timestamp) -> "tuple[MemoryEngine, VacuumReport]":
    """A new engine holding only elements visible at or after *horizon*.

    An element survives iff its existence interval extends to the
    horizon (``tt_stop > horizon``) -- current elements always survive.
    Rollback answers for ``tt >= horizon``, current queries, and valid
    timeslices are unchanged (asserted by the test suite).

    A log-backed engine is refused with ``ValueError``: its log *is* the
    durable history, and a rebuilt in-memory engine would acknowledge
    later writes without logging them.  Vacuuming durable history needs
    log rotation.
    """
    if isinstance(engine, LogFileEngine):
        raise ValueError(
            f"cannot vacuum the log-backed engine at {engine.path}: "
            "vacuuming durable history needs log rotation"
        )
    old_store = engine.store
    # Epoch key for the carry-over below: anything derived from the old
    # store is only reusable if the store is unchanged when installed.
    epoch = old_store.mutations
    survivors = []
    purged = 0
    #: Position of the first purged element -- everything before it is
    #: byte-identical in the rebuilt store, which is what licenses
    #: carrying caches and cold segment files across the rebuild.
    first_purged: Optional[int] = None
    for position, element in enumerate(engine.scan()):
        if isinstance(element.tt_stop, Timestamp) and element.tt_stop <= horizon:
            purged += 1
            if first_purged is None:
                first_purged = position
            continue
        survivors.append(element)
    # Preserve the source engine's configuration: vacuuming must change
    # how much history is kept, not how the survivors are stored (the
    # extend below also rebuilds the stamp-column sidecar from the
    # survivors -- vacuum is what compacts deleted rows out of the
    # columns, since logical deletes only clear live bits in place).
    tier_manager = None
    if old_store.tiering is not None:
        size = old_store.segment_size
        boundary = len(old_store) if first_purged is None else first_purged
        # Cold segments entirely inside the unchanged prefix keep their
        # files, decoded caches, and patches across the rebuild; the
        # manager forgets (and unlinks) everything vacuum invalidated.
        cold_unchanged = min(old_store._cold, boundary // size)
        # Hand the manager to the rebuilt store.  The retired store is
        # rehydrated into plain memory first (cheap -- the scan above
        # decoded everything), so callers still holding the old engine
        # keep full read access without touching the reused files.
        tier_manager = old_store.detach_tiering()
        tier_manager.begin_rebuild(range(cold_unchanged))
    compacted = MemoryEngine(segment_size=old_store.segment_size, tier_manager=tier_manager)
    compacted.extend(survivors)
    new_store = compacted.store
    if (
        tier_manager is None
        and old_store.mutations == epoch
        and old_store.cold_base == 0
        and new_store.cold_base == 0
    ):
        # Flat stores: sorted-vt projections for position ranges wholly
        # inside the unchanged prefix describe identical rows in the new
        # store -- carry them instead of rebuilding them on first query.
        # (Cold segments carry theirs through the tier manager above.)
        boundary = len(old_store) if first_purged is None else first_purged
        fresh_cache = new_store.columns._sorted_cache
        for key, entry in old_store.columns._sorted_cache.items():
            if key[1] <= boundary:
                fresh_cache[key] = entry
    if tier_manager is not None:
        # A retained ordinal the rebuilt store kept hot (its hot
        # reserve) must not linger in the manager: later hot mutations
        # would silently stale the retained file.  Trim to what the
        # rebuild actually demoted, then fold post-demotion closes
        # (patches) into fresh segment files -- write-new, fsync,
        # rename: the compaction rewrite vacuum drives.
        tier_manager.begin_rebuild(range(new_store._cold))
        tier_manager.rewrite_patched(new_store)
    # Compaction changed history wholesale; drop the materialized
    # current-state view so it rebuilds lazily on the next current().
    new_store.invalidate_view()
    return compacted, VacuumReport(horizon=horizon, kept=len(survivors), purged=purged)


def vacuum_relation(relation: TemporalRelation, horizon: Timestamp) -> VacuumReport:
    """Vacuum a relation in place (replaces its engine; a log-backed
    one is refused, see :func:`vacuum_engine`).  The relation's
    ``backlog()`` is derived from the engine, so it shows the vacuumed
    history."""
    compacted, report = vacuum_engine(relation.engine, horizon)
    relation.engine = compacted
    # The swap happened outside the relation's own mutators; bump the
    # version so statistics and planner caches re-derive (a post-vacuum
    # query must re-plan against the compacted counts).
    relation.notify_engine_replaced()
    return report


def tt_horizon_for_valid_floor(
    relation: TemporalRelation, valid_floor: Timestamp
) -> Optional[Timestamp]:
    """The transaction horizon implied by a valid-time interest floor.

    Uses the guaranteed offset region (the planner's reasoning, reused;
    a declaration that is only recorded or warned about guarantees none):
    with ``vt - tt <= upper``, elements relevant to any ``vt >=
    valid_floor`` have ``tt >= valid_floor - upper``.  Returns None when
    no upper offset is declared (the relation may store facts arbitrarily
    far ahead of their validity, so no safe horizon follows).

    Note the direction: vacuuming to this horizon preserves *valid
    timeslices* at or above the floor; rollback queries below the
    horizon are of course forfeited -- that is the point of vacuuming.
    """
    region = relation.schema.declared_offset_region
    if region is None or region.upper is None:
        return None
    return Timestamp(valid_floor.microseconds - region.upper.offset, "microsecond")
