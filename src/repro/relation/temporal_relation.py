"""The temporal relation: Section 2's conceptual model, executable.

A :class:`TemporalRelation` combines a schema, a transaction clock, a
storage engine, and the schema's declared specializations (enforced
incrementally through :class:`repro.core.constraints.ConstraintSet`).

Update semantics follow the paper exactly:

* **insert** stores a new element whose existence interval opens at the
  transaction time and whose ``tt_stop`` is FOREVER;
* **logical deletion** closes the existence interval; nothing is ever
  physically removed, so rollback works;
* **modification** "consists of a deletion followed by an insertion"
  with a *fresh element surrogate* -- both stamped with the same
  transaction time, producing a single new historical state.

Reading:

* :meth:`current` -- the current state (what a conventional DBMS holds);
* :meth:`as_of` -- rollback to a past historical state;
* :meth:`valid_at` / :meth:`valid_overlapping` -- valid timeslice;
* :meth:`lifeline` -- one object's history;
* :meth:`backlog` -- the operation-log view of the relation.
"""

from __future__ import annotations

import gc
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.query.cache import LRUCache
    from repro.storage.epoch import EpochPin
    from repro.views.standing import ViewRegistry

from repro.chronos.clock import LogicalClock, TimerSource, TransactionClock
from repro.chronos.interval import Interval
from repro.chronos.timestamp import TimePoint, Timestamp
from repro.core.constraints import ConstraintSet
from repro.observability import metrics as _metrics
from repro.core.taxonomy.base import TimeReference, time_reference_of
from repro.relation.element import EMPTY_MAP, Element, FrozenMap, ValidTime, build_trusted
from repro.relation.schema import AttributeRole
from repro.relation.errors import ElementNotFound, KeyViolation, SchemaError
from repro.relation.lifeline import Lifeline
from repro.relation.schema import TemporalSchema, representable
from repro.relation.surrogate import SurrogateGenerator
from repro.storage.backlog import Backlog
from repro.storage.columnar import ScanSpec
from repro.storage.memory import MemoryEngine

#: One staged insertion: ``(object_surrogate, vt)`` or
#: ``(object_surrogate, vt, attributes)``.
InsertRow = Union[
    Tuple[Hashable, ValidTime],
    Tuple[Hashable, ValidTime, Optional[Mapping[str, Any]]],
]

_SHARED_TYPES = frozenset((str, int, type(None)))


class TemporalRelation:
    """One temporal relation with enforced specializations."""

    def __init__(
        self,
        schema: TemporalSchema,
        clock: Optional[TransactionClock] = None,
        engine: Optional[MemoryEngine] = None,
    ) -> None:
        self.schema = schema
        self.clock = clock if clock is not None else LogicalClock(granularity=schema.granularity)
        self.engine = engine if engine is not None else MemoryEngine()
        self.constraints = ConstraintSet(schema.specializations, mode=schema.enforcement)
        self._surrogates = SurrogateGenerator()
        self._version = 0
        self._views: Optional["ViewRegistry"] = None
        self._query_cache: Optional["LRUCache"] = None
        #: object surrogate -> its last stored time-invariant map (Section 2)
        self._invariants: Dict[Hashable, FrozenMap] = {}
        if engine is not None and len(engine):
            self._adopt_stored()

    def _adopt_stored(self) -> None:
        """Re-seed surrogates, the clock and constraint monitors from
        storage.

        The clock must move past every persisted transaction time:
        otherwise a reopened relation would re-issue stamps at or below
        the adopted data (breaking tt uniqueness) and its first epoch
        pin (``peek() - 1``) would predate -- and therefore hide -- the
        committed state.
        """
        high = 0
        high_tt = -1
        for element in self.engine.scan():
            high = max(high, element.element_surrogate)
            high_tt = max(high_tt, element.tt_start.microseconds)
            if not element.is_current:
                high_tt = max(high_tt, element.tt_stop.microseconds)
            self.constraints.observe(element)
        self._surrogates.reserve_through(high)
        if high_tt >= 0:
            self.clock.reserve_through(Timestamp(high_tt, "microsecond"))

    # -- update operations ----------------------------------------------------------

    def insert(
        self,
        object_surrogate: Hashable,
        vt: ValidTime,
        attributes: Optional[Mapping[str, Any]] = None,
    ) -> Element:
        """Store a new fact; returns the stored element.

        Raises :class:`repro.core.constraints.ConstraintViolation` (in
        REJECT mode) when the stamps violate a declared specialization;
        the relation is left unchanged in that case.
        """
        self.schema.check_valid_time(vt)
        invariant, varying, user = self.schema.split_attributes(attributes or {})
        self._check_sequenced_key(vt, invariant)
        tt = self.clock.now()
        invariant = self._stored_invariant(object_surrogate, invariant)
        element = build_trusted(
            self._surrogates.fresh(), object_surrogate, tt, vt, invariant, varying, user
        )
        self.constraints.observe(element)  # may raise; storage untouched then
        self.engine.append(element)
        self._bump_version()
        if self._views is not None:
            self._views.record_insert(element)
        if _metrics.enabled():
            _metrics.registry().counter("relation.inserts").inc()
        return element

    def append_many(self, rows: Iterable[InsertRow]) -> List[Element]:
        """Store a batch of facts atomically; returns the stored elements.

        Each row is ``(object_surrogate, vt)`` or
        ``(object_surrogate, vt, attributes)``.  The whole batch is
        staged and validated first -- schema checks, the sequenced key
        constraint (against stored elements *and* the batch itself), and
        every declared specialization in one amortized pass over the
        batch (:meth:`repro.core.constraints.ConstraintSet.observe_batch`)
        -- then committed with one bulk engine write and one metadata
        refresh.

        On any violation the batch is rejected whole: relation, engine
        indexes and constraint-monitor state are untouched
        (transaction stamps and surrogates may have been consumed, as
        with a rejected single :meth:`insert`).
        """
        staged = list(rows)
        if not staged:
            return []
        # Everything a batch allocates (stamps, elements, operations) is
        # acyclic and strongly referenced, but the cyclic collector would
        # still rescan the growing batch on every threshold crossing --
        # for large batches that costs as much as the ingestion itself.
        # Suspend it for the duration; the backlog of allocations is
        # examined once, at the caller's next collection.
        suspend_gc = gc.isenabled()
        if suspend_gc:
            gc.disable()
        try:
            return self._append_many(staged)
        finally:
            if suspend_gc:
                gc.enable()

    def _append_many(self, staged: List[InsertRow]) -> List[Element]:
        # The schema checks of a single insert, with the per-row dispatch
        # (role resolution, stamp-kind test) hoisted out of the loop; on
        # a bad row the schema's own checkers raise the canonical error.
        schema = self.schema
        stamp_kind = Timestamp if schema.is_event else Interval
        role_map = schema._role_map
        invariant_role = AttributeRole.TIME_INVARIANT
        varying_role = AttributeRole.TIME_VARYING
        split: List[Tuple[Hashable, ValidTime, Dict, Dict, Dict]] = []
        for row in staged:
            if len(row) == 2:
                object_surrogate, vt = row  # type: ignore[misc]
                attributes: Optional[Mapping[str, Any]] = None
            else:
                object_surrogate, vt, attributes = row  # type: ignore[misc]
            if not (isinstance(vt, stamp_kind) and representable(vt)):
                schema.check_valid_time(vt)
            invariant: Dict[str, Any] = {}
            varying: Dict[str, Any] = {}
            user: Dict[str, Timestamp] = {}
            if attributes:
                for attr, value in attributes.items():
                    role = role_map.get(attr)
                    if role is varying_role:
                        varying[attr] = value
                    elif role is invariant_role:
                        invariant[attr] = value
                    elif role is None or not isinstance(value, Timestamp):
                        schema.split_attributes(attributes)
                    else:
                        user[attr] = value
            split.append((object_surrogate, vt, invariant, varying, user))
        self._check_sequenced_key_batch(split)
        stamps = self.clock.draw(len(split))
        stored_invariant = self._stored_invariant
        elements = [
            build_trusted(  # frozen_map() inlined: this runs once per row
                surrogate, object_surrogate, tt, vt,
                stored_invariant(object_surrogate, invariant) if invariant else EMPTY_MAP,
                FrozenMap(varying) if varying else EMPTY_MAP,
                FrozenMap(user) if user else EMPTY_MAP,
            )
            for surrogate, tt, (object_surrogate, vt, invariant, varying, user) in zip(
                self._surrogates.draw(len(split)), stamps, split
            )
        ]
        self.constraints.observe_batch(elements)  # may raise; nothing stored then
        self.engine.extend(elements)
        self._bump_version()
        if self._views is not None:
            self._views.record_insert_many(elements)
        if _metrics.enabled():
            registry = _metrics.registry()
            registry.counter("relation.batches").inc()
            registry.counter("relation.batch_rows").inc(len(elements))
        return elements

    def bulk(self) -> "BulkBatch":
        """A context manager that stages inserts and commits them as one
        :meth:`append_many` batch on exit::

            with relation.bulk() as batch:
                batch.insert("s1", Timestamp(10), {"celsius": 20.0})
                batch.insert("s2", Timestamp(11), {"celsius": 21.5})
            batch.elements  # the stored elements

        Nothing touches the relation until the ``with`` block exits
        cleanly; an exception inside the block (or a constraint
        violation at commit) stores nothing.
        """
        return BulkBatch(self)

    def delete(self, element_surrogate: int) -> Element:
        """Logically delete an element; returns the closed record.

        Deletion-relative specializations (Section 3.1) are validated
        *before* the existence interval is closed, so a rejected
        deletion leaves the relation unchanged.
        """
        old = self.engine.get(element_surrogate)
        if not old.is_current:
            raise ElementNotFound(
                f"element {element_surrogate} was already deleted at {old.tt_stop!r}"
            )
        tt = self.clock.now()
        self._enforce_deletion_constraints(old.closed(tt))
        closed = self.engine.close_element(element_surrogate, tt)
        self._bump_version()
        if self._views is not None:
            self._views.record_close(closed)
        return closed

    def modify(
        self,
        element_surrogate: int,
        vt: Optional[ValidTime] = None,
        attributes: Optional[Mapping[str, Any]] = None,
    ) -> Element:
        """Logical delete + insert with a fresh surrogate (Section 2).

        Unspecified parts are carried over from the old element.  Both
        halves share one transaction time, so exactly one new historical
        state results.
        """
        old = self.engine.get(element_surrogate)
        if not old.is_current:
            raise ElementNotFound(
                f"element {element_surrogate} was already deleted at {old.tt_stop!r}"
            )
        new_vt = vt if vt is not None else old.vt
        self.schema.check_valid_time(new_vt)
        merged: Dict[str, Any] = dict(old.time_invariant)
        merged.update(old.time_varying)
        merged.update(old.user_times)
        merged.update(attributes or {})
        invariant, varying, user = self.schema.split_attributes(merged)
        self._check_sequenced_key(new_vt, invariant, exclude=element_surrogate)

        tt = self.clock.now()
        # Validate both halves before mutating anything: the deletion
        # against deletion-relative specializations, the insertion
        # against the full constraint set (observe commits the monitors
        # only when the element is accepted).
        self._enforce_deletion_constraints(old.closed(tt))
        invariant = self._stored_invariant(old.object_surrogate, invariant)
        replacement = build_trusted(
            self._surrogates.fresh(), old.object_surrogate, tt, new_vt, invariant, varying, user
        )
        self.constraints.observe(replacement)
        closed = self.engine.close_element(element_surrogate, tt)
        self.engine.append(replacement)
        self._bump_version()
        if self._views is not None:
            self._views.record_modify(closed, replacement)
        return replacement

    def _stored_invariant(self, object_surrogate: Hashable, invariant: Mapping) -> FrozenMap:
        """*invariant* as stored: the object's last map while equal, else a
        copy that becomes the last.  Only str, int and None values are
        shared: 1 == 1.0 == True and 0.0 == -0.0 are not the same value."""
        if not invariant:
            return EMPTY_MAP
        if not _SHARED_TYPES.issuperset(map(type, invariant.values())):
            return FrozenMap(invariant)
        last = self._invariants.get(object_surrogate)
        if last != invariant:
            last = self._invariants[object_surrogate] = FrozenMap(invariant)
        return last

    def _check_sequenced_key(
        self,
        vt: ValidTime,
        invariant: Mapping[str, Any],
        exclude: Optional[int] = None,
    ) -> None:
        """The sequenced key constraint [NA89]: within the current
        state, no two facts with the same time-invariant key may be
        valid at the same instant.  ``exclude`` skips the element a
        modification is about to replace."""
        if not self.schema.key or not self.schema.enforce_key:
            return
        key = self.schema.key_of(invariant)
        # Unnarrowed: a live full-window spec is served by the vt index.
        for other in self.engine.select(ScanSpec.of(vt))[0]:
            if other.element_surrogate == exclude:
                continue
            try:
                other_key = self.schema.key_of(other.time_invariant)
            except SchemaError:
                continue
            if other_key == key:
                raise KeyViolation(
                    f"key {key!r} is already valid during {vt!r} "
                    f"(element {other.element_surrogate})"
                )

    def _check_sequenced_key_batch(
        self, split: Sequence[Tuple[Hashable, ValidTime, Dict, Dict, Dict]]
    ) -> None:
        """Sequenced-key validation for a staged batch: each row is
        checked against the stored current state *and* against the rows
        staged before it, so an internally conflicting batch is rejected
        even though none of it is stored yet."""
        if not self.schema.key or not self.schema.enforce_key:
            return
        staged: Dict[Tuple[Any, ...], List[ValidTime]] = {}
        for _object_surrogate, vt, invariant, _varying, _user in split:
            key = self.schema.key_of(invariant)
            self._check_sequenced_key(vt, invariant)
            for other_vt in staged.get(key, ()):
                if _valid_times_clash(vt, other_vt):
                    raise KeyViolation(
                        f"key {key!r} appears twice in one batch with "
                        f"intersecting valid times ({vt!r} and {other_vt!r})"
                    )
            staged.setdefault(key, []).append(vt)

    def _enforce_deletion_constraints(self, closed_preview: Element) -> None:
        """Check deletion-relative specializations (Section 3.1) against
        a *preview* of the closed element, before any mutation."""
        from repro.core.constraints import ConstraintViolation, EnforcementMode

        failures = []
        for spec in self.constraints.specializations:
            if time_reference_of(spec) is TimeReference.DELETION:
                failures.extend(spec.violations([closed_preview]))
        if not failures:
            return
        if self.constraints.mode is EnforcementMode.REJECT:
            raise ConstraintViolation(failures)
        self.constraints.recorded.extend(failures)

    # -- reading ------------------------------------------------------------------------

    def current(self) -> List[Element]:
        """The current historical state: the store's materialized
        current-state view -- O(live elements), independent of history
        length."""
        return self._scan(ScanSpec.of())

    def live_count(self) -> int:
        """Number of current elements without materializing them.

        O(1): the engine's segmented store tracks liveness.
        """
        return self.engine.store.live_count()

    def as_of(self, tt: TimePoint) -> List[Element]:
        """Rollback: the historical state at transaction time *tt* (a
        prefix read: no valid-time window for declarations to narrow)."""
        return self._scan(ScanSpec.of(as_of=tt))

    def valid_at(self, vt: Timestamp, as_of_tt: Optional[TimePoint] = None) -> List[Element]:
        """Valid timeslice (optionally combined with rollback), confined
        to the transaction-time window the declared specializations
        allow."""
        return self._scan(ScanSpec.of(vt, as_of_tt))

    def valid_overlapping(
        self, window: Interval, as_of_tt: Optional[TimePoint] = None
    ) -> List[Element]:
        return self._scan(ScanSpec.of(window, as_of_tt))

    def _scan(self, spec: ScanSpec) -> List[Element]:
        """Run *spec* through the engine's one read, narrowed by
        declaration exactly as the planner narrows it.  Lock-free beside
        the single writer when the spec is pinned at or below the
        published epoch (the server's reader pool relies on this)."""
        # Imported here: the planner imports this module.
        from repro.query import planner

        return self.engine.select(planner.windowed(self.schema, spec))[0]

    def lifeline(self, object_surrogate: Hashable) -> Lifeline:
        """One object's full history (its per-surrogate partition)."""
        mine = [
            element
            for element in self.engine.scan()
            if element.object_surrogate == object_surrogate
        ]
        return Lifeline(object_surrogate, mine)

    def objects(self) -> List[Hashable]:
        """Distinct object surrogates, in first-appearance order."""
        seen: Dict[Hashable, None] = {}
        for element in self.engine.scan():
            seen.setdefault(element.object_surrogate, None)
        return list(seen)

    def all_elements(self) -> List[Element]:
        """The full bitemporal element set."""
        return list(self.engine.scan())

    @property
    def views(self) -> "ViewRegistry":
        """This relation's standing-view registry (created lazily).

        Until first touched, the relation carries no registry at all
        and the mutators skip delta emission entirely -- zero overhead
        for relations that never register a view.  See
        :mod:`repro.views.standing` and ``docs/views.md``.
        """
        if self._views is None:
            from repro.views.standing import ViewRegistry

            self._views = ViewRegistry(self)
        return self._views

    @property
    def has_views(self) -> bool:
        """Whether a registry exists *and* holds at least one view
        (without instantiating one as a side effect)."""
        return self._views is not None and len(self._views) > 0

    @property
    def query_cache(self) -> "LRUCache":
        """This relation's plan cache, keyed on (query fingerprint,
        epoch) and created lazily.  See ``docs/caching.md``."""
        if self._query_cache is None:
            from repro.query.cache import PLAN_CACHE_ENTRIES, LRUCache

            self._query_cache = LRUCache(PLAN_CACHE_ENTRIES, layer="plan")
        return self._query_cache

    def backlog(self) -> Backlog:
        """The operation-log view [JMRS90] of the stored history, rebuilt
        from the engine on each call (O(n log n)).  It reflects a vacuum;
        later writes do not reach a backlog already returned."""
        return Backlog.from_elements(self.engine.scan())

    def explain(self, query: Any, execute: bool = True, timer: Optional[TimerSource] = None):
        """EXPLAIN one query (TQL text or algebra tree) on this relation.

        Returns an :class:`repro.observability.explain.ExplainReport`:
        the chosen strategy, the planner's pruning decisions, and a
        tree of timed spans (parse/plan/execute/operator).  With
        ``execute=False`` the query is planned but not run.
        """
        from repro.observability.explain import explain_query

        return explain_query(self, query, execute=execute, timer=timer)

    def pin_epoch(self) -> "EpochPin":
        """Pin the last committed epoch for snapshot-consistent reads.

        Returns an :class:`repro.storage.epoch.EpochPin` whose
        coordinate is one microsecond *before* the next stamp the
        transaction clock would issue -- i.e. the largest coordinate
        covering every committed operation and no future one.  Reads
        evaluated as ``as_of(pin.as_of)`` (or with ``as_of_tt=pin.as_of``)
        then see exactly the pinned state, even while later mutations
        land in the same store (append-only: see
        :mod:`repro.storage.epoch`).

        Must be called at a writer-quiescent point -- never concurrently
        with an in-flight mutation, whose stamps are drawn before its
        elements are stored.
        """
        from repro.storage.epoch import EpochPin

        return EpochPin(
            tt_micro=self.clock.peek().microseconds - 1,
            elements=len(self.engine),
            version=self._version,
        )

    # -- metadata ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone mutation counter: bumped once per update operation
        -- a whole :meth:`append_many` batch counts as ONE bump, which
        is what lets per-batch (rather than per-element) cache
        invalidation work."""
        return self._version

    def _bump_version(self) -> None:
        self._version += 1

    def notify_engine_replaced(self) -> None:
        """Tell the relation its engine was swapped out from under it.

        Vacuum (and anything else that rebinds ``relation.engine``)
        must call this: it bumps the version so every version-keyed
        cache -- the plan cache among them -- re-derives against the
        new engine.
        Standing views re-derive too, but their delta journal stands:
        the swap preserved the logical state, so subscribers miss
        nothing.
        """
        self._bump_version()
        self._invariants.clear()  # vacuum may have removed objects
        if self._views is not None:
            self._views.note_engine_replaced()

    def _engine_epoch(self) -> Tuple[int, int]:
        """Identity + mutation count of the storage underneath.

        Catches changes that bypass the relation's mutators (an engine
        swap, a bulk ``extend()`` straight into the engine), which the
        version counter alone cannot see.
        """
        # The engine's mutation_count() is monotone (deletes and
        # rebalances advance it even though they preserve len(), so
        # there is deliberately no element-count fallback).
        return (id(self.engine), self.engine.mutation_count())

    def statistics(self) -> Dict[str, int]:
        """The element count, the relation version, and whatever counters
        the engine exposes (e.g. the memory engine's in-order append
        ratio) -- computed per call from O(1) counters."""
        stats: Dict[str, int] = {"version": self._version, "elements": len(self.engine)}
        stats.update(self.engine.index_statistics())
        return stats

    def __len__(self) -> int:
        return len(self.engine)

    def __repr__(self) -> str:
        names = ", ".join(self.schema.specialization_names()) or "general"
        return (
            f"TemporalRelation({self.schema.name!r}, {len(self)} elements, "
            f"specializations: {names})"
        )


def _valid_times_clash(one: ValidTime, other: ValidTime) -> bool:
    """Do two valid time-stamps share an instant (sequenced-key sense)?"""
    if isinstance(one, Interval):
        if isinstance(other, Interval):
            return one.overlaps(other)
        return one.contains_point(other)
    if isinstance(other, Interval):
        return other.contains_point(one)
    return one == other


class BulkBatch:
    """Staging area produced by :meth:`TemporalRelation.bulk`.

    Rows accumulate in memory; nothing reaches the relation until the
    context exits cleanly, at which point the batch commits through
    :meth:`TemporalRelation.append_many` (atomically).  After commit,
    :attr:`elements` holds the stored elements.
    """

    def __init__(self, relation: TemporalRelation) -> None:
        self._relation = relation
        self._rows: List[InsertRow] = []
        self._committed = False
        self.elements: List[Element] = []

    def insert(
        self,
        object_surrogate: Hashable,
        vt: ValidTime,
        attributes: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Stage one insertion (validated and stored at commit)."""
        if self._committed:
            raise SchemaError("bulk batch already committed")
        self._rows.append((object_surrogate, vt, attributes))

    def __len__(self) -> int:
        return len(self._rows)

    def commit(self) -> List[Element]:
        """Validate and store the staged rows as one atomic batch."""
        if self._committed:
            raise SchemaError("bulk batch already committed")
        self.elements = self._relation.append_many(self._rows)
        self._committed = True
        return self.elements

    def __enter__(self) -> "BulkBatch":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is None:
            self.commit()
        # On exception: discard the staged rows, store nothing.
