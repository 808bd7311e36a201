"""Incrementally-maintained standing queries over a temporal relation.

A :class:`ViewRegistry` (one per relation, created lazily by
``relation.views``) holds named :class:`StandingView` instances --
``current()``, valid timeslice, overlap window, and constraint-violation
watch -- each compiled once and thereafter maintained from the
relation's mutation stream, never by rescans.

Every mutation the relation commits is rendered as a :class:`Delta`
(``insert`` or ``close``) stamped with the mutation's transaction-time
microsecond -- the same coordinate space as
:class:`repro.storage.epoch.EpochPin`, so a snapshot read at pin *E*
composes exactly with the deltas whose epoch is ``> E``.  The registry
journals a bounded suffix of the stream for subscribers
(:meth:`ViewRegistry.deltas_since`) and dispatches each delta to every
registered view.

Maintenance plans follow the paper's specialization semantics
(:func:`compile_maintenance_plan`): a relation that rejects violations
of an exact *degenerate* or a global *sequential* / *non-decreasing*
declaration updates its timeslice and overlap views
with an O(1) boundary check -- once the monotone valid-time frontier
moves past the slice point, insert deltas are skipped without probing
-- while a general relation probes each delta's membership.  Either
way maintenance is O(deltas), never O(history); the differential
harness in ``tests/views/`` holds every view byte-identical to
from-scratch recomputation, and ``benchmarks/bench_standing_views.py``
gates the ≥10x win over recompute.

Out-of-band changes (an engine swapped by vacuum, a bulk ``extend()``
straight into storage) cannot produce deltas; the registry detects them
through the relation's version / engine-epoch markers and falls back to
recomputing each view on its next read.  A vacuum keeps the journal (it
preserves the logical current state); an untracked mutation clears it
and advances the journal floor, forcing subscribers behind the floor to
reconcile against a fresh snapshot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Sequence,
    Tuple,
)

from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.core.taxonomy.event_inter import GloballyNonDecreasing, GloballySequential
from repro.core.taxonomy.interval_inter import (
    IntervalGloballyNonDecreasing,
    IntervalGloballySequential,
)
from repro.observability import metrics as _metrics
from repro.relation.element import Element
from repro.relation.errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relation.schema import TemporalSchema
    from repro.relation.temporal_relation import TemporalRelation


#: The orderings whose valid times never move backwards in transaction
#: order (the ``sequential-frontier`` plan).
_GLOBAL_ORDERINGS = (
    GloballySequential,
    GloballyNonDecreasing,
    IntervalGloballySequential,
    IntervalGloballyNonDecreasing,
)


@dataclass(frozen=True)
class Delta:
    """One element-level change in the mutation stream.

    ``kind`` is ``"insert"`` (a new element opened) or ``"close"`` (an
    existence interval closed -- ``element`` carries the closed copy).
    ``epoch`` is the mutation's transaction-time microsecond: inserts
    use ``tt_start``, closes use ``tt_stop``, so a modification's two
    deltas share one epoch, exactly like its two halves share one
    transaction time.
    """

    kind: str
    element: Element
    epoch: int


class DeltaFeed(NamedTuple):
    """What :meth:`ViewRegistry.deltas_since` hands a subscriber."""

    #: The cursor predates the journal floor: the subscriber must take a
    #: fresh snapshot read (whose response names its pin) and resubscribe
    #: from that pin's epoch.  ``deltas`` is empty in that case.
    resync: bool
    deltas: Tuple[Delta, ...]
    #: The cursor to resubscribe from: the last delivered delta's epoch,
    #: or the caller's own cursor when nothing new was available.
    epoch: int


def compile_maintenance_plan(schema: "TemporalSchema") -> str:
    """Pick the cheapest sound maintenance plan the declarations license.

    Chosen by type from ``schema.guaranteed_specializations`` and the
    ``declared_degenerate`` derived from it (empty / None unless the
    schema REJECTs violations: a recorded ordering cannot be trusted):

    * ``degenerate-boundary`` -- an event relation guaranteed exactly
      *degenerate* (valid time equals transaction time, no granularity),
      so valid times follow the strictly increasing transaction clock:
      a range-shaped view closes its insert frontier the moment one
      delta passes the slice boundary.  Within a granularity tick valid
      times are unordered, so a granularity-relative form does not
      qualify.
    * ``sequential-frontier`` -- a *global* sequential or non-decreasing
      ordering (events or intervals): valid times never move backwards,
      so the same monotone-frontier argument applies.  A per-partition
      ordering is not a global one and does not qualify.
    * ``probe`` -- otherwise: probe each delta's membership, still O(1)
      per delta.
    """
    degenerate = schema.declared_degenerate
    if schema.is_event and degenerate is not None and degenerate.granularity is None:
        return "degenerate-boundary"
    if any(isinstance(spec, _GLOBAL_ORDERINGS) for spec in schema.guaranteed_specializations):
        return "sequential-frontier"
    return "probe"


def _vt_lower_bound(element: Element) -> Timestamp:
    """The element's earliest valid instant (interval start or event)."""
    vt = element.vt
    return vt.start if isinstance(vt, Interval) else vt


class StandingView:
    """One registered standing query, maintained from deltas.

    Subclasses define membership (:meth:`_matches`), the recompute
    reference (:meth:`_recompute_elements`), and optionally a frontier
    predicate.  The base class keeps the materialized result as an
    insertion-ordered surrogate map -- insertion order is transaction
    order, so :meth:`snapshot` yields the same canonical tt order as
    the from-scratch reference.
    """

    kind = "abstract"

    def __init__(self, name: str, relation: "TemporalRelation") -> None:
        self.name = name
        self._relation = relation
        self.plan = "probe"
        self._members: Dict[int, Element] = {}
        self._stale = True
        self.deltas_applied = 0
        self.recomputes = 0

    # -- the materialized result -------------------------------------------------

    def snapshot(self) -> List[Element]:
        """The view's current answer, in canonical tt order."""
        if self._stale:
            self.refresh()
        return list(self._members.values())

    def __len__(self) -> int:
        if self._stale:
            self.refresh()
        return len(self._members)

    def refresh(self) -> None:
        """Rebuild the materialized result from scratch."""
        self._members = {
            element.element_surrogate: element
            for element in self._recompute_elements()
        }
        self._stale = False
        self.recomputes += 1
        if _metrics.enabled():
            _metrics.registry().counter("views.recomputes").inc()

    def recompute(self) -> List[Element]:
        """The from-scratch reference answer (differential baseline);
        leaves the maintained state untouched."""
        return list(self._recompute_elements())

    def mark_stale(self) -> None:
        """Defer to a full recompute on the next read (out-of-band
        change, or an engine swap)."""
        self._stale = True

    # -- incremental maintenance ---------------------------------------------------

    def apply(self, delta: Delta) -> None:
        """Fold one delta into the materialized result: O(1)."""
        if self._stale:
            # The next read rebuilds from the engine, which already
            # reflects this mutation; applying it here would be wasted.
            return
        self.deltas_applied += 1
        if delta.kind == "close":
            self._members.pop(delta.element.element_surrogate, None)
            return
        element = delta.element
        if self._frontier_skip(element):
            if _metrics.enabled():
                _metrics.registry().counter("views.frontier_skips").inc()
            return
        if self._matches(element):
            self._members[element.element_surrogate] = element

    def _frontier_skip(self, element: Element) -> bool:
        return False

    def _matches(self, element: Element) -> bool:
        raise NotImplementedError

    def _recompute_elements(self) -> Iterable[Element]:
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """Wire/explain-facing summary of this view."""
        return {
            "name": self.name,
            "kind": self.kind,
            "plan": self.plan,
            "size": len(self),
            "deltas_applied": self.deltas_applied,
            "recomputes": self.recomputes,
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, plan={self.plan}, {len(self)} rows)"


class CurrentStateView(StandingView):
    """The relation's current state -- PR 3's materialized view, absorbed.

    The segmented store already maintains the current-state map
    incrementally (O(1) per mutation); this registry instance reads it
    rather than duplicating it, so registering ``current`` costs no
    extra memory.
    """

    kind = "current"

    def __init__(self, name: str, relation: "TemporalRelation") -> None:
        super().__init__(name, relation)
        self.plan = "store-materialized"
        self._stale = False

    def snapshot(self) -> List[Element]:
        return self._relation.current()

    def __len__(self) -> int:
        return self._relation.live_count()

    def refresh(self) -> None:
        self.recomputes += 1

    def recompute(self) -> List[Element]:
        return [element for element in self._relation.engine.scan() if element.is_current]

    def mark_stale(self) -> None:
        # Delegated storage is never stale: every read resolves against
        # the engine's own (incrementally maintained) view.
        pass

    def apply(self, delta: Delta) -> None:
        # Maintenance already happened inside the store when the
        # mutation landed; count the delta so the maintained/recompute
        # accounting stays comparable across view kinds.
        self.deltas_applied += 1


class _FrontierView(StandingView):
    """Shared machinery for range-shaped views with a monotone frontier."""

    def __init__(self, name: str, relation: "TemporalRelation") -> None:
        super().__init__(name, relation)
        self.plan = compile_maintenance_plan(relation.schema)
        self._frontier_passed = False

    def _past_frontier(self, element: Element) -> bool:
        raise NotImplementedError

    def _frontier_skip(self, element: Element) -> bool:
        if self.plan == "probe":
            return False
        if self._frontier_passed:
            return True
        if self._past_frontier(element):
            # A declared monotone ordering means no later insert can
            # re-enter the window once one delta has passed it -- and
            # this delta itself is already outside.
            self._frontier_passed = True
            return True
        return False

    def describe(self) -> Dict[str, object]:
        summary = super().describe()
        summary["frontier_passed"] = self._frontier_passed
        return summary


class TimesliceView(_FrontierView):
    """``valid_at(vt)`` over the current state, maintained by deltas."""

    kind = "timeslice"

    def __init__(self, name: str, relation: "TemporalRelation", vt: Timestamp) -> None:
        super().__init__(name, relation)
        self.vt = vt

    def _matches(self, element: Element) -> bool:
        return element.valid_at(self.vt)

    def _past_frontier(self, element: Element) -> bool:
        # Events need exact coincidence, intervals half-open
        # containment; both are impossible once the element's earliest
        # valid instant lies beyond the slice point.
        return _vt_lower_bound(element) > self.vt

    def _recompute_elements(self) -> Iterable[Element]:
        return self._relation.valid_at(self.vt)


class OverlapView(_FrontierView):
    """``valid_overlapping(window)`` over the current state."""

    kind = "overlap"

    def __init__(self, name: str, relation: "TemporalRelation", window: Interval) -> None:
        super().__init__(name, relation)
        self.window = window

    def _matches(self, element: Element) -> bool:
        vt = element.vt
        if isinstance(vt, Interval):
            return vt.overlaps(self.window)
        return self.window.contains_point(vt)

    def _past_frontier(self, element: Element) -> bool:
        # Overlap with [start, end) requires some valid instant < end.
        return not (_vt_lower_bound(element) < self.window.end)

    def _recompute_elements(self) -> Iterable[Element]:
        return self._relation.valid_overlapping(self.window)


class ConstraintWatchView(StandingView):
    """Current elements matching a watch predicate (violation watch).

    The predicate runs once per insert delta -- the event-lifecycle
    pattern (valid facts transitioning into a flagged set) maintained
    without rescans.  ``ConstraintWatchView.violating(spec)`` adapts a
    taxonomy specialization's ``violations`` check into a predicate.
    """

    kind = "watch"

    def __init__(
        self,
        name: str,
        relation: "TemporalRelation",
        predicate: Callable[[Element], bool],
    ) -> None:
        super().__init__(name, relation)
        self.plan = "probe"
        self._predicate = predicate

    @staticmethod
    def violating(spec) -> Callable[[Element], bool]:
        """A predicate flagging elements that violate *spec* in isolation."""

        def flag(element: Element) -> bool:
            return bool(spec.violations([element]))

        return flag

    def _matches(self, element: Element) -> bool:
        return self._predicate(element)

    def _recompute_elements(self) -> Iterable[Element]:
        return (
            element
            for element in self._relation.current()
            if self._predicate(element)
        )


class ViewRegistry:
    """The relation's standing views plus the epoch-stamped delta journal."""

    #: Journal bound: older deltas fall off and advance the floor, so a
    #: long-disconnected subscriber is told to resync instead of the
    #: journal growing without limit.
    JOURNAL_LIMIT = 4096

    def __init__(
        self, relation: "TemporalRelation", journal_limit: int = JOURNAL_LIMIT
    ) -> None:
        self._relation = relation
        self._views: Dict[str, StandingView] = {}
        self._journal: Deque[Delta] = deque()
        self._journal_limit = journal_limit
        # The journal covers epochs strictly above the floor; it opens
        # at the relation's committed pin, exactly like an EpochPin.
        self._floor = relation.clock.peek().microseconds - 1
        self._last_epoch = self._floor
        self._synced_version = relation.version
        self._synced_engine = relation._engine_epoch()

    # -- registration ----------------------------------------------------------------

    def _register(self, view: StandingView) -> StandingView:
        if view.name in self._views:
            raise SchemaError(f"standing view {view.name!r} already registered")
        view.refresh()
        self._views[view.name] = view
        if _metrics.enabled():
            _metrics.registry().counter("views.registered").inc()
        return view

    def register_current(self, name: str = "current") -> CurrentStateView:
        return self._register(CurrentStateView(name, self._relation))  # type: ignore[return-value]

    def register_timeslice(self, name: str, vt: Timestamp) -> TimesliceView:
        return self._register(TimesliceView(name, self._relation, vt))  # type: ignore[return-value]

    def register_overlap(self, name: str, window: Interval) -> OverlapView:
        return self._register(OverlapView(name, self._relation, window))  # type: ignore[return-value]

    def register_watch(
        self, name: str, predicate: Callable[[Element], bool]
    ) -> ConstraintWatchView:
        return self._register(ConstraintWatchView(name, self._relation, predicate))  # type: ignore[return-value]

    def unregister(self, name: str) -> None:
        if name not in self._views:
            raise SchemaError(f"no standing view named {name!r}")
        del self._views[name]

    def get(self, name: str) -> StandingView:
        try:
            return self._views[name]
        except KeyError:
            known = ", ".join(sorted(self._views)) or "none"
            raise SchemaError(
                f"no standing view named {name!r} (registered: {known})"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._views)

    def views(self) -> List[StandingView]:
        return [self._views[name] for name in self.names()]

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def __len__(self) -> int:
        return len(self._views)

    # -- the mutation stream -----------------------------------------------------------

    def record_insert(self, element: Element) -> None:
        self._record((Delta("insert", element, element.tt_start.microseconds),))

    def record_insert_many(self, elements: Sequence[Element]) -> None:
        self._record(
            tuple(
                Delta("insert", element, element.tt_start.microseconds)
                for element in elements
            )
        )

    def record_close(self, closed: Element) -> None:
        self._record((Delta("close", closed, closed.tt_stop.microseconds),))

    def record_modify(self, closed: Element, replacement: Element) -> None:
        # One logical modification, one shared transaction time, two
        # deltas carrying the same epoch -- delivered together.
        self._record(
            (
                Delta("close", closed, closed.tt_stop.microseconds),
                Delta("insert", replacement, replacement.tt_start.microseconds),
            )
        )

    def _record(self, deltas: Tuple[Delta, ...]) -> None:
        if not deltas:
            return
        if self._relation.version != self._synced_version + 1:
            # Mutations landed that never reached this registry (a
            # direct engine write, or more than one version bump per
            # mutation); everything derived is suspect except the
            # deltas in hand.
            self._resync(floor=deltas[0].epoch - 1)
        for delta in deltas:
            if len(self._journal) >= self._journal_limit:
                evicted = self._journal.popleft()
                self._floor = evicted.epoch
                if _metrics.enabled():
                    _metrics.registry().counter("views.journal_evictions").inc()
            self._journal.append(delta)
            self._last_epoch = delta.epoch
            for view in self._views.values():
                view.apply(delta)
        if _metrics.enabled():
            _metrics.registry().counter("views.deltas_applied").inc(len(deltas))
        self._synced_version = self._relation.version
        self._synced_engine = self._relation._engine_epoch()

    def note_engine_replaced(self) -> None:
        """The engine was swapped (vacuum): logical state is preserved,
        so the journal stands, but maintained results re-derive against
        the new engine on their next read."""
        for view in self._views.values():
            view.mark_stale()
        self._synced_version = self._relation.version
        self._synced_engine = self._relation._engine_epoch()

    def _resync(self, floor: int) -> None:
        """An untracked change: recompute views lazily and restart the
        journal at *floor* (subscribers behind it must re-snapshot)."""
        for view in self._views.values():
            view.mark_stale()
        self._journal.clear()
        self._floor = max(self._floor, floor)
        self._last_epoch = max(self._last_epoch, floor)
        self._synced_version = self._relation.version
        self._synced_engine = self._relation._engine_epoch()
        if _metrics.enabled():
            _metrics.registry().counter("views.resyncs").inc()

    def _ensure_synced(self) -> None:
        if (
            self._relation.version != self._synced_version
            or self._relation._engine_epoch() != self._synced_engine
        ):
            self._resync(floor=self._relation.clock.peek().microseconds - 1)

    # -- subscriptions ----------------------------------------------------------------

    @property
    def last_epoch(self) -> int:
        """The newest journaled epoch (the floor when nothing is journaled)."""
        return self._last_epoch

    @property
    def journal_floor(self) -> int:
        """Deltas with epoch strictly above this are fully journaled."""
        return self._floor

    def deltas_since(self, since: int) -> DeltaFeed:
        """The deltas a subscriber at cursor *since* has not yet seen.

        ``since`` is an epoch microsecond -- normally the ``tt_micro``
        of the pin named by the subscriber's snapshot read, or the
        ``epoch`` of the previous feed.  A cursor behind the journal
        floor gets ``resync=True``: deltas it needs have been evicted
        (or were never journaled, e.g. across a process restart), so it
        must reconcile against a fresh snapshot instead of trusting the
        stream.
        """
        self._ensure_synced()
        if since < self._floor:
            return DeltaFeed(resync=True, deltas=(), epoch=self._last_epoch)
        fresh = tuple(delta for delta in self._journal if delta.epoch > since)
        epoch = fresh[-1].epoch if fresh else since
        return DeltaFeed(resync=False, deltas=fresh, epoch=epoch)

    def describe(self) -> List[Dict[str, object]]:
        """Wire/explain-facing summary of every registered view."""
        self._ensure_synced()
        return [self._views[name].describe() for name in self.names()]
