"""Backlog relations: the operation-log representation [JMRS90].

Section 2 lists "a backlog relation of insertion, modification, and
deletion operations (tuples) with single transaction time-stamps" as one
physical representation of a temporal relation.  A :class:`Backlog` is
exactly that: an append-only sequence of operations, each stamped with
one transaction time.  Any historical state is recovered by replaying
the prefix of operations up to the wanted transaction time.

A relation stores its history once, in its engine;
``TemporalRelation.backlog()`` derives this representation from it
(:meth:`Backlog.from_elements`).  The backlog is the ground truth the
engine is tested against: ``relation.as_of(t)`` must equal
``Backlog.state_at(t)`` for every t (property-tested), and
:class:`repro.storage.snapshot.SnapshotCache` accelerates replay with
cached states.
"""

from __future__ import annotations

import enum
from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.chronos.timestamp import FOREVER, TimePoint, Timestamp
from repro.relation.element import Element, frozen_record, trusted
from repro.relation.errors import ElementNotFound


class OperationKind(enum.Enum):
    """The operation kinds of [JMRS90]; a modification is represented as
    a deletion followed by an insertion (Section 2 of the paper)."""

    INSERT = "insert"
    DELETE = "delete"


class _OperationSlots:
    """Operation's fields, writable (see ``element.frozen_record``)."""

    __slots__ = ("kind", "tt", "element_surrogate", "element")

    def __init__(self, kind, tt, element_surrogate, element) -> None:
        self.kind = kind
        self.tt = tt
        self.element_surrogate = element_surrogate
        self.element = element


@frozen_record
class Operation(_OperationSlots):
    """One backlog entry: a single-transaction-stamped operation tuple."""

    __slots__ = ()

    kind: OperationKind
    tt: Timestamp
    element_surrogate: int
    element: Optional[Element] = None  # payload for INSERT

    def __post_init__(self) -> None:
        if self.kind is OperationKind.INSERT and self.element is None:
            raise ValueError("INSERT operations carry the inserted element")
        if self.kind is OperationKind.DELETE and self.element is not None:
            raise ValueError("DELETE operations carry only the surrogate")


_build = trusted(Operation)  # INSERTs of stored elements: the payload checks hold


def _insert_of(element: Element) -> Operation:
    return _build(OperationKind.INSERT, element.tt_start, element.element_surrogate, element)


class Backlog:
    """An append-only operation log with state reconstruction."""

    def __init__(self) -> None:
        self._operations: List[Operation] = []
        self._live: Dict[int, Element] = {}  # current state, maintained eagerly

    @classmethod
    def from_elements(cls, elements: Iterable[Element]) -> "Backlog":
        """The backlog of a stored element set (``relation.backlog()``):
        an INSERT of the open element at each ``tt_start`` and a DELETE
        at each ``tt_stop``, in stamp order.  A modification's halves
        share a stamp and are recorded as two coincident operations,
        DELETE first."""
        events = []
        for element in elements:
            events.append((element.tt_start.microseconds, 1, element))
            if not element.is_current:
                events.append((element.tt_stop.microseconds, 0, element))
        events.sort(key=lambda event: event[:2])
        backlog = cls()
        last: Optional[int] = None
        for tt, is_insert, element in events:
            if is_insert:
                if not element.is_current:  # a live element is already open
                    element = replace(element, tt_stop=FOREVER)
                backlog.record_insert(element, coincident=tt == last)
            else:
                backlog.record_delete(
                    element.element_surrogate, element.tt_stop, coincident=tt == last
                )
            last = tt
        return backlog

    # -- appending -------------------------------------------------------------

    def record_insert(self, element: Element, *, coincident: bool = False) -> None:
        """Record an insertion.

        ``coincident=True`` relaxes the strictly-increasing stamp check
        to non-decreasing: one transaction storing several tuples gives
        every resulting operation the same stamp (Section 2's "indexed
        by the transaction time of the transaction making the change").
        The log-file loader uses it to round-trip such runs.
        """
        self._check_order(element.tt_start, coincident=coincident)
        if element.element_surrogate in self._live:
            raise ValueError(
                f"element surrogate {element.element_surrogate} already current"
            )
        self._operations.append(_insert_of(element))
        self._live[element.element_surrogate] = element

    def record_delete(
        self, element_surrogate: int, tt: Timestamp, *, coincident: bool = False
    ) -> None:
        self._check_order(tt, coincident=coincident)
        if element_surrogate not in self._live:
            raise ElementNotFound(f"no current element with surrogate {element_surrogate}")
        self._operations.append(Operation(OperationKind.DELETE, tt, element_surrogate))
        del self._live[element_surrogate]

    def record_modification(self, deleted_surrogate: int, replacement: Element) -> None:
        """A modification: DELETE + INSERT sharing one transaction time.

        Section 2: a modification logically deletes the old element and
        stores a new one "indexed by the transaction time of the
        transaction making the change" -- a single new historical state,
        hence a single stamp for both halves.
        """
        tt = replacement.tt_start
        self._check_order(tt)
        if deleted_surrogate not in self._live:
            raise ElementNotFound(f"no current element with surrogate {deleted_surrogate}")
        if replacement.element_surrogate in self._live:
            raise ValueError(
                f"element surrogate {replacement.element_surrogate} already current"
            )
        self._operations.append(Operation(OperationKind.DELETE, tt, deleted_surrogate))
        self._operations.append(_insert_of(replacement))
        del self._live[deleted_surrogate]
        self._live[replacement.element_surrogate] = replacement

    def _check_order(self, tt: Timestamp, coincident: bool = False) -> None:
        if not self._operations:
            return
        last = self._operations[-1].tt
        if coincident:
            if tt < last:
                raise ValueError(
                    f"operations must carry non-decreasing transaction times; "
                    f"got {tt!r} after {last!r}"
                )
        elif not last < tt:
            raise ValueError(
                f"operations must carry strictly increasing transaction times; "
                f"got {tt!r} after {last!r}"
            )

    # -- reconstruction ------------------------------------------------------------

    def state_at(self, tt: TimePoint) -> Dict[int, Element]:
        """Replay the prefix through *tt*: surrogate -> element."""
        return self.replay(self._operations_through(tt))

    @staticmethod
    def replay(operations: Iterator[Operation]) -> Dict[int, Element]:
        state: Dict[int, Element] = {}
        for operation in operations:
            if operation.kind is OperationKind.INSERT:
                state[operation.element_surrogate] = operation.element  # type: ignore[assignment]
            else:
                state.pop(operation.element_surrogate, None)
        return state

    def _operations_through(self, tt: TimePoint) -> Iterator[Operation]:
        for operation in self._operations:
            if operation.tt <= tt:
                yield operation

    def current_state(self) -> Dict[int, Element]:
        """The present state (maintained incrementally, no replay)."""
        return dict(self._live)

    def to_elements(self) -> List[Element]:
        """The full bitemporal element set, with existence intervals
        closed where a DELETE exists -- i.e. the tuple-store view."""
        by_surrogate: Dict[int, Element] = {}
        for operation in self._operations:
            if operation.kind is OperationKind.INSERT:
                by_surrogate[operation.element_surrogate] = operation.element  # type: ignore[assignment]
            else:
                open_element = by_surrogate[operation.element_surrogate]
                by_surrogate[operation.element_surrogate] = open_element.closed(operation.tt)
        return list(by_surrogate.values())

    # -- introspection ------------------------------------------------------------------

    @property
    def operations(self) -> Tuple[Operation, ...]:
        return tuple(self._operations)

    def __len__(self) -> int:
        return len(self._operations)
