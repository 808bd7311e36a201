"""The storage-engine interface shared by every representation."""

from __future__ import annotations

import abc
from typing import Iterable, Iterator, List, Optional

from repro.chronos.interval import Interval
from repro.chronos.timestamp import TimePoint, Timestamp
from repro.relation.element import Element
from repro.relation.errors import ElementNotFound


class StorageEngine(abc.ABC):
    """Append-only bitemporal storage.

    Elements are appended in strictly increasing insertion-transaction-
    time order (the transaction clock guarantees this).  Logical
    deletion closes an element's existence interval; nothing is ever
    physically removed (Section 2: the historical states are preserved
    so that rollback is possible).
    """

    #: Whether epoch-pinned reads (rollback / AS-OF prefix scans) may
    #: run from other threads while a single writer mutates.  Engines
    #: whose pinned read paths are GIL-atomic over append-only state set
    #: this True; anything holding per-connection state (SQLite) or
    #: unknown engines default to False and the server serializes their
    #: reads with the writer instead.
    supports_concurrent_reads = False

    # -- mutation -----------------------------------------------------------------

    @abc.abstractmethod
    def append(self, element: Element) -> None:
        """Store a new element (its ``tt_start`` exceeds all stored ones)."""

    @abc.abstractmethod
    def close_element(self, element_surrogate: int, tt_stop: Timestamp) -> Element:
        """Logically delete an element; returns the closed record."""

    def extend(self, elements: Iterable[Element]) -> int:
        """Store a batch of new elements; returns the number stored.

        The batch must be in strictly increasing ``tt_start`` order and
        its transaction times must exceed all stored ones.  The call is
        all-or-nothing: if any element is unstorable, no element of the
        batch is stored.  Engines override this with genuinely amortized
        implementations (bulk index maintenance, one transaction, one
        fsync); this default validates the batch against a throwaway
        probe so the all-or-nothing contract holds even for engines that
        only implement :meth:`append`.
        """
        batch = list(elements)
        self._validate_batch(batch)
        if batch:
            last_stored: Optional[Element] = None
            for last_stored in self.scan():  # noqa: B007 -- want the final element
                pass
            if (
                last_stored is not None
                and batch[0].tt_start.microseconds <= last_stored.tt_start.microseconds
            ):
                raise ValueError(
                    "batch transaction times must exceed all stored ones; "
                    f"got {batch[0].tt_start!r} after {last_stored.tt_start!r}"
                )
        for element in batch:
            self.append(element)
        return len(batch)

    def _validate_batch(self, batch: List[Element]) -> None:
        """Shared batch sanity checks: internal ordering and surrogate
        freshness.  Raises ``ValueError`` before any mutation."""
        last_tt: Optional[int] = None
        seen: set = set()
        for element in batch:
            tt = element.tt_start.microseconds
            if last_tt is not None and tt <= last_tt:
                raise ValueError(
                    "batch transaction times must be strictly increasing; "
                    f"got {element.tt_start!r} out of order"
                )
            last_tt = tt
            surrogate = element.element_surrogate
            if surrogate in seen:
                raise ValueError(f"element surrogate {surrogate} duplicated in batch")
            seen.add(surrogate)
            try:
                self.get(surrogate)
            except ElementNotFound:
                continue
            raise ValueError(f"element surrogate {surrogate} already stored")

    # -- lookup ---------------------------------------------------------------------

    @abc.abstractmethod
    def get(self, element_surrogate: int) -> Element:
        """The (latest) record of the element, or raise :class:`ElementNotFound`."""

    @abc.abstractmethod
    def scan(self) -> Iterator[Element]:
        """All stored elements, in insertion order (the full bitemporal set)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored elements (including logically deleted ones)."""

    @abc.abstractmethod
    def mutation_count(self) -> int:
        """Monotone counter advancing on *every* state change.

        Appends, batch extends and logical deletes (which preserve
        ``len()``) all advance it.  ``(id(engine), mutation_count())``
        is the storage half of every epoch key -- statistics snapshots,
        plan/result caches -- so an engine that under-counts serves
        stale answers.  ``len()`` is deliberately
        not an acceptable substitute: it is delete-blind.
        """

    # -- temporal access (reference implementations; engines may override) -----------

    def current(self) -> Iterator[Element]:
        """The current historical state (elements not logically deleted)."""
        return (element for element in self.scan() if element.is_current)

    def as_of(self, tt: TimePoint) -> Iterator[Element]:
        """Rollback: the historical state at transaction time *tt*."""
        return (element for element in self.scan() if element.stored_during(tt))

    def valid_at(
        self, vt: Timestamp, as_of_tt: Optional[TimePoint] = None
    ) -> Iterator[Element]:
        """Valid timeslice: facts true in reality at *vt*.

        Evaluated against the current state, or against the rollback
        state at *as_of_tt* when given (a bitemporal slice).
        """
        source = self.current() if as_of_tt is None else self.as_of(as_of_tt)
        return (element for element in source if element.valid_at(vt))

    def valid_overlapping(
        self, window: Interval, as_of_tt: Optional[TimePoint] = None
    ) -> Iterator[Element]:
        """Elements whose valid time intersects *window*."""
        source = self.current() if as_of_tt is None else self.as_of(as_of_tt)
        for element in source:
            if isinstance(element.vt, Interval):
                if element.vt.overlaps(window):
                    yield element
            elif window.contains_point(element.vt):
                yield element

    # -- helpers ----------------------------------------------------------------------

    def materialize(self) -> List[Element]:
        """All stored elements as a list (for checks and tests)."""
        return list(self.scan())

    def _not_found(self, element_surrogate: int) -> ElementNotFound:
        return ElementNotFound(f"no element with surrogate {element_surrogate}")
