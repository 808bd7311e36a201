"""The storage-engine interface shared by every representation."""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.chronos.interval import Interval
from repro.chronos.timestamp import TimePoint, Timestamp
from repro.relation.element import Element
from repro.relation.errors import ElementNotFound

if TYPE_CHECKING:
    from repro.storage.indexes import TransactionTimeIndex


class StorageEngine(abc.ABC):
    """Append-only bitemporal storage.

    Elements are appended in strictly increasing insertion-transaction-
    time order (the transaction clock guarantees this).  Logical
    deletion closes an element's existence interval; nothing is ever
    physically removed (Section 2: the historical states are preserved
    so that rollback is possible).
    """

    # -- mutation -----------------------------------------------------------------

    @abc.abstractmethod
    def append(self, element: Element) -> None:
        """Store a new element (its ``tt_start`` exceeds all stored ones)."""

    @abc.abstractmethod
    def close_element(self, element_surrogate: int, tt_stop: Timestamp) -> Element:
        """Logically delete an element; returns the closed record."""

    @abc.abstractmethod
    def extend(self, elements: Iterable[Element]) -> int:
        """Store a batch of new elements; returns the number stored.

        The batch must be in strictly increasing ``tt_start`` order and
        its transaction times must exceed all stored ones.  The call is
        all-or-nothing: if any element is unstorable, no element of the
        batch is stored.
        """

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

    @property
    @abc.abstractmethod
    def transaction_index(self) -> TransactionTimeIndex:
        """The segmented transaction-time index every read plans against:
        :func:`repro.query.operators.scan` runs each range-shaped read on
        its store."""

    # -- temporal access ----------------------------------------------------------------

    @abc.abstractmethod
    def current(self) -> Iterator[Element]:
        """The current historical state (elements not logically deleted)."""

    @abc.abstractmethod
    def as_of(self, tt: TimePoint) -> Iterator[Element]:
        """Rollback: the historical state at transaction time *tt*."""

    @abc.abstractmethod
    def valid_at(
        self, vt: Timestamp, as_of_tt: Optional[TimePoint] = None
    ) -> Iterator[Element]:
        """Valid timeslice: facts true in reality at *vt*.

        Evaluated against the current state, or against the rollback
        state at *as_of_tt* when given (a bitemporal slice).
        """

    @abc.abstractmethod
    def valid_overlapping(
        self, window: Interval, as_of_tt: Optional[TimePoint] = None
    ) -> Iterator[Element]:
        """Elements whose valid time intersects *window*."""

    # -- helpers ----------------------------------------------------------------------

    def _not_found(self, element_surrogate: int) -> ElementNotFound:
        return ElementNotFound(f"no element with surrogate {element_surrogate}")
