"""Common machinery for temporal specializations.

A *specialization* (Section 3 of the paper) is an intensional property of
a temporal relation schema: "for a relation schema to have a particular
type, all its possible (non-empty) extensions must satisfy the definition
of the type".  Operationally, a :class:`Specialization` can

* test a whole extension (:meth:`Specialization.check_extension`),
* explain failures (:meth:`Specialization.violations`),
* be enforced incrementally via a :class:`Monitor` that accepts elements
  one transaction at a time in transaction-time order and answers in
  O(1) amortized per element,
* be applied per relation or per partition
  (:mod:`repro.core.taxonomy.partition`).

Elements are anything exposing the small :class:`StampedElement`
interface; :class:`Stamped` is the concrete record used by the taxonomy
layer and the workload generators, and
:class:`repro.relation.element.Element` conforms as well.

Per Section 3.1, each property "is relative to one of these two times"
(insertion time ``tt_b`` or deletion time ``tt_d``); the
:class:`TimeReference` of a specialization selects which one.  The
paper's examples use insertion time, which is the default throughout.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import (
    Any,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Union,
    runtime_checkable,
)

from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, TimePoint, Timestamp

ValidTime = Union[Timestamp, Interval]


class TimeReference(enum.Enum):
    """Which transaction time an isolated property is relative to.

    Section 3.1: "it is possible for a relation to be deletion
    retroactive but not insertion retroactive"; a relation that is both
    is modification retroactive (modification = deletion + insertion).
    """

    INSERTION = "insertion"
    DELETION = "deletion"


@runtime_checkable
class StampedElement(Protocol):
    """The element interface the taxonomy needs (duck-typed)."""

    @property
    def tt_start(self) -> Timestamp: ...

    @property
    def tt_stop(self) -> TimePoint: ...

    @property
    def vt(self) -> ValidTime: ...

    @property
    def object_surrogate(self) -> Hashable: ...

    @property
    def attributes(self) -> Mapping[str, Any]: ...


@dataclass(frozen=True)
class Stamped:
    """A minimal concrete stamped element.

    ``vt`` is a :class:`~repro.chronos.timestamp.Timestamp` for event
    relations or an :class:`~repro.chronos.interval.Interval` for
    interval relations.  ``tt_stop`` is :data:`~repro.chronos.timestamp.FOREVER`
    while the element is current.
    """

    tt_start: Timestamp
    vt: ValidTime
    tt_stop: TimePoint = FOREVER
    object_surrogate: Hashable = None
    attributes: Mapping[str, Any] = field(default_factory=dict)


def time_reference_of(spec: Any) -> TimeReference:
    """The transaction time *spec* is relative to.

    A declaration that wraps another (``OnEndpoint``, ``OnBothEndpoints``
    and ``DeterminedAs`` wrap a ``base``, ``PerPartition`` an ``inner``)
    has no reference of its own: it is the wrapped one's.  Declarations
    without one (inter-element properties) refer to insertion time.
    """
    wrapped = getattr(spec, "base", None) or getattr(spec, "inner", None)
    if wrapped is not None:
        return time_reference_of(wrapped)
    return getattr(spec, "time_reference", TimeReference.INSERTION)


def transaction_time(element: StampedElement, reference: TimeReference) -> Optional[Timestamp]:
    """The transaction time the property refers to, or None.

    For :attr:`TimeReference.DELETION`, elements that have not been
    logically deleted (``tt_stop`` is FOREVER) carry no deletion time and
    are vacuously compliant; this function returns None for them.
    """
    if reference is TimeReference.INSERTION:
        return element.tt_start
    stop = element.tt_stop
    if isinstance(stop, Timestamp):
        return stop
    return None


@dataclass(frozen=True)
class Violation:
    """A single element (or element pair) falsifying a specialization."""

    specialization: "Specialization"
    element: StampedElement
    message: str
    other: Optional[StampedElement] = None

    def __str__(self) -> str:
        return f"{self.specialization.name}: {self.message}"


class Monitor(abc.ABC):
    """Incremental checker fed elements in transaction-time order.

    A monitor carries the O(1) summary state a specialization needs
    (e.g. the running ``max(tt, vt)`` for sequentiality, the anchor
    element for regularity).  The protocol is two-phase so that
    *rejected* updates leave no trace: :meth:`inspect` computes the
    violations a prospective element would introduce without touching
    state; :meth:`commit` absorbs an element that was actually stored.
    :meth:`observe` is the convenience composition used for batch
    validation of already-stored extensions.
    """

    @abc.abstractmethod
    def inspect(self, element: StampedElement) -> List[Violation]:
        """Violations the element would introduce; no state change."""

    @abc.abstractmethod
    def commit(self, element: StampedElement) -> None:
        """Absorb a stored element (non-decreasing ``tt_start``)."""

    def observe(self, element: StampedElement) -> List[Violation]:
        """Inspect then commit (batch-validation semantics)."""
        violations = self.inspect(element)
        self.commit(element)
        return violations

    def observe_all(self, elements: Iterable[StampedElement]) -> List[Violation]:
        """Feed many elements; collect all violations."""
        found: List[Violation] = []
        for element in elements:
            found.extend(self.observe(element))
        return found


class Specialization(abc.ABC):
    """A restriction on the time-stamps of a temporal relation.

    Subclasses fall in two families:

    * *isolated* specializations (Sections 3.1 and 3.3) restrict each
      element independently — subclass :class:`IsolatedSpecialization`;
    * *inter-element* specializations (Sections 3.2 and 3.4) restrict
      the interrelationship of distinct elements — subclass
      :class:`Specialization` directly and provide a custom monitor.
    """

    #: Human-readable name matching the paper's vocabulary.
    name: str = "specialization"

    @abc.abstractmethod
    def monitor(self) -> Monitor:
        """A fresh incremental checker for one extension."""

    def violations(self, elements: Iterable[StampedElement]) -> List[Violation]:
        """All violations in an extension (fed in tt order)."""
        ordered = sorted(elements, key=lambda e: e.tt_start.microseconds)
        return self.monitor().observe_all(ordered)

    def check_extension(self, elements: Iterable[StampedElement]) -> bool:
        """True when the extension satisfies this specialization."""
        ordered = sorted(elements, key=lambda e: e.tt_start.microseconds)
        checker = self.monitor()
        for element in ordered:
            if checker.observe(element):
                return False
        return True

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class _NoOpMonitor(Monitor):
    def inspect(self, element: StampedElement) -> List[Violation]:
        return []

    def commit(self, element: StampedElement) -> None:
        pass


class Unrestricted(Specialization):
    """The general (unrestricted) relation type, for any stamp kind.

    Unlike :class:`repro.core.taxonomy.event_isolated.General`, which is
    the event-domain root of Figure 2, this class accepts event- and
    interval-stamped elements alike; it is the root of the Figure 3 and
    Figure 5 lattices.
    """

    name = "general"

    def monitor(self) -> Monitor:
        return _NoOpMonitor()


class _IsolatedMonitor(Monitor):
    """Monitor for per-element properties: stateless, O(1) trivially."""

    def __init__(self, spec: "IsolatedSpecialization") -> None:
        self._spec = spec

    def inspect(self, element: StampedElement) -> List[Violation]:
        failure = self._spec.element_failure(element)
        if failure is None:
            return []
        return [Violation(self._spec, element, failure)]

    def commit(self, element: StampedElement) -> None:
        pass


class IsolatedSpecialization(Specialization):
    """A specialization defined by a predicate on single elements."""

    @abc.abstractmethod
    def check_element(self, element: StampedElement) -> bool:
        """The per-element predicate (Sections 3.1 / 3.3)."""

    def element_failure(self, element: StampedElement) -> Optional[str]:
        """A failure message for *element*, or None when compliant."""
        if self.check_element(element):
            return None
        return f"element with tt={element.tt_start!r}, vt={element.vt!r} violates {self.name}"

    def monitor(self) -> Monitor:
        return _IsolatedMonitor(self)


def iter_tt_ordered(elements: Iterable[StampedElement]) -> Iterator[StampedElement]:
    """Elements in increasing insertion-transaction-time order."""
    return iter(sorted(elements, key=lambda e: e.tt_start.microseconds))


def event_valid_time(element: StampedElement) -> Timestamp:
    """The valid time of an event-stamped element (type-checked)."""
    vt = element.vt
    if not isinstance(vt, Timestamp):
        raise TypeError(
            f"event specialization applied to interval-stamped element (vt={vt!r}); "
            "lift it with an EndpointSelector from interval_isolated"
        )
    return vt


def interval_valid_time(element: StampedElement) -> Interval:
    """The valid time of an interval-stamped element (type-checked)."""
    vt = element.vt
    if not isinstance(vt, Interval):
        raise TypeError(
            f"interval specialization applied to event-stamped element (vt={vt!r})"
        )
    return vt
