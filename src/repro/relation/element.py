"""Elements: the tuples of a temporal relation (Section 2).

An element records one or more facts about an object.  Its attribute
values fall in the roles the paper enumerates: element surrogate, object
surrogate, transaction time-stamps (the existence interval
``[tt_start, tt_stop)``), valid time-stamp (event or interval),
time-invariant attribute values, time-varying attribute values, and
user-defined times.

Elements satisfy the :class:`repro.core.taxonomy.base.StampedElement`
protocol, so every specialization applies to them directly.  The valid
time-stamp and the transaction time-stamps are immutable once stored,
with one exception mandated by the model: logical deletion closes the
existence interval by setting ``tt_stop`` (the storage engine does this
through :meth:`Element.closed`, producing the updated record).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Dict, Hashable, Mapping, Optional, Union

from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, TimePoint, Timestamp

ValidTime = Union[Timestamp, Interval]


@dataclass(frozen=True)
class Element:
    """One stored element of a temporal relation."""

    element_surrogate: int
    object_surrogate: Hashable
    tt_start: Timestamp
    vt: ValidTime
    tt_stop: TimePoint = FOREVER
    time_invariant: Mapping[str, Any] = field(default_factory=dict)
    time_varying: Mapping[str, Any] = field(default_factory=dict)
    user_times: Mapping[str, Timestamp] = field(default_factory=dict)
    #: Canonical wire fragment memo, not part of the value.  None (the
    #: class default; un-armed elements carry nothing) is never filled;
    #: the cold tier arms with b"" and server.protocol fills at first encode.
    _wire: Optional[bytes] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "time_invariant", dict(self.time_invariant))
        object.__setattr__(self, "time_varying", dict(self.time_varying))
        object.__setattr__(self, "user_times", dict(self.user_times))

    def __getstate__(self) -> Dict[str, Any]:
        # Copies and pickles are new objects outside the tier: no memo.
        return {key: value for key, value in self.__dict__.items() if key != "_wire"}

    # -- StampedElement protocol -------------------------------------------------

    @property
    def attributes(self) -> Mapping[str, Any]:
        """All attribute values in one read-only view.

        Time-varying values shadow time-invariant ones on name clashes
        (schemas forbid clashes, so this only matters for ad-hoc use);
        user-defined times appear under their own names, since the paper
        treats them as "specialized kinds of time-varying attribute
        values".
        """
        merged = dict(self.time_invariant)
        merged.update(self.time_varying)
        merged.update(self.user_times)
        return MappingProxyType(merged)

    @property
    def is_current(self) -> bool:
        """True while the element has not been logically deleted."""
        return self.tt_stop is FOREVER

    @property
    def existence_interval(self) -> Interval:
        """``[tt_start, tt_stop)`` -- when the element was in the relation."""
        return Interval(self.tt_start, self.tt_stop)

    @property
    def is_event(self) -> bool:
        return isinstance(self.vt, Timestamp)

    # -- temporal accessors -------------------------------------------------------

    def stored_during(self, tt: TimePoint) -> bool:
        """Was this element part of the historical state at *tt*?

        The state "at FOREVER" is the limit state: every logical
        deletion has taken effect, so it equals the current state.
        """
        if tt is FOREVER:
            return self.is_current
        return self.tt_start <= tt and tt < self.tt_stop

    def valid_at(self, vt: TimePoint) -> bool:
        """Is the recorded fact true in reality at *vt*?

        For event elements this is exact coincidence; for interval
        elements, half-open containment.
        """
        if isinstance(self.vt, Interval):
            return self.vt.contains_point(vt)
        return self.vt == vt

    # -- lifecycle ------------------------------------------------------------------

    def closed(self, tt_stop: Timestamp) -> "Element":
        """This element with its existence interval closed at *tt_stop*."""
        if not self.is_current:
            raise ValueError(
                f"element {self.element_surrogate} was already deleted at {self.tt_stop!r}"
            )
        if not self.tt_start < tt_stop:
            raise ValueError(
                f"deletion time {tt_stop!r} must follow insertion time {self.tt_start!r}"
            )
        return replace(self, tt_stop=tt_stop)

    def __repr__(self) -> str:
        state = "current" if self.is_current else f"until {self.tt_stop!r}"
        return (
            f"Element(#{self.element_surrogate} obj={self.object_surrogate!r} "
            f"tt={self.tt_start!r} ({state}) vt={self.vt!r})"
        )


def build_trusted(
    element_surrogate: int,
    object_surrogate: Hashable,
    tt_start: Timestamp,
    vt: ValidTime,
    time_invariant: dict,
    time_varying: dict,
    user_times: dict,
) -> Element:
    """Construct an element without re-copying the attribute dicts.

    The bulk-ingestion fast path: the caller transfers ownership of the
    three dicts and must not mutate them afterwards.  The result is
    indistinguishable from one built by the regular constructor.
    """
    element = object.__new__(Element)
    # Direct __dict__ assignment: one store instead of eight frozen-field
    # object.__setattr__ calls plus the __post_init__ copies.
    object.__setattr__(
        element,
        "__dict__",
        {
            "element_surrogate": element_surrogate,
            "object_surrogate": object_surrogate,
            "tt_start": tt_start,
            "vt": vt,
            "tt_stop": FOREVER,
            "time_invariant": time_invariant,
            "time_varying": time_varying,
            "user_times": user_times,
        },
    )
    return element
