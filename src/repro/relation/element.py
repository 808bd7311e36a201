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

from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import Any, Hashable, Iterable, Mapping, Optional, Union

from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, TimePoint, Timestamp

ValidTime = Union[Timestamp, Interval]


class FrozenMap(dict):
    """A dict nobody may write: elements share their attribute maps, and
    a stored element's wire fragment (``Element._wire``) must match them."""

    __slots__ = ()

    def _read_only(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError("element attribute maps are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self) -> Any:  # copies and pickles: not item by item
        return (frozen_map, (dict(self),))


#: The one empty attribute map every element shares.
EMPTY_MAP = FrozenMap()


def frozen_map(mapping: Mapping[str, Any]) -> FrozenMap:
    """*mapping* as a read-only map: itself when it already is one,
    :data:`EMPTY_MAP` when empty, otherwise a copy."""
    if type(mapping) is FrozenMap:
        return mapping
    return FrozenMap(mapping) if mapping else EMPTY_MAP


def frozen_record(cls: type) -> type:
    """``dataclass(frozen=True)`` over slots (``slots=True`` needs Python 3.10): *cls*
    has ``__slots__ = ()`` and a base whose ``__init__`` stores every field, for :func:`trusted`.
    Copies and pickles go through the constructor (frozen slots refuse slot-wise restores)."""
    record = dataclass(frozen=True)(cls)
    for name in cls.__base__.__slots__:
        if name in vars(record):  # a field default dataclass() left would hide the slot
            delattr(record, name)
    init = [spec.name for spec in fields(record) if spec.init]
    record.__reduce__ = lambda self: (record, tuple(getattr(self, name) for name in init))
    return record


def trusted(cls):
    """A builder of *cls* records from its base's ``__init__`` arguments: plain slot stores,
    not frozen ``__setattr__`` calls, and no ``__post_init__`` (for checked, frozen values)."""
    base, set_class = cls.__base__, object.__setattr__
    def build(*values):
        record = base(*values)
        set_class(record, "__class__", cls)
        return record
    return build


class _ElementSlots:
    """Element's fields, writable (see :func:`frozen_record`)."""

    __slots__ = ("element_surrogate", "object_surrogate", "tt_start", "vt", "time_invariant")
    __slots__ += ("time_varying", "user_times", "tt_stop", "_wire")

    def __init__(self, element_surrogate, object_surrogate, tt_start, vt, time_invariant,
                 time_varying, user_times, tt_stop=FOREVER) -> None:
        self.element_surrogate = element_surrogate
        self.object_surrogate = object_surrogate
        self.tt_start = tt_start
        self.vt = vt
        self.time_invariant = time_invariant
        self.time_varying = time_varying
        self.user_times = user_times
        self.tt_stop = tt_stop
        self._wire = None


@frozen_record
class Element(_ElementSlots):
    """One stored element of a temporal relation."""

    __slots__ = ()

    element_surrogate: int
    object_surrogate: Hashable
    tt_start: Timestamp
    vt: ValidTime
    tt_stop: TimePoint = FOREVER
    time_invariant: Mapping[str, Any] = field(default_factory=dict)
    time_varying: Mapping[str, Any] = field(default_factory=dict)
    user_times: Mapping[str, Timestamp] = field(default_factory=dict)
    #: Canonical wire fragment memo, not part of the value.  None: never
    #: filled; a store arms the elements it holds with b"" (:func:`arm`)
    #: and server.protocol fills the fragment at first encode.
    _wire: Optional[bytes] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("time_invariant", "time_varying", "user_times"):
            object.__setattr__(self, name, frozen_map(getattr(self, name)))
        object.__setattr__(self, "_wire", None)

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
        return replace(self, tt_stop=tt_stop)  # the maps are shared, not copied

    def __repr__(self) -> str:
        state = "current" if self.is_current else f"until {self.tt_stop!r}"
        return (
            f"Element(#{self.element_surrogate} obj={self.object_surrogate!r} "
            f"tt={self.tt_start!r} ({state}) vt={self.vt!r})"
        )


#: ``set_fragment(element, fragment)`` stores a stored element's wire memo
#: (``b""`` arms it, bytes fill it) with a plain slot store.
set_fragment = _ElementSlots._wire.__set__  # type: ignore[attr-defined]


build_trusted = trusted(Element)  # stored elements: read-only maps, taken as they are


def arm(elements: Iterable[Element]) -> None:
    """Let *elements* keep their wire fragment from first encode on: only a
    store holding them may, as a stored element and its maps never change."""
    for element in elements:
        set_fragment(element, b"")
