"""Totally ordered time-stamps.

Section 3 of the paper assumes "that the valid and transaction
time-stamps are drawn from the same domain, which must be totally
ordered".  A :class:`Timestamp` is an integer tick count at a declared
granularity; comparisons across granularities are exact because every
granularity has a fixed microsecond length.

Two sentinels complete the domain:

* :data:`FOREVER` -- larger than every proper time-stamp; used as the
  ``tt_stop`` of elements that have not been logically deleted, and as
  the open end of valid-time intervals ("until changed").
* :data:`NEGATIVE_INFINITY` -- smaller than every proper time-stamp.
"""

from __future__ import annotations

import functools
from typing import Any, List, Union

from repro.chronos.calendar import GregorianDate, date_to_ordinal, ordinal_to_date
from repro.chronos.granularity import Granularity, GranularityLike, as_granularity


@functools.total_ordering
class _Sentinel:
    """Infinite endpoints of the time domain."""

    __slots__ = ("_name", "_positive")

    def __init__(self, name: str, positive: bool) -> None:
        self._name = name
        self._positive = positive

    @property
    def is_positive(self) -> bool:
        return self._positive

    def __eq__(self, other: Any) -> bool:
        return self is other

    def __lt__(self, other: Any) -> bool:
        if self is other:
            return False
        if isinstance(other, (_Sentinel, Timestamp)):
            return not self._positive
        return NotImplemented

    def __hash__(self) -> int:
        return hash((_Sentinel, self._name))

    def __repr__(self) -> str:
        return self._name

    # Sentinels are singletons compared by identity, so they must
    # survive copying and pickling as themselves.
    def __copy__(self) -> "_Sentinel":
        return self

    def __deepcopy__(self, memo: dict) -> "_Sentinel":
        return self

    def __reduce__(self) -> tuple:
        return (_sentinel_by_name, (self._name,))


FOREVER = _Sentinel("FOREVER", positive=True)
NEGATIVE_INFINITY = _Sentinel("NEGATIVE_INFINITY", positive=False)


def _sentinel_by_name(name: str) -> _Sentinel:
    return FOREVER if name == "FOREVER" else NEGATIVE_INFINITY

TimePoint = Union["Timestamp", _Sentinel]


@functools.total_ordering
class Timestamp:
    """A proper (finite) time-stamp: *ticks* at a *granularity*.

    Instances are immutable and hashable.  Arithmetic with
    :class:`repro.chronos.duration.Duration` and
    :class:`~repro.chronos.duration.CalendricDuration` is provided via
    ``+`` and ``-``; subtracting two time-stamps yields a fixed
    :class:`~repro.chronos.duration.Duration` at the finer granularity.
    """

    __slots__ = ("_ticks", "_granularity", "_micro")

    def __init__(self, ticks: int, granularity: GranularityLike = Granularity.SECOND) -> None:
        if not isinstance(ticks, int):
            raise TypeError(f"ticks must be an int, got {type(ticks).__name__}")
        gran = granularity if type(granularity) is Granularity else as_granularity(granularity)
        self._ticks = ticks
        self._granularity = gran
        # Cached eagerly: every comparison, hash, and index key is the
        # microsecond coordinate, and the enum property walk dominates
        # ingestion profiles otherwise.  At microsecond granularity it is
        # the ticks themselves: one int, not an equal second one.
        unit = gran.value
        self._micro = ticks if unit == 1 else ticks * unit

    @property
    def ticks(self) -> int:
        """Tick count at this time-stamp's own granularity."""
        return self._ticks

    @property
    def granularity(self) -> Granularity:
        """Granularity of this time-stamp."""
        return self._granularity

    @property
    def microseconds(self) -> int:
        """Exact position on the common microsecond time-line."""
        return self._micro

    # -- construction helpers -------------------------------------------------

    @classmethod
    def sequence(
        cls, first: int, count: int, granularity: GranularityLike = Granularity.SECOND
    ) -> List["Timestamp"]:
        """*count* consecutive time-stamps starting at tick *first*.

        The bulk-stamping path of the transaction clocks: one argument
        check for the whole run instead of one per instance.
        """
        gran = granularity if type(granularity) is Granularity else as_granularity(granularity)
        if not isinstance(first, int) or count < 0:
            raise ValueError(f"invalid sequence start/count: {first!r}, {count!r}")
        unit = gran.value
        new = cls.__new__
        stamps: List[Timestamp] = []
        append = stamps.append
        for tick in range(first, first + count):
            stamp = new(cls)
            stamp._ticks = tick
            stamp._granularity = gran
            stamp._micro = tick if unit == 1 else tick * unit
            append(stamp)
        return stamps

    @classmethod
    def from_date(cls, year: int, month: int, day: int, granularity: GranularityLike = Granularity.DAY) -> "Timestamp":
        """Time-stamp for midnight starting the given Gregorian date."""
        gran = as_granularity(granularity)
        day_ordinal = date_to_ordinal(year, month, day)
        return cls(Granularity.DAY.convert(day_ordinal, gran), gran)

    def to_date(self) -> GregorianDate:
        """The Gregorian date containing this time-stamp."""
        return ordinal_to_date(self.microseconds // Granularity.DAY.microseconds)

    def at_granularity(self, granularity: GranularityLike) -> "Timestamp":
        """Re-express at another granularity (coarsening truncates/floors)."""
        gran = as_granularity(granularity)
        return Timestamp(self._granularity.convert(self._ticks, gran), gran)

    def floor_to(self, granularity: GranularityLike) -> "Timestamp":
        """Round down to a whole tick of *granularity*, keeping that granularity.

        This is the building block of the paper's mapping functions such
        as m2(e) = "valid from the most recent hour".
        """
        return self.at_granularity(granularity)

    def ceil_to(self, granularity: GranularityLike) -> "Timestamp":
        """Round up to a whole tick of *granularity*.

        Used by mapping functions such as m3(e) = "valid from the next
        closest 8:00 a.m." (ceiling to day, then offset).
        """
        gran = as_granularity(granularity)
        micro = self.microseconds
        unit = gran.microseconds
        ticks = -((-micro) // unit)
        return Timestamp(ticks, gran)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: Any) -> "Timestamp":
        from repro.chronos.duration import CalendricDuration, Duration

        if isinstance(other, Duration):
            return self._add_micro(other.microseconds)
        if isinstance(other, CalendricDuration):
            return other.add_to(self)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: Any) -> Any:
        from repro.chronos.duration import CalendricDuration, Duration

        if isinstance(other, Duration):
            return self._add_micro(-other.microseconds)
        if isinstance(other, CalendricDuration):
            return (-other).add_to(self)
        if isinstance(other, Timestamp):
            gran = (
                self._granularity
                if self._granularity.is_finer_than(other._granularity)
                else other._granularity
            )
            diff = self.microseconds - other.microseconds
            return Duration(diff // gran.microseconds, gran)
        return NotImplemented

    def _add_micro(self, microseconds: int) -> "Timestamp":
        unit = self._granularity.microseconds
        if microseconds % unit != 0:
            # Keep exactness by refining the granularity.
            fine = _finest_dividing(unit, microseconds)
            total = self.microseconds + microseconds
            return Timestamp(total // fine.microseconds, fine)
        return Timestamp(self._ticks + microseconds // unit, self._granularity)

    # -- ordering ---------------------------------------------------------------

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Timestamp):
            return self._micro == other._micro
        if isinstance(other, _Sentinel):
            return False
        return NotImplemented

    def __lt__(self, other: Any) -> bool:
        if isinstance(other, Timestamp):
            return self._micro < other._micro
        if isinstance(other, _Sentinel):
            return other.is_positive
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._micro)

    def __repr__(self) -> str:
        return f"Timestamp({self._ticks}, {self._granularity.name.lower()})"


def _finest_dividing(unit: int, offset: int) -> Granularity:
    """The coarsest granularity whose tick divides both *unit* and *offset*."""
    for gran in sorted(Granularity, key=lambda g: g.value, reverse=True):
        if unit % gran.microseconds == 0 and offset % gran.microseconds == 0:
            return gran
    return Granularity.MICROSECOND


def as_timepoint(value: Union[int, TimePoint], granularity: GranularityLike = Granularity.SECOND) -> TimePoint:
    """Coerce an int (tick count) or time point to a :data:`TimePoint`."""
    if isinstance(value, (Timestamp, _Sentinel)):
        return value
    if isinstance(value, int):
        return Timestamp(value, granularity)
    raise TypeError(f"cannot interpret {value!r} as a time point")
