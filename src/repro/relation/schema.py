"""Relation schemas: attribute roles, stamp kinds, declared specializations.

The schema captures what Section 2 calls the design of a temporal
relation: whether elements are event- or interval-stamped, the valid
time-stamp granularity, which attributes are time-invariant (including
the time-invariant key [NA89]), which are time-varying, which are
user-defined times -- plus the *declared temporal specializations*, the
paper's central design artifact.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.chronos.duration import CalendricDuration, Duration
from repro.chronos.granularity import Granularity, GranularityLike, as_granularity
from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.core.constraints import EnforcementMode
from repro.core.taxonomy.base import Specialization, TimeReference, time_reference_of
from repro.core.taxonomy.event_isolated import Degenerate, EventSpecialization
from repro.core.taxonomy.regions import OffsetRegion
from repro.core.taxonomy.registry import parse
from repro.relation.element import FrozenMap, frozen_map
from repro.relation.errors import SchemaError
from repro.storage.columnar import NEG_SENTINEL, POS_SENTINEL


class ValidTimeKind(enum.Enum):
    """Whether elements represent events or facts valid over intervals."""

    EVENT = "event"
    INTERVAL = "interval"


class AttributeRole(enum.Enum):
    """The attribute roles of Section 2."""

    TIME_INVARIANT = "time-invariant"
    TIME_VARYING = "time-varying"
    USER_TIME = "user-defined time"


SpecOrName = Union[Specialization, str]


@dataclass
class TemporalSchema:
    """Schema of one temporal relation.

    ``specializations`` accepts instances or the textual forms accepted
    by :func:`repro.core.taxonomy.registry.parse`, e.g.
    ``"delayed retroactive(30s)"``.
    """

    name: str
    valid_time_kind: ValidTimeKind = ValidTimeKind.EVENT
    key: Sequence[str] = ()
    time_invariant: Sequence[str] = ()
    time_varying: Sequence[str] = ()
    user_times: Sequence[str] = ()
    granularity: GranularityLike = Granularity.SECOND
    specializations: Sequence[SpecOrName] = ()
    enforcement: EnforcementMode = EnforcementMode.REJECT
    #: Enforce the sequenced key constraint [NA89]: at any valid-time
    #: instant, at most one *current* element per key value.  Only
    #: meaningful when ``key`` is non-empty.
    enforce_key: bool = True

    def __post_init__(self) -> None:
        self.granularity = as_granularity(self.granularity)
        self.key = tuple(self.key)
        self.time_invariant = tuple(self.time_invariant)
        self.time_varying = tuple(self.time_varying)
        self.user_times = tuple(self.user_times)
        self._validate_attribute_names()
        resolved: List[Specialization] = []
        for spec in self.specializations:
            resolved.append(parse(spec) if isinstance(spec, str) else spec)
        self.specializations = tuple(resolved)
        # Declarations are immutable from here on, so what they license
        # is derived once -- the planner, standing views, vacuum and
        # lock-free reader threads only read it.
        #: The insertion-relative declarations storage guarantees: the
        #: ones that constrain where a stored fact's stamps lie.  Only
        #: REJECT refuses a violating element, so under RECORD or WARN
        #: nothing is guaranteed and no declaration licenses a plan.
        self.guaranteed_specializations: Tuple[Specialization, ...] = (
            tuple(
                spec
                for spec in resolved
                if time_reference_of(spec) is TimeReference.INSERTION
            )
            if self.enforcement is EnforcementMode.REJECT
            else ()
        )
        self.declared_degenerate: Optional[Degenerate] = next(
            (s for s in self.guaranteed_specializations if isinstance(s, Degenerate)), None
        )
        #: The intersection of the guaranteed Figure 1 regions, or None
        #: without one (nothing guaranteed, or contradictory declarations).
        self.declared_offset_region = _declared_region(self.guaranteed_specializations)
        # Attribute-name -> role, resolved once; the per-update hot path
        # (split_attributes) does a single dict probe per attribute
        # instead of three tuple scans.
        self._role_map: Dict[str, AttributeRole] = {}
        for names, role in (
            (self.time_invariant, AttributeRole.TIME_INVARIANT),
            (self.time_varying, AttributeRole.TIME_VARYING),
            (self.user_times, AttributeRole.USER_TIME),
        ):
            for attr in names:
                self._role_map[attr] = role

    def _validate_attribute_names(self) -> None:
        roles: Dict[str, AttributeRole] = {}
        for names, role in (
            (self.time_invariant, AttributeRole.TIME_INVARIANT),
            (self.time_varying, AttributeRole.TIME_VARYING),
            (self.user_times, AttributeRole.USER_TIME),
        ):
            for attr in names:
                if attr in roles:
                    raise SchemaError(
                        f"attribute {attr!r} declared both {roles[attr].value} "
                        f"and {role.value}"
                    )
                roles[attr] = role
        for attr in self.key:
            if roles.get(attr) is not AttributeRole.TIME_INVARIANT:
                raise SchemaError(
                    f"key attribute {attr!r} must be declared time-invariant "
                    "(the time-invariant key of [NA89])"
                )

    # -- value checking --------------------------------------------------------

    @property
    def is_event(self) -> bool:
        return self.valid_time_kind is ValidTimeKind.EVENT

    def role_of(self, attribute: str) -> Optional[AttributeRole]:
        return self._role_map.get(attribute)

    def check_valid_time(self, vt: Any) -> None:
        """Reject valid time-stamps of the wrong kind, and stamps storage
        cannot keep: a coordinate at or beyond a sentinel would read back
        as an unbounded endpoint."""
        if self.is_event and not isinstance(vt, Timestamp):
            raise SchemaError(
                f"relation {self.name!r} is event-stamped; got valid time {vt!r}"
            )
        if not self.is_event and not isinstance(vt, Interval):
            raise SchemaError(
                f"relation {self.name!r} is interval-stamped; got valid time {vt!r}"
            )
        if not representable(vt):
            raise SchemaError(
                f"valid time {vt!r} lies at or beyond the +-2**62 microsecond "
                "coordinates storage reserves for unbounded endpoints"
            )

    def split_attributes(
        self, values: Mapping[str, Any]
    ) -> Tuple[FrozenMap, FrozenMap, FrozenMap]:
        """Partition supplied values by role (read-only maps); reject undeclared names."""
        invariant: Dict[str, Any] = {}
        varying: Dict[str, Any] = {}
        user: Dict[str, Timestamp] = {}
        for attr, value in values.items():
            role = self.role_of(attr)
            if role is None:
                declared = ", ".join(
                    self.time_invariant + self.time_varying + self.user_times
                )
                raise SchemaError(
                    f"attribute {attr!r} is not declared in schema {self.name!r} "
                    f"(declared: {declared or 'none'})"
                )
            if role is AttributeRole.TIME_INVARIANT:
                invariant[attr] = value
            elif role is AttributeRole.TIME_VARYING:
                varying[attr] = value
            else:
                if not isinstance(value, Timestamp):
                    raise SchemaError(
                        f"user-defined time {attr!r} must be a Timestamp, got {value!r}"
                    )
                user[attr] = value
        return frozen_map(invariant), frozen_map(varying), frozen_map(user)

    def key_of(self, invariant: Mapping[str, Any]) -> Tuple[Any, ...]:
        """The time-invariant key value of an element."""
        try:
            return tuple(invariant[attr] for attr in self.key)
        except KeyError as missing:
            raise SchemaError(f"missing key attribute {missing.args[0]!r}") from None

    def specialization_names(self) -> List[str]:
        return [spec.name for spec in self.specializations]


def representable(vt: Any) -> bool:
    """Does every Timestamp in *vt* lie strictly between the sentinel
    coordinates (FOREVER / NEGATIVE_INFINITY endpoints always do)?"""
    if isinstance(vt, Interval):
        return representable(vt.start) and representable(vt.end)
    return not isinstance(vt, Timestamp) or NEG_SENTINEL < vt.microseconds < POS_SENTINEL


def _declared_region(specializations: Sequence[Specialization]) -> Optional[OffsetRegion]:
    region: Optional[OffsetRegion] = None
    for spec in specializations:
        spec_region = _conservative_region(spec) if isinstance(spec, EventSpecialization) else None
        if spec_region is None:
            continue
        region = spec_region if region is None else region.intersection(spec_region)
        if region is None:
            return None
    return region


def _conservative_region(spec: EventSpecialization) -> Optional[OffsetRegion]:
    """*spec*'s Figure 1 region; None when it has none (granularity-
    relative degenerate).

    A calendric bound's offset varies with the anchor date, so it has no
    exact region: a month is 28 to 31 days, and the hull of the regions
    at those two lengths contains every offset the declaration admits
    (each endpoint is monotone in its bound) -- all a scan window needs.
    """
    try:
        return spec.region()
    except (TypeError, NotImplementedError):
        pass
    calendric = {
        name: bound for name, bound in vars(spec).items() if isinstance(bound, CalendricDuration)
    }
    hull: Optional[OffsetRegion] = None
    for days in (28, 31) if calendric else ():
        fixed = copy.copy(spec)
        for name, bound in calendric.items():
            setattr(fixed, name, Duration(bound.months * days, "day"))
        try:
            region = fixed.region()
        except ValueError:  # bounds cross at this month length: admits nothing
            continue
        hull = region if hull is None else hull.hull(region)
    return hull
