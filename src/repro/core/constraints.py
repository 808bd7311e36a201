"""Constraint enforcement: attaching specializations to relations.

The paper's first benefit of temporal specialization is design-time
semantics; the operational counterpart is *enforcement*: a relation
declared, say, delayed retroactive must reject (or at least report)
updates whose stamps fall outside the declared region.

A :class:`ConstraintSet` bundles declared specializations with an
:class:`EnforcementMode`:

* ``REJECT`` -- raise :class:`ConstraintViolation` and refuse the update;
* ``WARN`` -- record the violation and emit a warning, but accept;
* ``RECORD`` -- record silently (useful for auditing a candidate design
  against live traffic before committing to it).

Checking is compiled once per set.  Every isolated event declaration
with a fixed bound relative to insertion time is a Figure 1 region of
the offset ``vt - tt`` (Section 3.1); their intersection is one integer
interval, so checking a row against all of them is one comparison.
Every other declaration -- inter-element (stateful), calendric,
deletion-relative, interval -- contributes one
:class:`~repro.core.taxonomy.base.Monitor`, fed every inserted element
in transaction order.  A row outside the compiled region sends its
update (or batch) down the full monitor path, so the violations
reported, and their order, are exactly what per-declaration monitors
report (benchmark E10 measures the cost).
"""

from __future__ import annotations

import copy
import enum
import warnings
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.taxonomy.base import (
    IsolatedSpecialization,
    Monitor,
    Specialization,
    StampedElement,
    TimeReference,
    Violation,
    time_reference_of,
)
from repro.core.taxonomy.event_isolated import EventSpecialization
from repro.core.taxonomy.regions import OffsetRegion
from repro.observability import metrics as _metrics

#: Inclusive integer bounds on ``vt - tt`` in microseconds (infinite
#: when unbounded).
OffsetBounds = Tuple[Union[int, float], Union[int, float]]


class EnforcementMode(enum.Enum):
    """What to do when an update violates a declared specialization."""

    REJECT = "reject"
    WARN = "warn"
    RECORD = "record"


class ConstraintViolation(Exception):
    """Raised in REJECT mode; carries the underlying violations."""

    def __init__(self, violations: Sequence[Violation]) -> None:
        self.violations = list(violations)
        details = "; ".join(str(v) for v in self.violations)
        super().__init__(f"temporal specialization violated: {details}")


class ConstraintSet:
    """Declared specializations plus live monitors for one relation."""

    def __init__(
        self,
        specializations: Iterable[Specialization] = (),
        mode: EnforcementMode = EnforcementMode.REJECT,
    ) -> None:
        self.specializations: List[Specialization] = list(specializations)
        self.mode = mode
        self._monitors: List[Tuple[Specialization, Monitor]] = [
            (spec, spec.monitor()) for spec in self.specializations
        ]
        self.recorded: List[Violation] = []
        regions = [compiled_region(spec) for spec in self.specializations]
        #: Positions of the declarations only a monitor can check.
        self._stateful: List[int] = [i for i, region in enumerate(regions) if region is None]
        #: The compiled region of the others; None when there are none.
        self._bounds: Optional[OffsetBounds] = _inclusive_bounds(
            [region for region in regions if region is not None]
        )

    @property
    def is_empty(self) -> bool:
        return not self.specializations

    def observe(self, element: StampedElement) -> List[Violation]:
        """Feed one inserted element through every monitor, atomically.

        The two-phase monitor protocol makes rejection side-effect
        free: every monitor first *inspects* the prospective element;
        only when the update is accepted (no violations, or a
        non-REJECT mode) do the monitors *commit* it.  A rejected
        update therefore leaves both the relation and the enforcement
        state exactly as they were.
        """
        monitors = [self._monitors[index][1] for index in self._checked_by_monitor((element,))]
        found: List[Violation] = []
        for monitor in monitors:
            found.extend(monitor.inspect(element))
        if _metrics.enabled():
            registry = _metrics.registry()
            registry.counter("constraints.checks").inc(len(self._monitors))
            if found:
                registry.counter("constraints.violations").inc(len(found))
        if found and self.mode is EnforcementMode.REJECT:
            raise ConstraintViolation(found)
        for monitor in monitors:
            monitor.commit(element)
        if not found:
            return []
        self.recorded.extend(found)
        if self.mode is EnforcementMode.WARN:
            for violation in found:
                warnings.warn(str(violation), stacklevel=3)
        return found

    def observe_batch(self, elements: Sequence[StampedElement]) -> List[Violation]:
        """Feed a whole batch through the monitors in one amortized pass.

        Semantics match calling :meth:`observe` element by element, but
        the cost structure differs: instead of the two-phase
        inspect-then-commit round trip per element, the batch runs
        through *shadow copies* of the live monitors in a single
        inspect+commit pass.  Only when the whole batch is accepted (no
        violations, or a non-REJECT mode) do the shadows replace the
        live monitors -- so a rejected batch leaves the enforcement
        state exactly as it was, with no per-element rollback
        bookkeeping.

        Elements must arrive in non-decreasing ``tt_start`` order (the
        transaction clock guarantees this for a staged batch).
        """
        elements = list(elements)
        if not elements:
            return []
        if not self._monitors:
            return []
        found: List[Violation] = []
        shadows: List[Tuple[int, Specialization, Monitor]] = []
        for index in self._checked_by_monitor(elements):
            spec, monitor = self._monitors[index]
            # The memo pins the (immutable) specialization so the shadow
            # keeps reporting violations against the declared instance.
            shadow = copy.deepcopy(monitor, {id(spec): spec})
            for element in elements:
                found.extend(shadow.inspect(element))
                shadow.commit(element)
            shadows.append((index, spec, shadow))
        if _metrics.enabled():
            registry = _metrics.registry()
            registry.counter("constraints.checks").inc(len(self._monitors) * len(elements))
            if found:
                registry.counter("constraints.violations").inc(len(found))
        if found and self.mode is EnforcementMode.REJECT:
            raise ConstraintViolation(found)
        for index, spec, shadow in shadows:
            self._monitors[index] = (spec, shadow)
        if _metrics.enabled():
            _metrics.registry().counter("constraints.shadow_swaps").inc()
        if not found:
            return []
        self.recorded.extend(found)
        if self.mode is EnforcementMode.WARN:
            for violation in found:
                warnings.warn(str(violation), stacklevel=3)
        return found

    def check_all(self, elements: Iterable[StampedElement]) -> List[Violation]:
        """Batch-validate an existing extension with fresh monitors.

        Does not disturb the live incremental monitors.
        """
        found: List[Violation] = []
        for spec in self.specializations:
            found.extend(spec.violations(list(elements)))
        return found

    def reset(self) -> None:
        """Forget all monitor state (e.g. after a relation is truncated)."""
        self._monitors = [(spec, spec.monitor()) for spec in self.specializations]
        self.recorded.clear()

    def _checked_by_monitor(self, elements: Sequence[StampedElement]) -> Sequence[int]:
        """Positions of the monitors *elements* must pass through.

        The stateful ones when every element lies in the compiled
        region -- the region's declarations then hold for all of them --
        and every monitor otherwise, which reports exactly what the
        per-declaration monitors do.  The compiled declarations' monitors
        are stateless, so skipping them loses no state.
        """
        if self._bounds is None:
            return self._stateful
        low, high = self._bounds
        try:
            for element in elements:
                # The slot, not the property: this loop is the whole check.
                if not low <= element.vt._micro - element.tt_start._micro <= high:  # type: ignore[union-attr]
                    return range(len(self._monitors))
        except AttributeError:  # an interval valid time: the monitors reject it
            return range(len(self._monitors))
        return self._stateful

    def __repr__(self) -> str:
        names = ", ".join(spec.name for spec in self.specializations)
        return f"ConstraintSet([{names}], mode={self.mode.value})"


def compiled_region(spec: Specialization) -> Optional[OffsetRegion]:
    """*spec*'s Figure 1 region when the compiled check may stand in for
    its monitor, else None.

    That is an :class:`EventSpecialization` relative to insertion time
    whose bounds are fixed durations (a calendric bound's offset varies
    with the anchor date; a granularity-relative degenerate compares
    floored stamps) and admit some offset, checked by the inherited
    per-element predicate.
    """
    if not isinstance(spec, EventSpecialization):
        return None
    if time_reference_of(spec) is not TimeReference.INSERTION:
        return None
    kind = type(spec)
    if (
        kind.check_element is not EventSpecialization.check_element
        or kind.element_failure is not IsolatedSpecialization.element_failure
        or kind.monitor is not IsolatedSpecialization.monitor
    ):
        return None
    try:
        return spec.region()
    except (TypeError, NotImplementedError, ValueError):  # ValueError: an empty region
        return None


def _inclusive_bounds(regions: Sequence[OffsetRegion]) -> Optional[OffsetBounds]:
    """The intersection of *regions* as inclusive bounds on the integer
    offset line (an open endpoint excludes one microsecond); an empty
    intersection admits no offset."""
    if not regions:
        return None
    region: Optional[OffsetRegion] = regions[0]
    for other in regions[1:]:
        region = region.intersection(other) if region is not None else None
    if region is None:
        return (1, 0)
    low = float("-inf") if region.lower is None else region.lower.offset + (not region.lower.closed)
    high = float("inf") if region.upper is None else region.upper.offset - (not region.upper.closed)
    return (low, high)
