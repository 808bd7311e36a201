"""The Figure 1 region algebra and the Section 3.1 completeness argument.

Every isolated-event specialization "corresponds to a region of the
two-dimensional space spanned by transaction and valid time" (Section
3.1).  Under the paper's five assumptions -- undetermined relationships
only, regions bounded by lines parallel to ``vt = tt``, relative
restrictions only, <=-versions, connected regions -- a region is fully
characterized by the set of allowed values of the *offset*
``d = vt - tt``: an interval on the offset axis, possibly unbounded on
either side.

This module implements that characterization (:class:`OffsetRegion`) and
re-derives the paper's count mechanically: with zero bounding lines there
is one region (*general*); with one line there are six; with two lines
there are five; eleven specialized types plus *general* in total
(:func:`enumerate_regions`).  The test suite checks this enumeration
against the class registry, and checks that region inclusion coincides
with the Figure 2 lattice edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.chronos.duration import Duration

#: The three kinds of bounding lines of Section 3.1: lines parallel to
#: ``vt = tt`` lying strictly above it (offset > 0), on it (offset = 0),
#: or strictly below it (offset < 0).
LINE_KIND_ABOVE = 1
LINE_KIND_ON = 2
LINE_KIND_BELOW = 3


@dataclass(frozen=True)
class Bound:
    """One endpoint of an offset region: a value in microseconds plus
    whether the endpoint itself is allowed (the paper's <=-version uses
    closed endpoints throughout)."""

    offset: int
    closed: bool = True


@dataclass(frozen=True)
class OffsetRegion:
    """The set of allowed offsets ``d = vt - tt``, as an interval.

    ``lower is None`` means unbounded below; ``upper is None`` means
    unbounded above.  The region must be non-empty.
    """

    lower: Optional[Bound] = None
    upper: Optional[Bound] = None

    def __post_init__(self) -> None:
        if self.lower is not None and self.upper is not None:
            low, high = self.lower, self.upper
            if low.offset > high.offset:
                raise ValueError(f"empty region: lower {low} above upper {high}")
            if low.offset == high.offset and not (low.closed and high.closed):
                raise ValueError("empty region: equal open endpoints")

    # -- membership ------------------------------------------------------------

    def contains(self, offset_microseconds: int) -> bool:
        """True when the offset lies in the region."""
        low, high = self.lower, self.upper
        if low is not None:
            if offset_microseconds < low.offset:
                return False
            if offset_microseconds == low.offset and not low.closed:
                return False
        if high is not None:
            if offset_microseconds > high.offset:
                return False
            if offset_microseconds == high.offset and not high.closed:
                return False
        return True

    def contains_duration(self, offset: Duration) -> bool:
        return self.contains(offset.microseconds)

    # -- lattice of regions -----------------------------------------------------

    def is_subset(self, other: "OffsetRegion") -> bool:
        """True when every offset allowed here is allowed in *other*."""
        return _lower_geq(self.lower, other.lower) and _upper_leq(self.upper, other.upper)

    def intersection(self, other: "OffsetRegion") -> Optional["OffsetRegion"]:
        """The common region, or None when empty."""
        lower = _tighter_lower(self.lower, other.lower)
        upper = _tighter_upper(self.upper, other.upper)
        try:
            return OffsetRegion(lower, upper)
        except ValueError:
            return None

    def hull(self, other: "OffsetRegion") -> "OffsetRegion":
        """The smallest region containing both."""
        return OffsetRegion(
            other.lower if _lower_geq(self.lower, other.lower) else self.lower,
            other.upper if _upper_leq(self.upper, other.upper) else self.upper,
        )

    def tt_window(
        self, vt_first: Optional[int], vt_last: Optional[int]
    ) -> Tuple[Optional[int], Optional[int]]:
        """The inclusive transaction-time window that can hold an element
        whose valid time lies in ``[vt_first, vt_last]`` (microseconds;
        ``None`` is unbounded, in the arguments and in the result).

        ``lower <= vt - tt <= upper`` rearranges to
        ``vt - upper <= tt <= vt - lower``; on the integer time-line an
        open endpoint excludes exactly one microsecond.
        """
        tt_lo = tt_hi = None
        if vt_first is not None and self.upper is not None:
            tt_lo = vt_first - self.upper.offset + (0 if self.upper.closed else 1)
        if vt_last is not None and self.lower is not None:
            tt_hi = vt_last - self.lower.offset - (0 if self.lower.closed else 1)
        return tt_lo, tt_hi

    @property
    def is_point(self) -> bool:
        """True for degenerate (single-offset) regions."""
        return (
            self.lower is not None
            and self.upper is not None
            and self.lower.offset == self.upper.offset
        )

    @property
    def line_count(self) -> int:
        """How many bounding lines describe the region (0, 1, or 2)."""
        return (self.lower is not None) + (self.upper is not None)

    def line_kinds(self) -> Tuple[int, ...]:
        """Section 3.1 kinds of the bounding lines, sorted.

        Kind 1: line with positive offset (``vt > tt`` side),
        kind 2: the line ``vt = tt``, kind 3: negative offset.
        """
        kinds = []
        for bound in (self.lower, self.upper):
            if bound is None:
                continue
            if bound.offset > 0:
                kinds.append(LINE_KIND_ABOVE)
            elif bound.offset == 0:
                kinds.append(LINE_KIND_ON)
            else:
                kinds.append(LINE_KIND_BELOW)
        return tuple(sorted(kinds))

    def __str__(self) -> str:
        low = "(-inf" if self.lower is None else ("[" if self.lower.closed else "(") + str(self.lower.offset)
        high = "+inf)" if self.upper is None else str(self.upper.offset) + ("]" if self.upper.closed else ")")
        return f"d in {low}, {high}"


def _lower_geq(mine: Optional[Bound], other: Optional[Bound]) -> bool:
    """Is my lower bound at least as restrictive as *other*'s?"""
    if other is None:
        return True
    if mine is None:
        return False
    if mine.offset != other.offset:
        return mine.offset > other.offset
    return other.closed or not mine.closed


def _upper_leq(mine: Optional[Bound], other: Optional[Bound]) -> bool:
    """Is my upper bound at least as restrictive as *other*'s?"""
    if other is None:
        return True
    if mine is None:
        return False
    if mine.offset != other.offset:
        return mine.offset < other.offset
    return other.closed or not mine.closed


def _tighter_lower(a: Optional[Bound], b: Optional[Bound]) -> Optional[Bound]:
    if a is None:
        return b
    if b is None:
        return a
    return a if _lower_geq(a, b) else b


def _tighter_upper(a: Optional[Bound], b: Optional[Bound]) -> Optional[Bound]:
    if a is None:
        return b
    if b is None:
        return a
    return a if _upper_leq(a, b) else b


@dataclass(frozen=True)
class RegionShape:
    """A region *shape*: which side(s) are bounded and by which line kinds.

    Concrete bound values are abstracted away; two specializations have
    the same shape exactly when Section 3.1 treats them as the same type.
    ``lower_kind``/``upper_kind`` are line kinds or None for unbounded.
    """

    lower_kind: Optional[int]
    upper_kind: Optional[int]

    @property
    def line_count(self) -> int:
        return (self.lower_kind is not None) + (self.upper_kind is not None)


def shape_of(region: OffsetRegion) -> RegionShape:
    """Abstract a concrete region to its shape."""
    return RegionShape(
        lower_kind=None if region.lower is None else _kind(region.lower.offset),
        upper_kind=None if region.upper is None else _kind(region.upper.offset),
    )


def _kind(offset: int) -> int:
    if offset > 0:
        return LINE_KIND_ABOVE
    if offset == 0:
        return LINE_KIND_ON
    return LINE_KIND_BELOW


def enumerate_shapes() -> List[RegionShape]:
    """Mechanically enumerate the valid region shapes of Section 3.1.

    * zero lines: the single unrestricted shape (*general*);
    * one line: each of the three line kinds bounds the region either
      from below or from above -- six shapes;
    * two lines: a lower line of kind ``k1`` and an upper line of kind
      ``k2`` form a non-empty connected region whenever the lower line
      does not lie strictly above the upper one; the paper's five
      combinations (1,1), (1,2), (1,3)... expressed with its ordering:
      (kind-above, kind-above), (kind-above, kind-on), (kind-above,
      kind-below), (kind-on, kind-below), (kind-below, kind-below).

    Returns twelve shapes in total: eleven specialized plus general.
    """
    shapes: List[RegionShape] = [RegionShape(None, None)]
    for kind in (LINE_KIND_ABOVE, LINE_KIND_ON, LINE_KIND_BELOW):
        shapes.append(RegionShape(lower_kind=kind, upper_kind=None))
        shapes.append(RegionShape(lower_kind=None, upper_kind=kind))
    # Two lines: the lower bound's kind must not exceed the upper bound's
    # position; kinds are ordered ABOVE(+) > ON(0) > BELOW(-) by offset,
    # so a pair (lower_kind, upper_kind) is realizable iff
    # offset(lower) <= offset(upper), i.e. numerically kind(lower) can be
    # paired with any kind(upper) whose offsets can sit above.  Same-kind
    # pairs (ABOVE, ABOVE) and (BELOW, BELOW) are realizable with two
    # distinct offsets of that sign; (ON, ON) would need two distinct
    # zero offsets and is not.
    offset_rank = {LINE_KIND_BELOW: -1, LINE_KIND_ON: 0, LINE_KIND_ABOVE: 1}
    for low, high in itertools.product(
        (LINE_KIND_ABOVE, LINE_KIND_ON, LINE_KIND_BELOW), repeat=2
    ):
        if offset_rank[low] > offset_rank[high]:
            continue
        if low == LINE_KIND_ON and high == LINE_KIND_ON:
            continue
        shapes.append(RegionShape(lower_kind=low, upper_kind=high))
    return shapes


#: Canonical (shape -> paper name) mapping; established in Section 3.1's
#: closing enumeration paragraph ("The result is a total of eleven types
#: of specialized temporal relations").  The *degenerate* relation
#: (``vt = tt``) is the zero-width point region -- two coincident kind-2
#: lines -- which the enumeration deliberately excludes; it appears in
#: the Figure 2 lattice as the meet of strongly retroactively bounded
#: and strongly predictively bounded and is handled as
#: :attr:`OffsetRegion.is_point` rather than as a shape of its own.
SHAPE_NAMES: Dict[RegionShape, str] = {
    RegionShape(None, None): "general",
    RegionShape(None, LINE_KIND_ON): "retroactive",
    RegionShape(None, LINE_KIND_BELOW): "delayed retroactive",
    RegionShape(LINE_KIND_ON, None): "predictive",
    RegionShape(LINE_KIND_ABOVE, None): "early predictive",
    RegionShape(LINE_KIND_BELOW, None): "retroactively bounded",
    RegionShape(None, LINE_KIND_ABOVE): "predictively bounded",
    RegionShape(LINE_KIND_BELOW, LINE_KIND_ON): "strongly retroactively bounded",
    RegionShape(LINE_KIND_BELOW, LINE_KIND_BELOW): "delayed strongly retroactively bounded",
    RegionShape(LINE_KIND_ON, LINE_KIND_ABOVE): "strongly predictively bounded",
    RegionShape(LINE_KIND_ABOVE, LINE_KIND_ABOVE): "early strongly predictively bounded",
    RegionShape(LINE_KIND_BELOW, LINE_KIND_ABOVE): "strongly bounded",
}


def enumerate_regions() -> Dict[str, RegionShape]:
    """The Section 3.1 completeness result as a (name -> shape) table.

    Raises if the mechanical enumeration and the named table disagree,
    so importing this result *is* the completeness check.
    """
    shapes = enumerate_shapes()
    named = dict(SHAPE_NAMES)
    enumerated = set(shapes)
    labelled = set(named)
    if enumerated != labelled:
        missing = enumerated - labelled
        extra = labelled - enumerated
        raise AssertionError(
            f"region enumeration mismatch: unlabelled {missing}, unrealizable {extra}"
        )
    return {name: shape for shape, name in named.items()}
