"""Physical operators.

Each operator returns ``(results, examined)`` where *examined* counts
the stored elements it touched -- the work metric the benchmarks report
alongside wall-clock time.

Every planned temporal read -- rollback prefixes, degenerate points and
ticks, bounded windows, bitemporal slices, current states, timeslices
under a declared ordering or none -- is one
:class:`~repro.storage.columnar.ScanSpec` handed to
:meth:`MemoryEngine.select <repro.storage.memory.MemoryEngine.select>`,
which picks the access path from the spec.  The window is derived from
the declared offset region (:func:`repro.query.planner.windowed`);
callers pass a :class:`SegmentStats` to receive the scanned/pruned
counts ``explain()`` reports.  What remains here are the reference full
scans benchmarks and tests compare against, and the merge joins
declared orderings license.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.chronos.timestamp import TimePoint, Timestamp
from repro.relation.element import Element
from repro.relation.temporal_relation import TemporalRelation

Result = Tuple[List[Element], int]


@dataclass
class SegmentStats:
    """Zone-map accounting for one operator execution.

    ``scanned`` + ``pruned`` is the number of segments the candidate
    transaction-time range overlapped; ``pruned`` of them were skipped
    on zone-map evidence alone.  ``positions_examined`` /
    ``materialized`` record how many column rows the kernel tested
    versus how many ``Element`` objects were actually built for the
    answer -- the late-materialization ratio ``explain()`` surfaces.
    """

    scanned: int = 0
    pruned: int = 0
    positions_examined: int = 0
    materialized: int = 0
    #: Work units served from the cold tier (compressed segment files)
    #: rather than in-memory state -- the tiered-storage accounting.
    cold_segments: int = 0


# -- baseline -------------------------------------------------------------------


def timeslice_full_scan(relation: TemporalRelation, vt: Timestamp) -> Result:
    """Examine every stored element (the reference strategy)."""
    matches = []
    examined = 0
    for element in relation.engine.scan():
        examined += 1
        if element.is_current and element.valid_at(vt):
            matches.append(element)
    return matches, examined


def rollback_full_scan(relation: TemporalRelation, tt: TimePoint) -> Result:
    matches = []
    examined = 0
    for element in relation.engine.scan():
        examined += 1
        if element.stored_during(tt):
            matches.append(element)
    return matches, examined


def merge_join_events(
    left_relation: TemporalRelation,
    right_relation: TemporalRelation,
    condition,
) -> Tuple[List[Tuple[Element, Element]], int]:
    """Sort-merge valid-time join of two *non-decreasing* event relations.

    When both inputs are declared non-decreasing (or sequential), their
    current elements are already valid-time-sorted in transaction
    order, so the equality join on event stamps runs in one merge pass
    -- O(n + m + matches) instead of the nested loop's O(n * m).
    Runs of equal stamps cross-product, as they must.

    Inputs come from ``relation.current()`` -- O(live) via the
    materialized current-state view, instead of filtering full history.
    """
    left = left_relation.current()
    right = right_relation.current()
    pairs: List[Tuple[Element, Element]] = []
    examined = len(left) + len(right)
    i = j = 0
    while i < len(left) and j < len(right):
        left_vt = left[i].vt
        right_vt = right[j].vt
        if left_vt < right_vt:  # type: ignore[operator]
            i += 1
        elif right_vt < left_vt:  # type: ignore[operator]
            j += 1
        else:
            # Collect both runs of this stamp, cross product them.
            run_end_left = i
            while run_end_left < len(left) and left[run_end_left].vt == left_vt:
                run_end_left += 1
            run_end_right = j
            while run_end_right < len(right) and right[run_end_right].vt == left_vt:
                run_end_right += 1
            for l_element in left[i:run_end_left]:
                for r_element in right[j:run_end_right]:
                    if condition(l_element, r_element):
                        pairs.append((l_element, r_element))
            i, j = run_end_left, run_end_right
    return pairs, examined


def merge_join_intervals(
    left_relation: TemporalRelation,
    right_relation: TemporalRelation,
    condition,
) -> Tuple[List[Tuple[Element, Element]], int]:
    """Plane-sweep overlap join of two *non-decreasing* interval relations.

    With both inputs' current intervals sorted by start (which the
    non-decreasing declaration guarantees along transaction order), the
    classic sweep emits every overlapping pair in
    O(n + m + matches): advance whichever side ends first; on each
    step, pair the advanced interval with the open intervals of the
    other side.

    This implementation keeps the sweep simple by probing forward from
    the current frontier -- work stays proportional to matches for the
    common case of bounded overlap fan-out.

    Inputs come from ``relation.current()`` -- O(live) via the
    materialized current-state view, instead of filtering full history.
    """
    left = left_relation.current()
    right = right_relation.current()
    pairs: List[Tuple[Element, Element]] = []
    examined = len(left) + len(right)
    frontier = 0
    for l_element in left:
        l_interval = l_element.vt
        # Rights ending at or before this left's start can never overlap
        # any later left either (left starts are non-decreasing), so the
        # frontier advances permanently.
        while frontier < len(right) and right[frontier].vt.end <= l_interval.start:  # type: ignore[union-attr]
            frontier += 1
        for r_element in right[frontier:]:
            r_interval = r_element.vt
            if r_interval.start >= l_interval.end:  # type: ignore[union-attr]
                break  # right starts are sorted; nothing further overlaps
            examined += 1
            if r_interval.end > l_interval.start and condition(l_element, r_element):  # type: ignore[union-attr]
                pairs.append((l_element, r_element))
    return pairs, examined
