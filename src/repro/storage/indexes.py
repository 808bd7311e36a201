"""The valid-time event index, exploiting specializations.

:class:`ValidTimeEventIndex` is a sorted projection of event valid
times onto store positions.  When the relation is declared
*non-decreasing* or *sequential* (Section 3.2), insertions arrive
already sorted and the index degenerates to an append -- the "valid
time can be approximated with transaction time" payoff; otherwise bulk
writers leave an unsorted tail that the first reader settles.
(Transaction-time access needs no index: elements arrive in increasing
``tt_start`` order, so the :class:`~repro.storage.segments.SegmentedStore`
bisects its stamp run.)
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Sequence

from repro.observability import metrics as _metrics
from repro.storage.columnar import NEG_SENTINEL


class ValidTimeEventIndex:
    """Sorted projection of event valid times onto store positions.

    Two parallel ``array('q')`` runs ordered by ``(vt, position)`` plus an
    unsorted *tail*.  Writers never merge: a bulk :meth:`extend` appends
    its keys and positions to the tail (or straight to the run when the
    batch arrives in order -- the declared non-decreasing / sequential
    case), and the first reader after it settles the tail once.  A
    relation whose declarations route every read through the
    transaction-time window therefore never pays for this index at all.
    Single-row :meth:`add` stays eager: an append when in order, a
    ``bisect`` + ``insert`` otherwise.

    ``appended_in_order`` / ``inserted_out_of_order`` count rows by how
    they arrived (at or after every earlier key, or not) so benchmarks
    can verify the claimed degenerate-to-append behaviour.
    """

    def __init__(self) -> None:
        self._keys = array("q")
        self._positions = array("q")
        self._tail_keys = array("q")
        self._tail_positions = array("q")
        self._max = NEG_SENTINEL  # over the run and the tail
        self.appended_in_order = 0
        self.inserted_out_of_order = 0

    def add(self, key: int, position: int) -> None:
        """Index one row eagerly (*position* exceeds every stored one)."""
        if self._tail_keys:
            self._settle()
        if key >= self._max:
            self._max = key
            self._keys.append(key)
            self._positions.append(position)
            self.appended_in_order += 1
            return
        at = bisect_right(self._keys, key)
        self._keys.insert(at, key)
        self._positions.insert(at, position)
        self.inserted_out_of_order += 1

    def extend(self, keys: Sequence[int], positions: Sequence[int]) -> None:
        """Index a batch (ascending *positions* past every stored one) in
        O(batch): no pass over the rows already indexed."""
        if not keys:
            return
        ordered = sorted(keys)
        if ordered[0] >= self._max and ordered == list(keys):
            self.appended_in_order += len(keys)
            self._max = ordered[-1]
            if not self._tail_keys:
                self._keys.extend(keys)
                self._positions.extend(positions)
                return
        else:
            self.inserted_out_of_order += len(keys)
            self._max = max(self._max, ordered[-1])
        self._tail_keys.extend(keys)
        self._tail_positions.extend(positions)

    def _settle(self) -> None:
        """Fold the tail into the sorted run: an append when it lands at
        or after the run's maximum, otherwise one in-place merge."""
        # Tail positions ascend, so sorting the pairs is (vt, position)
        # order and later rows follow stored ones among equal keys.
        pairs = sorted(zip(self._tail_keys, self._tail_positions))
        tail_keys, tail_positions = (array("q", column) for column in zip(*pairs))
        self._tail_keys = array("q")
        self._tail_positions = array("q")
        if _metrics.enabled():
            registry = _metrics.registry()
            registry.counter("storage.memory.vt_index_settles").inc()
            registry.counter("storage.memory.vt_index_settled_rows").inc(len(pairs))
        keys = self._keys
        if not keys or tail_keys[0] >= keys[-1]:
            keys.extend(tail_keys)
            self._positions.extend(tail_positions)
            return
        # Grow both columns once, then walk the tail from the back: each
        # row bisects the not-yet-placed run prefix and shifts the slice
        # above its cut into final place (a memmove; every run row moves
        # at most once), so nothing is done per row of the existing run.
        positions = self._positions
        unplaced = len(keys)
        keys.extend(tail_keys)
        positions.extend(tail_positions)
        with memoryview(keys) as key_view, memoryview(positions) as position_view:
            for shift in range(len(tail_keys) - 1, -1, -1):
                key = tail_keys[shift]
                cut = bisect_right(keys, key, 0, unplaced)
                if cut < unplaced:
                    key_view[cut + shift + 1 : unplaced + shift + 1] = key_view[cut:unplaced]
                    position_view[cut + shift + 1 : unplaced + shift + 1] = position_view[cut:unplaced]
                    unplaced = cut
                key_view[cut + shift] = key
                position_view[cut + shift] = tail_positions[shift]

    def at(self, key: int) -> array:
        """Positions of the rows with exactly this valid time, ascending."""
        return self.between(key, key + 1)

    def between(self, low: int, high: int) -> array:
        """Positions of the rows with ``low <= vt < high`` (half-open,
        like intervals), in ``(vt, position)`` order."""
        if self._tail_keys:
            self._settle()
        start = bisect_left(self._keys, low)
        return self._positions[start : bisect_left(self._keys, high, start)]

    def __len__(self) -> int:
        return len(self._keys) + len(self._tail_keys)
