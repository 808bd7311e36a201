"""Secondary indexes exploiting append order and specializations.

* :class:`TransactionTimeIndex` -- elements arrive in increasing
  ``tt_start`` order, so rollback candidates form a prefix found by
  binary search (no B-tree needed; this is the paper's observation that
  append-only relations make transaction-time access cheap).
* :class:`ValidTimeEventIndex` -- a sorted secondary index on event
  valid times.  When the relation is declared *non-decreasing* or
  *sequential* (Section 3.2), insertions arrive already sorted and the
  index degenerates to an append -- the "valid time can be approximated
  with transaction time" payoff.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Iterator, List, Optional, Sequence

from repro.chronos.timestamp import TimePoint, Timestamp
from repro.relation.element import Element
from repro.storage.segments import SegmentedStore
from repro.storage.tiered import TierManager


class TransactionTimeIndex:
    """Binary-searchable run of insertion transaction times.

    Backed by a :class:`~repro.storage.segments.SegmentedStore`, so the
    same structure serves both the classic prefix/window binary searches
    and the segment-at-a-time consumers (zone-map pruning, the
    materialized current-state view).
    """

    def __init__(
        self,
        segment_size: Optional[int] = None,
        tier_dir: Optional[str] = None,
        tier_manager: Optional["TierManager"] = None,
    ) -> None:
        self._store = SegmentedStore(
            segment_size=segment_size, tier_dir=tier_dir, tier_manager=tier_manager
        )

    @property
    def store(self) -> SegmentedStore:
        """The underlying segmented store (zone maps, current view)."""
        return self._store

    def append(self, element: Element) -> None:
        self._store.append(element)

    def extend(self, batch: Sequence[Element]) -> None:
        """Append a whole batch with one ordering pass, no per-element
        method dispatch.  Validates before mutating, so a bad batch
        leaves the index untouched."""
        self._store.extend(batch)

    def replace(self, position: int, element: Element) -> None:
        """Swap in a closed version of the element at *position*."""
        self._store.replace(position, element)

    def prefix_through(self, tt: TimePoint) -> Iterator[Element]:
        """Elements inserted at or before *tt* (rollback candidates)."""
        if isinstance(tt, Timestamp):
            yield from self._store.elements_range(0, self._store.position_right(tt.microseconds))
        elif tt.is_positive:  # FOREVER
            yield from self._store
        # NEGATIVE_INFINITY: empty prefix

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Element]:
        return iter(self._store)

    def element_at(self, position: int) -> Element:
        return self._store.element_at(position)


class ValidTimeEventIndex:
    """Sorted index over event valid times.

    Tracks whether every insertion arrived in non-decreasing valid-time
    order; for declared sequential/non-decreasing relations this stays
    true and each insertion is a pure append.  ``appended_in_order`` is
    exposed so benchmarks can verify the claimed behaviour.
    """

    def __init__(self) -> None:
        self._keys: List[int] = []
        self._elements: List[Element] = []
        self.appended_in_order = 0
        self.inserted_out_of_order = 0

    def add(self, element: Element) -> None:
        key = element.vt.microseconds  # type: ignore[union-attr]
        if not self._keys or key >= self._keys[-1]:
            self._keys.append(key)
            self._elements.append(element)
            self.appended_in_order += 1
            return
        position = bisect.bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self._elements.insert(position, element)
        self.inserted_out_of_order += 1

    def extend(self, batch: Sequence[Element]) -> None:
        """Index a whole batch in one pass.

        Sorted batches arriving at or after the current maximum key (the
        declared non-decreasing / sequential case) degenerate to two
        list extends; anything else is one merge of the existing sorted
        run with the sorted batch -- O(n + k) instead of the O(k·n)
        worst case of k repeated ``insert`` calls.
        """
        if not batch:
            return
        keys = [element.vt._micro for element in batch]  # type: ignore[union-attr]
        ordered = sorted(keys)
        if keys == ordered:
            if not self._keys or keys[0] >= self._keys[-1]:
                self._keys.extend(keys)
                self._elements.extend(batch)
                self.appended_in_order += len(batch)
                return
            keyed = list(zip(keys, batch))
        else:
            # Stable, and never compares elements: ties keep batch order.
            keyed = sorted(zip(keys, batch), key=itemgetter(0))
        if not self._keys:
            self._keys = ordered
            self._elements = [element for _key, element in keyed]
            self.inserted_out_of_order += len(batch)
            return
        # Stable sort of two concatenated sorted runs is a single merge
        # pass for timsort, and keeps existing elements first among equal
        # keys -- matching the bisect_right behaviour of repeated single
        # inserts.
        merged = list(zip(self._keys, self._elements))
        merged.extend(keyed)
        merged.sort(key=itemgetter(0))
        self._keys = [key for key, _element in merged]
        self._elements = [element for _key, element in merged]
        self.inserted_out_of_order += len(batch)

    def at(self, vt: Timestamp) -> Iterator[Element]:
        """All elements with exactly this valid time."""
        key = vt.microseconds
        position = bisect.bisect_left(self._keys, key)
        while position < len(self._keys) and self._keys[position] == key:
            yield self._elements[position]
            position += 1

    def between(self, low: Timestamp, high: Timestamp) -> Iterator[Element]:
        """Elements with ``low <= vt < high`` (half-open, like intervals)."""
        start = bisect.bisect_left(self._keys, low.microseconds)
        stop = bisect.bisect_left(self._keys, high.microseconds)
        yield from self._elements[start:stop]

    def __len__(self) -> int:
        return len(self._elements)
