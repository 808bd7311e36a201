"""A centered interval tree for valid-time interval queries.

Used by the general (unspecialized) engine path for stabbing ("which
facts were true at v?") and overlap ("which facts were true some time
during [a, b)?") queries over interval-stamped relations.  The tree is
the classic centered construction: each node stores the intervals
containing its center, sorted by both endpoints, giving
O(log n + k) stabbing queries.

The first query builds the tree from whatever has accumulated; after
that, single appends insert **incrementally** -- descend by center and
either join a node's spanning lists or grow a new leaf -- so an
append/query workload no longer rebuilds the whole tree per mutation.
A leaf that lands deeper than twice the bit length of the item count
rebuilds the highest subtree on its path that one child dominates (a
scapegoat rebuild), so in-order appends -- each starting past every
center -- cannot grow a chain.  Bulk loads into an already-built tree
insert the same way; bulk loads into an empty (or never-queried) tree
just accumulate and build once on the next query.  ``rebuilds`` counts
full builds for regression tests.
"""

from __future__ import annotations

from typing import Generic, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.chronos.interval import Interval
from repro.chronos.timestamp import TimePoint
from repro.storage.columnar import encode_point

Payload = TypeVar("Payload")

def _insort_by_start(items: List[Tuple[int, int, "Payload"]], item: Tuple[int, int, "Payload"]) -> None:
    """Insert keeping ascending start order, after equal starts (the
    position a stable sort of the appended list would give).  Manual
    binary search: ``bisect`` only grew a ``key=`` parameter in 3.10."""
    key = item[0]
    lo, hi = 0, len(items)
    while lo < hi:
        mid = (lo + hi) // 2
        if items[mid][0] <= key:
            lo = mid + 1
        else:
            hi = mid
    items.insert(lo, item)


def _insort_by_end_desc(items: List[Tuple[int, int, "Payload"]], item: Tuple[int, int, "Payload"]) -> None:
    """Insert keeping descending end order, after equal ends."""
    key = item[1]
    lo, hi = 0, len(items)
    while lo < hi:
        mid = (lo + hi) // 2
        if items[mid][1] >= key:
            lo = mid + 1
        else:
            hi = mid
    items.insert(lo, item)


class _Node(Generic[Payload]):
    __slots__ = ("center", "by_start", "by_end", "left", "right", "size")

    def __init__(
        self,
        center: int,
        spanning: List[Tuple[int, int, Payload]],
        left: Optional["_Node[Payload]"],
        right: Optional["_Node[Payload]"],
    ) -> None:
        self.center = center
        self.by_start = sorted(spanning, key=lambda item: item[0])
        self.by_end = sorted(spanning, key=lambda item: item[1], reverse=True)
        self.left = left
        self.right = right
        #: Items in this subtree (the scapegoat rebuild's balance test).
        self.size = len(spanning) + (left.size if left else 0) + (right.size if right else 0)

    def items(self) -> Iterator[Tuple[int, int, Payload]]:
        """Every item in this subtree."""
        stack: List[Optional[_Node[Payload]]] = [self]
        while stack:
            node = stack.pop()
            if node is not None:
                yield from node.by_start
                stack.append(node.left)
                stack.append(node.right)


class IntervalTree(Generic[Payload]):
    """Centered interval tree over half-open intervals."""

    def __init__(self) -> None:
        self._items: List[Tuple[int, int, Payload]] = []
        self._root: Optional[_Node[Payload]] = None
        self._dirty = False
        #: Full builds performed (regression-tested: appends after the
        #: first query must insert incrementally, not trigger rebuilds).
        self.rebuilds = 0

    def add(self, interval: Interval, payload: Payload) -> None:
        item = (encode_point(interval.start), encode_point(interval.end), payload)
        self._items.append(item)
        if self._root is not None and not self._dirty:
            self._insert(item)
        else:
            self._dirty = True

    def bulk_load(self, items: Iterable[Tuple[Interval, Payload]]) -> None:
        for interval, payload in items:
            self.add(interval, payload)

    def __len__(self) -> int:
        return len(self._items)

    # -- queries ---------------------------------------------------------------

    def stab(self, point: TimePoint) -> Iterator[Payload]:
        """Payloads of intervals containing *point* (half-open)."""
        self._ensure_built()
        coordinate = encode_point(point)
        node = self._root
        while node is not None:
            if coordinate < node.center:
                for start, _end, payload in node.by_start:
                    if start > coordinate:
                        break
                    yield payload
                node = node.left
            elif coordinate > node.center:
                for _start, end, payload in node.by_end:
                    if end <= coordinate:
                        break
                    yield payload
                node = node.right
            else:
                for start, _end, payload in node.by_start:
                    yield payload
                node = None

    def overlapping(self, window: Interval) -> Iterator[Payload]:
        """Payloads of intervals sharing at least a point with *window*."""
        self._ensure_built()
        low, high = encode_point(window.start), encode_point(window.end)
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            if high <= node.center:
                # Only spanning intervals starting before `high` can
                # overlap; the right subtree starts past the center.
                for start, _end, payload in node.by_start:
                    if start >= high:
                        break
                    yield payload
                stack.append(node.left)
            elif low > node.center:
                for _start, end, payload in node.by_end:
                    if end <= low:
                        break
                    yield payload
                stack.append(node.right)
            else:
                for _start, _end, payload in node.by_start:
                    yield payload
                stack.append(node.left)
                stack.append(node.right)

    # -- construction -------------------------------------------------------------

    def _ensure_built(self) -> None:
        if self._dirty or (self._root is None and self._items):
            self._root = self._build(self._items)
            self._dirty = False
            self.rebuilds += 1

    def _insert(self, item: Tuple[int, int, Payload]) -> None:
        """Place one item into the built tree without a full rebuild.

        Descend exactly the partition rule :meth:`_build` uses; an item
        spanning a node's center joins that node's sorted lists at the
        position a stable re-sort would have given it, and an item that
        falls off the frontier grows a new leaf whose center it spans --
        so every node keeps the invariant ``start <= center < end`` for
        its spanning intervals, which is all the queries rely on.  A
        leaf deeper than ``2 * bit_length(n)`` triggers
        :meth:`_rebuild_scapegoat`.
        """
        start, end, _payload = item
        assert self._root is not None
        path = [self._root]
        while True:
            node = path[-1]
            node.size += 1
            if end <= node.center:
                if node.left is None:
                    node.left = _Node((start + end) // 2, [item], None, None)
                    path.append(node.left)
                    break
                path.append(node.left)
            elif start > node.center:
                if node.right is None:
                    node.right = _Node((start + end) // 2, [item], None, None)
                    path.append(node.right)
                    break
                path.append(node.right)
            else:
                _insort_by_start(node.by_start, item)
                _insort_by_end_desc(node.by_end, item)
                return
        if len(path) > 2 * len(self._items).bit_length():
            self._rebuild_scapegoat(path)

    def _rebuild_scapegoat(self, path: List[_Node[Payload]]) -> None:
        """Rebuild the highest node on *path* (root to new leaf) whose
        child on the path holds more than three quarters of its subtree.

        A path with no such node is already balanced enough: its depth
        is within ``log_4/3(n)``.  Not a full build, so ``rebuilds``
        does not count it.
        """
        for depth in range(len(path) - 1):
            node = path[depth]
            if 4 * path[depth + 1].size > 3 * node.size:
                rebuilt = self._build(list(node.items()))
                if depth == 0:
                    self._root = rebuilt
                elif path[depth - 1].left is node:
                    path[depth - 1].left = rebuilt
                else:
                    path[depth - 1].right = rebuilt
                return

    def _build(
        self, items: Sequence[Tuple[int, int, Payload]]
    ) -> Optional[_Node[Payload]]:
        if not items:
            return None
        # The midpoint between the least start and the greatest end keeps
        # the spanning invariant (start <= center < end for every node
        # interval) and guarantees progress: the interval realizing the
        # greatest end never goes left, the one realizing the least start
        # never goes right, so both recursions strictly shrink.
        least_start = min(start for start, _end, _payload in items)
        greatest_end = max(end for _start, end, _payload in items)
        center = (least_start + greatest_end) // 2
        left_items: List[Tuple[int, int, Payload]] = []
        right_items: List[Tuple[int, int, Payload]] = []
        spanning: List[Tuple[int, int, Payload]] = []
        for item in items:
            start, end, _payload = item
            if end <= center:
                left_items.append(item)
            elif start > center:
                right_items.append(item)
            else:
                spanning.append(item)
        return _Node(center, spanning, self._build(left_items), self._build(right_items))
