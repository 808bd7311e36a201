"""Snapshot caching over a backlog.

Rollback by replay is O(length of log); caching every k-th state makes
it O(k) after a binary search -- the "caching, cache indexing, and
differential techniques" of [JMRS90] in miniature.  Benchmark E12
measures the replay-vs-snapshot trade-off.
"""

from __future__ import annotations

import bisect
from typing import Dict, List

from repro.chronos.timestamp import TimePoint
from repro.relation.element import Element
from repro.storage.backlog import Backlog, OperationKind
from repro.storage.columnar import encode_point


class SnapshotCache:
    """Caches the historical state after every *interval* operations."""

    def __init__(self, backlog: Backlog, interval: int = 64) -> None:
        if interval < 1:
            raise ValueError("snapshot interval must be at least 1")
        self._backlog = backlog
        self._interval = interval
        self._snapshot_tts: List[int] = []  # microseconds, sorted
        self._snapshots: List[Dict[int, Element]] = []
        self._covered = 0  # how many operations have been absorbed

    def refresh(self) -> None:
        """Absorb newly appended operations into the snapshot sequence
        (a backlog only ever grows, so the absorbed prefix stands)."""
        operations = self._backlog.operations
        while self._covered + self._interval <= len(operations):
            upto = self._covered + self._interval
            base: Dict[int, Element] = (
                dict(self._snapshots[-1]) if self._snapshots else {}
            )
            for operation in operations[self._covered : upto]:
                if operation.kind is OperationKind.INSERT:
                    base[operation.element_surrogate] = operation.element  # type: ignore[assignment]
                else:
                    base.pop(operation.element_surrogate, None)
            self._snapshot_tts.append(operations[upto - 1].tt.microseconds)
            self._snapshots.append(base)
            self._covered = upto

    def state_at(self, tt: TimePoint) -> Dict[int, Element]:
        """The historical state at *tt*: nearest snapshot + short replay."""
        self.refresh()
        position = bisect.bisect_right(self._snapshot_tts, encode_point(tt)) - 1
        if position < 0:
            state: Dict[int, Element] = {}
            start_op = 0
        else:
            state = dict(self._snapshots[position])
            start_op = (position + 1) * self._interval
        for operation in self._backlog.operations[start_op:]:
            if operation.tt > tt:
                break
            if operation.kind is OperationKind.INSERT:
                state[operation.element_surrogate] = operation.element  # type: ignore[assignment]
            else:
                state.pop(operation.element_surrogate, None)
        return state

    @property
    def snapshot_count(self) -> int:
        return len(self._snapshots)

    def memory_cost(self) -> int:
        """Total cached entries across snapshots (the space trade-off)."""
        return sum(len(snapshot) for snapshot in self._snapshots)
