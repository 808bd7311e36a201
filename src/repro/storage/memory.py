"""The in-memory tuple-store engine.

Elements live in an append-ordered :class:`TransactionTimeIndex`; event
relations additionally maintain a :class:`ValidTimeEventIndex` and
interval relations an :class:`IntervalTree`, giving the physical
operators the planner chooses among.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional

from repro.chronos.interval import Interval
from repro.chronos.timestamp import TimePoint, Timestamp
from repro.observability import metrics as _metrics
from repro.relation.element import Element
from repro.storage.base import StorageEngine
from repro.storage.columnar import ScanSpec, encode_point
from repro.storage.indexes import TransactionTimeIndex, ValidTimeEventIndex
from repro.storage.interval_tree import IntervalTree
from repro.storage.tiered import TierManager


class MemoryEngine(StorageEngine):
    """Append-ordered in-memory storage with secondary indexes.

    Epoch-pinned reads (rollback prefixes and ``as_of`` scan specs over
    the append-only store) are safe from other threads while a single
    writer mutates: list appends and element replacement are atomic
    under the GIL, and the pinned predicate excludes anything the writer
    adds or closes after the pin.  Only the *pinned* read paths carry
    this guarantee -- current-view iteration and the valid-time indexes
    (whose live reads settle a pending tail) do not.
    """

    def __init__(
        self,
        maintain_vt_index: bool = True,
        segment_size: Optional[int] = None,
        tier_dir: Optional[str] = None,
        tier_manager: Optional["TierManager"] = None,
    ) -> None:
        self._tt_index = TransactionTimeIndex(
            segment_size=segment_size, tier_dir=tier_dir, tier_manager=tier_manager
        )
        self._positions: Dict[int, int] = {}
        self._maintain_vt_index = maintain_vt_index
        self._vt_events: Optional[ValidTimeEventIndex] = None
        self._vt_intervals: Optional[IntervalTree[int]] = None

    def close(self) -> None:
        """Release tier resources held by the segmented store."""
        self._tt_index.store.close()

    # -- validation without mutation ----------------------------------------------
    #
    # The write-then-apply engines (the log-file WAL) must know that a
    # mutation will be accepted *before* making it durable, because the
    # in-memory apply that follows the disk write is not allowed to
    # fail.  These raise exactly what the mutators would, touch nothing,
    # and cover every check the mutators perform.

    def validate_append(self, element: Element) -> None:
        """Raise iff :meth:`append` would; mutates nothing."""
        if element.element_surrogate in self._positions:
            raise ValueError(
                f"element surrogate {element.element_surrogate} already stored"
            )
        self._tt_index.store.validate_tts([element.tt_start.microseconds])

    def validate_extend(self, batch: Iterable[Element]) -> None:
        """Raise iff :meth:`extend` would reject the batch; mutates nothing."""
        batch = list(batch)
        if not batch:
            return
        surrogates = [element.element_surrogate for element in batch]
        fresh = set(surrogates)
        if len(fresh) != len(surrogates) or self._positions.keys() & fresh:
            seen: set = set()
            for surrogate in surrogates:
                if surrogate in self._positions or surrogate in seen:
                    raise ValueError(f"element surrogate {surrogate} already stored")
                seen.add(surrogate)
        self._tt_index.store.validate_tts(
            [element.tt_start.microseconds for element in batch]
        )

    def validate_close(self, element_surrogate: int, tt_stop: Timestamp) -> Element:
        """The element :meth:`close_element` would produce; mutates nothing."""
        position = self._positions.get(element_surrogate)
        if position is None:
            raise self._not_found(element_surrogate)
        return self._tt_index.element_at(position).closed(tt_stop)

    # -- mutation -----------------------------------------------------------------

    def append(self, element: Element) -> None:
        if element.element_surrogate in self._positions:
            raise ValueError(
                f"element surrogate {element.element_surrogate} already stored"
            )
        if _metrics.enabled():
            _metrics.registry().counter("storage.memory.appends").inc()
        position = len(self._tt_index)
        self._positions[element.element_surrogate] = position
        self._tt_index.append(element)
        if not self._maintain_vt_index:
            return
        if isinstance(element.vt, Interval):
            if self._vt_intervals is None:
                self._vt_intervals = IntervalTree()
            self._vt_intervals.add(element.vt, position)
        else:
            if self._vt_events is None:
                self._vt_events = ValidTimeEventIndex()
            self._vt_events.add(element.vt.microseconds, position)

    def extend(self, elements: Iterable[Element]) -> int:
        """Bulk append: one validation pass, then O(batch) index work.

        The transaction-time index is extended with two list extends,
        event valid times and positions are appended to the valid-time
        index's unsorted tail (the first live reader settles it, so a
        relation that is only read through its declared tt window never
        pays), and interval entries are bulk-loaded into the (lazily
        rebuilt) interval tree.  A batch that fails validation leaves the
        engine untouched.
        """
        batch = list(elements)
        if not batch:
            return 0
        base = len(self._tt_index)
        surrogates = [element.element_surrogate for element in batch]
        fresh = set(surrogates)
        if len(fresh) != len(surrogates) or self._positions.keys() & fresh:
            seen: set = set()
            for surrogate in surrogates:
                if surrogate in self._positions or surrogate in seen:
                    raise ValueError(f"element surrogate {surrogate} already stored")
                seen.add(surrogate)
        # The tt index validates ordering itself, before mutating anything.
        self._tt_index.extend(batch)
        if _metrics.enabled():
            # Per batch, not per element: amortized accounting keeps the
            # enabled overhead off the bulk-ingest hot path.
            registry = _metrics.registry()
            registry.counter("storage.memory.batch_appends").inc()
            registry.counter("storage.memory.rows_appended").inc(len(batch))
        self._positions.update(zip(surrogates, range(base, base + len(batch))))
        if not self._maintain_vt_index:
            return len(batch)
        event_keys: List[int] = []
        event_positions: List[int] = []
        interval_items = []
        for position, element in enumerate(batch, base):
            vt = element.vt
            if isinstance(vt, Interval):
                interval_items.append((vt, position))
            else:
                event_keys.append(vt._micro)
                event_positions.append(position)
        if interval_items:
            if self._vt_intervals is None:
                self._vt_intervals = IntervalTree()
            self._vt_intervals.bulk_load(interval_items)
        if event_keys:
            if self._vt_events is None:
                self._vt_events = ValidTimeEventIndex()
            self._vt_events.extend(event_keys, event_positions)
        return len(batch)

    def close_element(self, element_surrogate: int, tt_stop: Timestamp) -> Element:
        position = self._positions.get(element_surrogate)
        if position is None:
            raise self._not_found(element_surrogate)
        closed = self._tt_index.element_at(position).closed(tt_stop)
        self._tt_index.replace(position, closed)
        return closed

    # -- lookup -------------------------------------------------------------------

    def get(self, element_surrogate: int) -> Element:
        position = self._positions.get(element_surrogate)
        if position is None:
            raise self._not_found(element_surrogate)
        return self._tt_index.element_at(position)

    def scan(self) -> Iterator[Element]:
        if _metrics.enabled():
            # One increment per scan call (with the whole length), not
            # per yielded element: scans are always full passes here.
            _metrics.registry().counter("storage.memory.rows_scanned").inc(
                len(self._tt_index)
            )
        return iter(self._tt_index)

    def __len__(self) -> int:
        return len(self._tt_index)

    def current(self) -> Iterator[Element]:
        """O(live) via the store's materialized current-state view."""
        if _metrics.enabled():
            _metrics.registry().counter("storage.memory.current_view_reads").inc()
        return self._tt_index.store.iter_current()

    # -- temporal access, exploiting indexes -----------------------------------------

    def as_of(self, tt: TimePoint) -> Iterator[Element]:
        """Rollback via binary search on the append-ordered tt index."""
        return (
            element
            for element in self._tt_index.prefix_through(tt)
            if element.stored_during(tt)
        )

    def _kernel_read(self, spec: ScanSpec) -> List[Element]:
        """A read the valid-time indexes cannot serve (a rollback state,
        or indexing off): the column kernel over the whole tt range --
        :meth:`TemporalRelation.valid_at` narrows by declaration first."""
        if _metrics.enabled():
            _metrics.registry().counter("storage.memory.vt_index_misses").inc()
        return self._tt_index.store.select(spec)[0]

    def _fetch_live(self, candidates: List[int]) -> Iterator[Element]:
        """The still-current elements among the valid-time indexes'
        candidate positions, in position order -- append order, so the
        index path yields the same canonical tt order as the kernel.
        Hot rows are tested on the live bitmap and only survivors
        materialize; cold rows (mostly-closed history, rare here)
        materialize to be tested."""
        if _metrics.enabled():
            _metrics.registry().counter("storage.memory.vt_index_hits").inc()
        candidates.sort()
        store = self._tt_index.store
        columns = store.columns
        base, live = columns.base, columns.live
        cold = bisect_left(candidates, base)
        found = [e for e in store.fetch_elements(0, candidates[:cold]) if e.is_current]
        found += store.fetch_elements(0, [p for p in candidates[cold:] if live[p - base]])
        return iter(found)

    def valid_at(
        self, vt: Timestamp, as_of_tt: Optional[TimePoint] = None
    ) -> Iterator[Element]:
        if as_of_tt is not None or not self._maintain_vt_index:
            return iter(self._kernel_read(ScanSpec.of(vt, as_of_tt)))
        candidates: List[int] = []
        if self._vt_intervals is not None:
            candidates.extend(self._vt_intervals.stab(vt))
        if self._vt_events is not None:
            candidates.extend(self._vt_events.at(vt.microseconds))
        return self._fetch_live(candidates)

    def valid_overlapping(
        self, window: Interval, as_of_tt: Optional[TimePoint] = None
    ) -> Iterator[Element]:
        if as_of_tt is not None or not self._maintain_vt_index:
            return iter(self._kernel_read(ScanSpec.of(window, as_of_tt)))
        candidates: List[int] = []
        if self._vt_intervals is not None:
            candidates.extend(self._vt_intervals.overlapping(window))
        if self._vt_events is not None:
            # Sentinel-encoded bounds bracket an unbounded window too.
            candidates.extend(
                self._vt_events.between(encode_point(window.start), encode_point(window.end))
            )
        return self._fetch_live(candidates)

    # -- introspection ------------------------------------------------------------------

    @property
    def transaction_index(self) -> TransactionTimeIndex:
        return self._tt_index

    def mutation_count(self) -> int:
        """The segmented store's mutation counter: appends, extends,
        and delete patches (including cold-segment ones) all advance
        it."""
        return self._tt_index.store.mutations

    @property
    def event_index(self) -> Optional[ValidTimeEventIndex]:
        return self._vt_events

    @property
    def interval_index(self) -> Optional[IntervalTree]:
        return self._vt_intervals

    @property
    def has_vt_index(self) -> bool:
        """Whether valid-time indexing is on (capability, not whether an
        index has materialized yet -- an empty engine still counts)."""
        return self._maintain_vt_index

    def index_statistics(self) -> Dict[str, int]:
        """Counters benchmarks read (e.g. in-order append ratio)."""
        stats = {"elements": len(self)}
        stats.update(self._tt_index.store.statistics())
        if self._vt_events is not None:
            stats["vt_appends_in_order"] = self._vt_events.appended_in_order
            stats["vt_inserts_out_of_order"] = self._vt_events.inserted_out_of_order
        return stats
