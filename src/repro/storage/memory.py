"""The storage engine.

Elements live in an append-ordered :class:`SegmentedStore`; event
relations additionally maintain a :class:`ValidTimeEventIndex` and
interval relations an :class:`IntervalTree`.  :meth:`MemoryEngine.select`
is the one read: it picks among those structures from the scan spec
alone.  The durable
:class:`~repro.storage.logfile.LogFileEngine` is this engine with a
write-ahead log in front of every mutation.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.observability import metrics as _metrics
from repro.relation.element import Element
from repro.relation.errors import ElementNotFound
from repro.storage.columnar import ScanSpec, decode_point
from repro.storage.indexes import ValidTimeEventIndex
from repro.storage.interval_tree import IntervalTree
from repro.storage.segments import SegmentedStore
from repro.storage.tiered import TierManager


class MemoryEngine:
    """Append-only bitemporal storage with secondary indexes.

    Elements are appended in strictly increasing insertion-transaction-
    time order (the transaction clock guarantees this).  Logical
    deletion closes an element's existence interval; nothing is ever
    physically removed (Section 2: the historical states are preserved
    so that rollback is possible).

    Every read is one :class:`~repro.storage.columnar.ScanSpec` through
    :meth:`select`.  A pinned spec (``as_of`` set) is safe from other
    threads while a single writer mutates: list appends and element
    replacement are atomic under the GIL, and the pinned predicate
    excludes anything the writer adds or closes after the pin.  A live
    spec is not -- it may read the current-state view or a valid-time
    index, which the writer reorganizes.
    """

    def __init__(
        self,
        segment_size: Optional[int] = None,
        tier_dir: Optional[str] = None,
        tier_manager: Optional["TierManager"] = None,
    ) -> None:
        #: The segmented transaction-time store: :meth:`select` runs every
        #: pinned or declaration-narrowed read on it.
        self.store = SegmentedStore(
            segment_size=segment_size, tier_dir=tier_dir, tier_manager=tier_manager
        )
        self._positions: Dict[int, int] = {}
        self._vt_events: Optional[ValidTimeEventIndex] = None
        self._vt_intervals: Optional[IntervalTree[int]] = None

    def sync(self) -> None:
        """A durability barrier; memory holds nothing to flush."""

    def close(self) -> None:
        """Release tier resources held by the segmented store."""
        self.store.close()

    def _not_found(self, element_surrogate: int) -> ElementNotFound:
        return ElementNotFound(f"no element with surrogate {element_surrogate}")

    # -- validation without mutation ----------------------------------------------
    #
    # The log-file engine must know that a mutation will be accepted
    # *before* making it durable, because the in-memory apply that
    # follows the disk write is not allowed to fail.  These raise
    # exactly what the mutators would, touch nothing, and cover every
    # check the mutators perform.

    def validate_append(self, element: Element) -> None:
        """Raise iff :meth:`append` would; mutates nothing."""
        if element.element_surrogate in self._positions:
            raise ValueError(
                f"element surrogate {element.element_surrogate} already stored"
            )
        self.store.validate_tts([element.tt_start.microseconds])

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
        self.store.validate_tts([element.tt_start.microseconds for element in batch])

    def validate_close(self, element_surrogate: int, tt_stop: Timestamp) -> Element:
        """The element :meth:`close_element` would produce; mutates nothing."""
        position = self._positions.get(element_surrogate)
        if position is None:
            raise self._not_found(element_surrogate)
        return self.store.element_at(position).closed(tt_stop)

    # -- mutation -----------------------------------------------------------------

    def append(self, element: Element) -> None:
        """Store a new element (its ``tt_start`` exceeds all stored ones)."""
        if element.element_surrogate in self._positions:
            raise ValueError(
                f"element surrogate {element.element_surrogate} already stored"
            )
        if _metrics.enabled():
            _metrics.registry().counter("storage.memory.appends").inc()
        position = len(self.store)
        self._positions[element.element_surrogate] = position
        self.store.append(element)
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

        The batch must be in strictly increasing ``tt_start`` order past
        every stored one; returns the number stored.  The store is
        extended with two list extends, event valid times and positions
        are appended to the valid-time index's unsorted tail (the first
        live reader settles it, so a relation that is only read through
        its declared tt window never pays), and interval entries are
        bulk-loaded into the (lazily rebuilt) interval tree.  A batch
        that fails validation leaves the engine untouched.
        """
        batch = list(elements)
        if not batch:
            return 0
        base = len(self.store)
        surrogates = [element.element_surrogate for element in batch]
        fresh = set(surrogates)
        if len(fresh) != len(surrogates) or self._positions.keys() & fresh:
            seen: set = set()
            for surrogate in surrogates:
                if surrogate in self._positions or surrogate in seen:
                    raise ValueError(f"element surrogate {surrogate} already stored")
                seen.add(surrogate)
        # The store validates ordering itself, before mutating anything.
        self.store.extend(batch)
        if _metrics.enabled():
            # Per batch, not per element: amortized accounting keeps the
            # enabled overhead off the bulk-ingest hot path.
            registry = _metrics.registry()
            registry.counter("storage.memory.batch_appends").inc()
            registry.counter("storage.memory.rows_appended").inc(len(batch))
        self._positions.update(zip(surrogates, range(base, base + len(batch))))
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
        """Logically delete an element; returns the closed record."""
        position = self._positions.get(element_surrogate)
        if position is None:
            raise self._not_found(element_surrogate)
        closed = self.store.element_at(position).closed(tt_stop)
        self.store.replace(position, closed)
        return closed

    # -- lookup -------------------------------------------------------------------

    def get(self, element_surrogate: int) -> Element:
        """The (latest) record of the element, or raise :class:`ElementNotFound`."""
        position = self._positions.get(element_surrogate)
        if position is None:
            raise self._not_found(element_surrogate)
        return self.store.element_at(position)

    def scan(self) -> Iterator[Element]:
        """All stored elements, in insertion order (the full bitemporal set)."""
        if _metrics.enabled():
            # One increment per scan call (with the whole length), not
            # per yielded element: scans are always full passes here.
            _metrics.registry().counter("storage.memory.rows_scanned").inc(len(self.store))
        return iter(self.store)

    def __len__(self) -> int:
        """Number of stored elements (including logically deleted ones)."""
        return len(self.store)

    # -- the one read ---------------------------------------------------------------

    def select(self, spec: ScanSpec, stats=None) -> Tuple[List[Element], int]:
        """The elements satisfying *spec*, in tt order, and how many were
        examined -- every read of the engine.

        The spec alone picks the access path:

        * live, full tt window, no vt window -- the store's materialized
          current-state view, O(live);
        * live, full tt window, a vt window -- the valid-time index
          (event index or interval tree), live candidates only;
        * anything else (``spec.kernel_served``: every pinned spec, every
          live spec declarations narrowed) -- :meth:`SegmentedStore.select`:
          bisect, zone-prune, column kernel, late materialization; *stats*
          (a ``SegmentStats``) receives its scanned/pruned counts.

        A read is safe on a reader thread beside the single writer
        exactly when ``spec.as_of`` is set: the first two paths read
        structures the writer reorganizes (the view's dict, the index's
        unsorted tail), the kernel path reads nothing past the pin.
        """
        if spec.kernel_served:
            return self.store.select(spec, stats)
        if spec.vt_lo is None:
            if _metrics.enabled():
                _metrics.registry().counter("storage.memory.current_view_reads").inc()
            found = list(self.store.iter_current())
        else:
            found = self._fetch_live(self._vt_candidates(spec.vt_lo, spec.vt_hi))  # type: ignore[arg-type]
        return found, len(found)

    def _vt_candidates(self, vt_lo: int, vt_hi: int) -> List[int]:
        """Positions whose valid time may meet ``[vt_lo, vt_hi)``."""
        candidates: List[int] = []
        if self._vt_intervals is not None:
            if vt_hi == vt_lo + 1:
                candidates.extend(self._vt_intervals.stab(decode_point(vt_lo)))
            else:
                window = Interval(decode_point(vt_lo), decode_point(vt_hi))
                candidates.extend(self._vt_intervals.overlapping(window))
        if self._vt_events is not None:
            candidates.extend(self._vt_events.between(vt_lo, vt_hi))
        return candidates

    def _fetch_live(self, candidates: List[int]) -> List[Element]:
        """The still-current elements among the valid-time indexes'
        candidate positions, in position order -- append order, so the
        index path yields the same canonical tt order as the kernel.
        Hot rows are tested on the live bitmap and only survivors
        materialize; cold rows (mostly-closed history, rare here)
        materialize to be tested."""
        if _metrics.enabled():
            _metrics.registry().counter("storage.memory.vt_index_hits").inc()
        candidates.sort()
        store = self.store
        columns = store.columns
        base, live = columns.base, columns.live
        cold = bisect_left(candidates, base)
        found = [e for e in store.fetch_elements(0, candidates[:cold]) if e.is_current]
        found += store.fetch_elements(0, [p for p in candidates[cold:] if live[p - base]])
        return found

    # -- introspection ------------------------------------------------------------------

    def mutation_count(self) -> int:
        """Monotone counter advancing on *every* state change.

        Appends, batch extends and logical deletes (including cold-
        segment patches) all advance it.  ``(id(engine),
        mutation_count())`` is the storage half of every epoch key --
        statistics snapshots, plan/result caches -- so an under-count
        serves stale answers.  ``len()`` is deliberately not an
        acceptable substitute: it is delete-blind.
        """
        return self.store.mutations

    @property
    def event_index(self) -> Optional[ValidTimeEventIndex]:
        return self._vt_events

    @property
    def interval_index(self) -> Optional[IntervalTree]:
        return self._vt_intervals

    def index_statistics(self) -> Dict[str, int]:
        """Counters benchmarks read (e.g. in-order append ratio)."""
        stats = {"elements": len(self)}
        stats.update(self.store.statistics())
        if self._vt_events is not None:
            stats["vt_appends_in_order"] = self._vt_events.appended_in_order
            stats["vt_inserts_out_of_order"] = self._vt_events.inserted_out_of_order
        return stats
