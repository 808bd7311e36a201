"""A pinned scan spec beside the single writer.

The library promises that an ``as_of`` spec is safe with no lock on a
thread beside the single writer, so a reader can land between any two
statements of a writer mutation.  (The server no longer reads from
threads: its route reads run on the event loop.)  These replay,
deterministically, each writer step a reader was found able to land
inside, and assert the pinned answer is still the pinned state.
"""

from __future__ import annotations

import sys
import threading

from repro.chronos.timestamp import Timestamp
from repro.relation.element import Element
from repro.storage import segments
from repro.storage.columnar import ScanSpec, StampColumns, positions
from repro.storage.segments import SegmentedStore, ZoneMap
from repro.storage.tiered import TierManager
from tests.storage.test_segments import build_relation, signature


def event(position: int) -> Element:
    return Element(
        element_surrogate=position + 1,
        object_surrogate="o",
        tt_start=Timestamp(10 * position),
        vt=Timestamp(position % 3),
    )


def pinned_at(position: int, spec_class=ScanSpec) -> ScanSpec:
    """Everything stored through *position*, as the pin there sees it."""
    stamp = event(position).tt_start.microseconds
    return spec_class(tt_hi=stamp, as_of=stamp)


def test_a_close_never_leaves_its_zone_looking_dead(monkeypatch):
    """Closing a segment's last live row writes two zone fields; a reader
    testing ``alive_at`` for a pin *before* the close, after either
    write, must still be told to scan the segment."""
    pins = []

    class ProbedZone(ZoneMap):
        def __setattr__(self, name, value):
            super().__setattr__(name, value)
            for pin in pins:
                assert self.alive_at(pin), f"zone reads dead after the write to {name}"

    monkeypatch.setattr(segments, "ZoneMap", ProbedZone)
    relation, clock = build_relation(segment_size=4, count=4)
    stored = relation.all_elements()
    for element in stored[:3]:
        clock.advance_to(Timestamp(clock.peek().ticks + 10))
        relation.delete(element.element_surrogate)
    pins.append(relation.pin_epoch().as_of.microseconds)
    clock.advance_to(Timestamp(clock.peek().ticks + 10))
    relation.delete(stored[3].element_surrogate)
    zone = relation.engine.store.zone_of(0)
    assert zone.live == 0 and zone.max_closed_tt_stop > pins[0]


def test_a_segment_sealing_mid_scan_is_still_scanned():
    """The writer fills the head while a pinned scan is between its
    sealed-segment loop and its head unit: the rows that were the head
    when the scan began are still in the answer."""
    store = SegmentedStore(segment_size=4)
    for position in range(7):  # one sealed segment, a three-row head
        store.append(event(position))

    class WriterLands(ScanSpec):
        def may_match(self, summary):
            if len(store) == 7:
                store.append(event(7))  # seals the head the scan is about to read
            return super().may_match(summary)

    results, examined = store.select(pinned_at(6, WriterLands))
    assert store.sealed_count == 2
    assert signature(results) == signature(event(position) for position in range(7))
    assert examined == 7


def test_a_kernel_pair_taken_before_a_demotion_still_addresses_its_rows(tmp_path):
    """``kernel_view`` hands a reader ``(columns, base)``; the writer may
    demote those very rows before the reader materializes its survivors."""
    tiering = TierManager(str(tmp_path), hot_reserve=100)  # nothing demotes unasked
    store = SegmentedStore(segment_size=4, tier_manager=tiering)
    for position in range(12):
        store.append(event(position))
    spec = pinned_at(11)
    columns, base = store.kernel_view(8, 12)
    store.compact()  # the writer demotes every sealed segment
    survivors = positions(columns, 8 - base, 12 - base, spec)
    assert signature(store.fetch_elements(base, survivors)) == signature(
        event(position) for position in range(8, 12)
    )
    # Every sidecar generation carries its own base.
    assert store.columns.base == store.cold_base
    fresh, fresh_base = store.kernel_view(8, 12)
    assert signature(
        store.fetch_elements(fresh_base, positions(fresh, 8 - fresh_base, 12 - fresh_base, spec))
    ) == signature(event(position) for position in range(8, 12))
    store.close()


def test_reader_projections_do_not_break_a_concurrent_prefix_trim():
    """Reader threads insert sorted projections into the sidecar's cache
    while the writer's demotion walks that cache to carry entries over."""
    columns = StampColumns()
    columns.extend(event(position) for position in range(2048))
    for lo in range(0, 1800, 6):  # a cache large enough that a trim takes a while
        columns.sorted_starts(lo, lo + 4)
    stop = threading.Event()
    failures = []

    def reader() -> None:
        lo = 0
        try:
            while not stop.is_set():
                columns.sorted_starts(lo % 2000, lo % 2000 + 5)
                lo += 7
        except Exception as error:  # noqa: BLE001 - reported by the assertion below
            failures.append(error)

    thread = threading.Thread(target=reader)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread.start()
        for _ in range(300):
            trimmed = columns.without_prefix(8)
            assert trimmed.base == 8 and len(trimmed) == 2040
    except RuntimeError as error:  # "dictionary changed size during iteration"
        failures.append(error)
    finally:
        stop.set()
        thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert not failures, failures


def test_reader_threads_decode_cold_columns_under_one_segment_of_cache(tmp_path):
    """Cold columns decode lazily, after the tier manager handed them
    out: with more reader threads than cached segments, one thread's LRU
    eviction must not close the mapping another is decoding from."""
    tiering = TierManager(str(tmp_path), cache_segments=1, hot_reserve=0)
    store = SegmentedStore(segment_size=4, tier_manager=tiering)
    for position in range(200):
        store.append(event(position))
    spec = ScanSpec.of(Timestamp(1), event(199).tt_start)
    expected = signature(event(position) for position in range(200) if position % 3 == 1)
    failures = []

    def reader() -> None:
        try:
            for _ in range(20):
                assert signature(store.select(spec)[0]) == expected
        except Exception as error:  # noqa: BLE001 - reported by the assertion below
            failures.append(error)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
    finally:
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    store.close()
