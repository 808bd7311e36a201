"""Tiered storage: compressed segment files, cold reads, compaction.

Three layers of assurance, mirroring the storage design:

* the ``.seg`` codec round-trips exactly (values AND reprs -- the
  differential suites compare reprs, so granularity must survive);
* tiered stores answer every query surface byte-identically to flat
  in-memory stores, with vacuum and compaction interleaved (Hypothesis);
* a compaction rewrite torn at ANY byte offset recovers to a consistent
  segment set with unchanged answers (the crash matrix).
"""

from __future__ import annotations

import os
import zlib

import pytest
from hypothesis import given, settings

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, Timestamp
from repro.relation.element import Element
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.storage import codec, segfile
from repro.storage.columnar import ScanSpec
from repro.storage.logfile import LogFileEngine
from repro.storage.memory import MemoryEngine
from repro.storage.segfile import (
    SegmentFileError,
    SegmentFileReader,
    decode_element,
    encode_element,
    write_segment_file,
)
from repro.storage.tiered import TierManager, _columns_from_elements
from repro.storage.vacuum import vacuum_engine
from tests.storage.test_segments import all_answers, replay, segment_workloads


def ts(n, granularity="microsecond"):
    return Timestamp(n, granularity)


def make_element(i, tt=None, vt=None, tt_stop=FOREVER, varying=None):
    return Element(
        element_surrogate=i,
        object_surrogate=f"o{i}",
        tt_start=ts(i) if tt is None else tt,
        vt=ts(i) if vt is None else vt,
        tt_stop=tt_stop,
        time_invariant={"k": i},
        time_varying={"v": i * 10} if varying is None else varying,
        user_times=(),
    )


# -- the element codec --------------------------------------------------------------


class TestElementCodec:
    def test_round_trip_preserves_repr(self):
        cases = [
            make_element(0),
            make_element(1, tt_stop=ts(99)),
            make_element(2, tt=ts(5, "second"), vt=ts(7, "minute")),
            make_element(3, vt=Interval(ts(1), ts(100))),
            make_element(4, vt=Interval(ts(1, "second"), ts(2, "second"))),
            make_element(5, varying={"name": "café", "nested": {"a": [1, 2]}}),
        ]
        for element in cases:
            decoded = decode_element(encode_element(element))
            assert decoded == element
            assert repr(decoded) == repr(element)

    def test_forever_decodes_to_the_singleton(self):
        decoded = decode_element(encode_element(make_element(0)))
        assert decoded.tt_stop is FOREVER
        assert decoded.is_current


# -- column encodings ---------------------------------------------------------------


class TestColumnEncodings:
    def test_round_trips(self):
        cases = [
            ([0] * 500, True),  # RLE
            (list(range(0, 5000, 10)), True),  # delta
            ([7, 7, 9, 7, 9, 7] * 80, False),  # dict
            ([i * (-1) ** i * 7919 for i in range(300)], False),  # raw-ish
        ]
        for values, non_decreasing in cases:
            encoding, payload = segfile.encode_column(values, non_decreasing)
            assert list(segfile.decode_column(encoding, payload)) == values

    def test_delta_bisect_matches_decoded_bisect(self):
        from bisect import bisect_right

        values = sorted(i * 13 + (i % 7) for i in range(1000))
        encoding, payload = segfile.encode_column(values, non_decreasing=True)
        assert encoding == "delta"
        probes = [-1, 0, values[0], values[3], values[500] - 1, values[999], 10**9]
        for probe in probes:
            assert segfile._delta_bisect_right(payload, probe) == bisect_right(
                values, probe
            )


# -- file format: damage detection --------------------------------------------------


class TestDamageDetection:
    def test_every_truncation_is_detected(self, tmp_path):
        path = str(tmp_path / "seg.seg")
        elements = [make_element(i) for i in range(6)]
        write_segment_file(path, elements, _columns_from_elements(elements), True)
        with open(path, "rb") as handle:
            intact = handle.read()
        with SegmentFileReader(path) as reader:
            assert [repr(e) for e in reader.elements()] == [repr(e) for e in elements]
        torn_path = str(tmp_path / "torn.seg")
        for cut in range(len(intact)):
            with open(torn_path, "wb") as handle:
                handle.write(intact[:cut])
            try:
                reader = SegmentFileReader(torn_path)
            except SegmentFileError:
                continue
            reader.close()
            raise AssertionError(f"truncation at byte {cut} went undetected")

    def test_flipped_payload_byte_is_detected(self, tmp_path):
        path = str(tmp_path / "seg.seg")
        elements = [make_element(i) for i in range(6)]
        write_segment_file(path, elements, _columns_from_elements(elements), True)
        with open(path, "rb") as handle:
            intact = bytearray(handle.read())
        intact[len(intact) // 3] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(intact))
        try:
            with SegmentFileReader(path) as reader:
                for name in segfile.COLUMN_NAMES:
                    reader.column(name)
                reader.elements()
        except SegmentFileError:
            return
        raise AssertionError("flipped byte went undetected")


    def test_flipped_element_block_byte_serves_no_row(self, tmp_path):
        path = str(tmp_path / "seg.seg")
        elements = [make_element(i) for i in range(6)]
        footer = write_segment_file(path, elements, _columns_from_elements(elements), True)
        block = footer["elements"]
        with open(path, "rb") as handle:
            damaged = bytearray(handle.read())
        # Inside the last row's payload: the length table still parses.
        damaged[block["off"] + block["len"] - 3] ^= 0x01
        with open(path, "wb") as handle:
            handle.write(bytes(damaged))
        with SegmentFileReader(path) as reader:
            for name in segfile.COLUMN_NAMES:
                reader.column(name)  # the columns are intact
            # Refused on the first call of either kind, and on every
            # later one: a failed check is not remembered as a pass.
            for _ in range(2):
                with pytest.raises(SegmentFileError):
                    reader.element(0)
                with pytest.raises(SegmentFileError):
                    reader.elements()

    def test_element_block_is_checksummed_once_per_open(self, tmp_path, monkeypatch):
        manager = TierManager(str(tmp_path), cache_segments=1)
        elements = [make_element(i) for i in range(8)]
        segment = manager.demote(0, elements, _columns_from_elements(elements), True)
        with SegmentFileReader(segment.path) as reader:
            block_length = reader.footer["elements"]["len"]
        passes = []
        crc32 = zlib.crc32

        def counting(data, *rest):
            if len(data) == block_length:
                passes.append(len(data))
            return crc32(data, *rest)

        monkeypatch.setattr(segfile.zlib, "crc32", counting)
        for local in range(8):
            assert repr(segment.element_at(local)) == repr(elements[local])
        assert repr(segment.elements()) == repr(elements)
        assert len(passes) == 1
        segment.release()  # closes the mapping; the next read reopens
        assert repr(segment.element_at(3)) == repr(elements[3])
        assert repr(segment.element_at(4)) == repr(elements[4])
        assert len(passes) == 2
        manager.close()


# -- the tiered-vs-flat differential ------------------------------------------------


def tiered_engine(cache_segments=1):
    """A 4-element-segment store on the cold tier (private temp directory)."""
    return MemoryEngine(segment_size=4, tier_manager=TierManager(cache_segments=cache_segments))


@settings(deadline=None, max_examples=25)
@given(segment_workloads())
def test_tiered_engines_match_flat_scan(workload):
    """Byte-identical answers: flat reference vs the same small segments
    in memory vs tiered with a tiny LRU cache (evictions force
    reopen+decode)."""
    ops, probes = workload
    reference = all_answers(replay(ops, 100_000), probes)
    flat_small = all_answers(replay(ops, 4), probes)
    relation = replay(ops, 4, engine=tiered_engine())
    try:
        tiered = all_answers(relation, probes)
    finally:
        relation.engine.close()
    assert flat_small == reference
    assert tiered == reference


@settings(deadline=None, max_examples=10)
@given(segment_workloads())
def test_tiered_compact_preserves_answers(workload):
    """Explicit compaction (demote everything + fold patches) between
    the workload and the probes changes no answer."""
    ops, probes = workload
    reference = all_answers(replay(ops, 100_000), probes)
    relation = replay(ops, 4, engine=tiered_engine(cache_segments=2))
    try:
        relation.engine.store.compact()
        compacted = all_answers(relation, probes)
    finally:
        relation.engine.close()
    assert compacted == reference


# -- vacuum as the tiering driver (satellite: no eager rebuilds) --------------------


class TestVacuumTiering:
    def _grow(self, store_elements=48, close=0, tier_dir=None):
        engine = MemoryEngine(segment_size=8, tier_dir=tier_dir)
        for i in range(store_elements):
            engine.append(make_element(i, tt=ts(i, "second"), vt=ts(i, "second")))
        for i in range(close):
            engine.close_element(i, ts(1000 + i, "second"))
        return engine

    def test_unchanged_segments_not_rewritten(self, tmp_path):
        engine = self._grow(tier_dir=str(tmp_path))
        store = engine.store
        manager = store.tiering
        cold = store._cold
        assert cold > 0
        stamps = {
            ordinal: os.stat(manager.path_of(ordinal)).st_mtime_ns
            for ordinal in range(cold)
        }
        compacted, report = vacuum_engine(engine, ts(0))
        assert report.purged == 0
        new_store = compacted.store
        assert new_store.tiering is manager
        for ordinal in range(min(cold, new_store._cold)):
            assert os.stat(manager.path_of(ordinal)).st_mtime_ns == stamps[ordinal]

    def test_purge_invalidates_only_from_first_purged(self, tmp_path):
        engine = self._grow(tier_dir=str(tmp_path))
        store = engine.store
        manager = store.tiering
        cold = store._cold
        # Close one element in the third segment: everything before it
        # is an unchanged prefix, everything after is invalidated.
        engine.close_element(20, ts(50, "second"))
        stamps = {
            ordinal: os.stat(manager.path_of(ordinal)).st_mtime_ns
            for ordinal in range(cold)
        }
        compacted, report = vacuum_engine(engine, ts(60, "second"))
        assert report.purged == 1
        new_store = compacted.store
        retained = min(cold, 20 // 8, new_store._cold)
        for ordinal in range(retained):
            assert os.stat(manager.path_of(ordinal)).st_mtime_ns == stamps[ordinal]
        assert [e.element_surrogate for e in compacted.scan()] == [
            i for i in range(48) if i != 20
        ]

    def test_retired_engine_stays_readable(self, tmp_path):
        engine = self._grow(close=10, tier_dir=str(tmp_path))
        before = [repr(e) for e in engine.scan()]
        vacuum_engine(engine, ts(1005, "second"))
        # The retired store was rehydrated into plain memory: same
        # answers, no dependence on files the rebuild reused or removed.
        assert engine.store.tiering is None
        assert [repr(e) for e in engine.scan()] == before

    def test_flat_store_carries_sorted_cache_prefix(self):
        engine = MemoryEngine(segment_size=8)
        for i in range(48):
            engine.append(make_element(i))
        store = engine.store
        store.columns.sorted_starts(0, 8)
        store.columns.sorted_starts(40, 48)
        engine.close_element(44, ts(1000))
        compacted, report = vacuum_engine(engine, ts(2000))
        assert report.purged == 1
        carried = set(compacted.store.columns._sorted_cache)
        assert (0, 8) in carried  # before first purge: reused
        assert (40, 48) not in carried  # spans the purge: dropped


# -- the compaction crash matrix ----------------------------------------------------


class TestCompactionCrashMatrix:
    def test_torn_rewrite_recovers_at_every_byte(self, tmp_path):
        """Cut the compaction rewrite of a patched segment at every byte
        offset; reopening from the WAL must detect the damage and land
        on a consistent segment set with unchanged answers."""
        wal = str(tmp_path / "crash.log")
        tier = str(tmp_path / "tier")
        engine = LogFileEngine(wal, fsync=False, segment_size=4, tier_dir=tier)
        for i in range(12):
            engine.append(make_element(i))
        store = engine.store
        store.compact()  # v1: everything cold, no patches
        engine.close_element(1, ts(100))  # patch in cold segment 0
        target = store.tiering.path_of(0)
        with open(target, "rb") as handle:
            v1 = handle.read()
        store.compact()  # v2: rewrite folds the patch
        with open(target, "rb") as handle:
            v2 = handle.read()
        assert v1 != v2
        engine.close()

        def reference_answers(eng):
            return [repr(e) for e in eng.scan()] + [repr(e) for e in eng.select(ScanSpec.of())[0]]

        clean = LogFileEngine(wal, fsync=False, segment_size=4, tier_dir=tier)
        want = reference_answers(clean)
        clean.close()

        for cut in range(len(v2) + 1):
            with open(target, "wb") as handle:
                handle.write(v2[:cut])  # torn rewrite (worst case)
            reopened = LogFileEngine(wal, fsync=False, segment_size=4, tier_dir=tier)
            assert reference_answers(reopened) == want, f"cut at byte {cut}"
            reopened.store.compact()
            assert reference_answers(reopened) == want, f"cut at byte {cut}"
            # After recovery + compaction the file is whole again:
            # CRC-valid and carrying the folded (post-patch) rows.
            with SegmentFileReader(target) as reader:
                stops = list(reader.column("tt_stop"))
            assert stops[1] == ts(100).microseconds
            reopened.close()

    def test_tmp_file_leftover_is_harmless(self, tmp_path):
        wal = str(tmp_path / "crash.log")
        tier = str(tmp_path / "tier")
        engine = LogFileEngine(wal, fsync=False, segment_size=4, tier_dir=tier)
        for i in range(8):
            engine.append(make_element(i))
        engine.store.compact()
        engine.close()
        # A crash between tmp write and rename leaves *.tmp trash.
        trash = os.path.join(tier, "seg-000000.seg.tmp")
        with open(trash, "wb") as handle:
            handle.write(b"torn half-written segment")
        reopened = LogFileEngine(wal, fsync=False, segment_size=4, tier_dir=tier)
        assert [e.element_surrogate for e in reopened.scan()] == list(range(8))
        reopened.close()


# -- observability ------------------------------------------------------------------


class TestTieredObservability:
    def test_explain_reports_cold_segments(self):
        from repro.observability.explain import explain_query

        schema = TemporalSchema(name="r", time_varying=("reading",))
        clock = SimulatedWallClock(start=0)
        engine = tiered_engine()
        relation = TemporalRelation(schema, clock=clock, engine=engine)
        for i in range(24):
            clock.advance_to(Timestamp(100 * (i + 1)))
            relation.insert(f"o{i}", Timestamp(100 * (i + 1)), {"reading": i})
        store = engine.store
        store.compact()
        assert store.cold_base > 0
        report = explain_query(relation, "SELECT * FROM r AS OF 1200")
        assert report.tier_cold_segments
        assert any("tiered" in line for line in report.decisions)
        assert "compressed cold storage" in report.render()

    def test_reexecuted_plan_reports_one_runs_cold_segments(self):
        """A plan served again (the plan cache hands the same object
        back) must report one execution's cold segments, not a running
        total -- ``query.tier_cold_segments`` is fed from this count."""
        from repro.query import Planner, Rollback, Scan

        schema = TemporalSchema(name="r", time_varying=("reading",))
        clock = SimulatedWallClock(start=0)
        engine = MemoryEngine(segment_size=8, tier_manager=TierManager())
        relation = TemporalRelation(schema, clock=clock, engine=engine)
        for i in range(64):
            clock.advance_to(Timestamp(i))
            relation.insert(f"o{i}", Timestamp(i), {"reading": i})
        assert relation.engine.store.cold_base > 0
        plan = Planner(relation).plan(Rollback(Scan(relation), Timestamp(60)))
        assert plan.strategy == "rollback-prefix"
        cold = []
        for _ in range(3):
            plan.execute()
            cold.append(plan.segment_stats.cold_segments)
        assert cold[0] > 0
        assert cold == [cold[0]] * 3

    def test_statistics_expose_tier_counters(self, tmp_path):
        engine = MemoryEngine(segment_size=4, tier_dir=str(tmp_path))
        for i in range(24):
            engine.append(make_element(i))
        store = engine.store
        store.compact()
        stats = store.statistics()
        assert stats["segments_cold"] > 0
        assert stats["tier_demotions"] > 0
        assert stats["tier_bytes_written"] > 0


class TestTierManagerHousekeeping:
    def test_cache_segments_below_one_is_rejected(self, tmp_path):
        # A zero-slot LRU released every segment the moment it was touched.
        with pytest.raises(ValueError, match="cache_segments must be at least 1"):
            TierManager(str(tmp_path), cache_segments=0)

    def test_negative_hot_reserve_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="hot_reserve must be at least 0"):
            TierManager(str(tmp_path), hot_reserve=-1)

    def test_lru_eviction_closes_readers(self, tmp_path):
        manager = TierManager(str(tmp_path), cache_segments=1)
        engine = MemoryEngine(segment_size=4, tier_manager=manager)
        for i in range(32):
            engine.append(make_element(i))
        store = engine.store
        store.compact()
        assert store._cold >= 4
        # Touch every cold segment; with a one-slot cache at most one
        # reader may stay open afterwards.
        for ordinal in range(store._cold):
            manager.columns(ordinal).tt_start
        open_readers = sum(
            1 for segment in manager.segments.values() if segment._reader is not None
        )
        assert open_readers <= 1
        # Eviction must not lose patches or correctness.
        engine.close_element(2, ts(999))
        for ordinal in range(store._cold):
            manager.columns(ordinal).tt_stop
        assert [e.element_surrogate for e in engine.scan()] == list(range(32))
        assert not engine.get(2).is_current

    def test_a_cold_select_reads_each_segment_in_one_tier_call(self, tmp_path, monkeypatch):
        """A cold unit's survivors come from one ``elements_at`` call: patched,
        cached and first-touch rows alike, the same objects ``element_at``
        serves; served from the cache, the call touches the LRU once."""
        manager = TierManager(str(tmp_path), cache_segments=2)
        engine = MemoryEngine(segment_size=4, tier_manager=manager)
        for i in range(32):
            engine.append(make_element(i))
        store = engine.store
        store.compact()
        engine.close_element(5, ts(999))  # a patch in cold segment 1
        cached = manager.element_at(1, 2)  # one cached row beside undecoded ones
        calls = []
        real = manager.elements_at
        monkeypatch.setattr(
            manager, "elements_at", lambda o, locals_: calls.append(o) or real(o, locals_)
        )
        spec = ScanSpec.of(Interval(ts(4), ts(8)), as_of=ts(100))
        found, _examined = store.select(spec)
        assert [e.element_surrogate for e in found] == [4, 5, 6, 7]
        assert calls == [1]
        assert found[2] is cached
        assert found[1] is manager.segments[1].patches[1]
        assert [store.element_at(p) for p in range(4, 8)] == found
        touched = []
        monkeypatch.setattr(manager, "_touch", touched.append)
        assert real(1, [0, 1, 2, 3]) == found
        assert touched == [manager.segments[1]]


class TestTierRanges:
    """``TierManager.elements(ordinal, lo, hi)`` is one slice of the
    segment's cached rows: ``elements(ordinal)[lo:hi]``, the same objects,
    in every decode state; a whole-decoded segment decodes again only
    after a release."""

    RANGES = ((0, None), (0, 8), (2, 5), (5, 8), (3, 3), (7, 8))
    STATES = ("never decoded", "partly decoded", "patched before", "patched after", "evicted")

    @staticmethod
    def _stores(directory):
        """A tiered engine (8-row segments, two cached) and a flat twin."""
        manager = TierManager(str(directory), cache_segments=2)
        tiered = MemoryEngine(segment_size=8, tier_manager=manager)
        flat = MemoryEngine(segment_size=8)
        for i in range(48):
            tiered.append(make_element(i))
            flat.append(make_element(i))
        tiered.store.compact()
        assert tiered.store._cold >= 3
        return manager, tiered, flat

    @pytest.mark.parametrize("state", STATES)
    def test_a_range_is_the_slice_of_the_whole_segment(self, tmp_path, state):
        for lo, hi in self.RANGES:
            manager, tiered, flat = self._stores(tmp_path / f"{lo}-{hi}")
            segment = manager.segments[1]  # positions 8-15
            kept = []
            if state == "partly decoded":
                kept = [manager.element_at(1, 2), *manager.elements_at(1, [4, 5])]
                for row in kept:
                    codec.fill_fragment(row)
            elif state == "patched before":
                for engine in (tiered, flat):
                    engine.close_element(11, ts(999))
            elif state == "patched after":
                manager.elements(1)
                for engine in (tiered, flat):
                    engine.close_element(11, ts(999))
            elif state == "evicted":  # patches outlive the cached rows
                manager.elements(1)
                for engine in (tiered, flat):
                    engine.close_element(11, ts(999))
                manager.elements(0)
                manager.elements(2)  # a third segment in a two-slot cache
                assert segment._elements is None and segment._reader is None
            ranged = manager.elements(1, lo, hi)
            whole = manager.elements(1)
            assert ranged == whole[lo:hi], (state, lo, hi)
            assert all(row is cached for row, cached in zip(ranged, whole[lo:hi]))
            assert whole == flat.store.elements_range(8, 16)
            for row in kept:  # rows served before keep identity and fragment
                assert whole[row.element_surrogate - 8] is row
                assert row._wire == codec.element_fragment(row)
            if state != "never decoded" and state != "partly decoded":
                assert whole[3] is segment.patches[3] and not whole[3].is_current
            # The store's range read is the same slices, across segments too.
            assert tiered.store.elements_range(8 + 2, 8 + 6) == whole[2:6]
            assert tiered.store.elements_range(5, 45) == flat.store.elements_range(5, 45)

    def test_a_whole_segment_is_decoded_again_only_after_a_release(self, tmp_path, monkeypatch):
        manager, _tiered, _flat = self._stores(tmp_path)
        calls = []
        real = SegmentFileReader.elements
        monkeypatch.setattr(
            SegmentFileReader, "elements", lambda reader: calls.append(reader) or real(reader)
        )
        manager.elements_at(1, [0, 6])  # per-row decodes only
        assert calls == []
        first = manager.elements(1, 2, 6)
        assert len(calls) == 1
        calls.clear()
        second = manager.elements(1, 2, 6)
        assert all(row is cached for row, cached in zip(second, first)) and len(second) == 4
        assert manager.elements(1, 0, 8)[2:6] == first
        assert calls == []
        manager.segments[1].release()
        assert manager.elements(1, 2, 6) == first
        assert len(calls) == 1
