"""Seam-bug regressions: caches that must notice deletes.

Two historically fragile seams, pinned here:

* **Cold-segment delete patches** (satellite 1).  A logical delete
  whose victim lives in a compressed cold segment rewrites that
  segment out-of-line.  Everything derived downstream -- the store's
  materialized current view, zone-map liveness, the relation's
  ``statistics()``, and any registered standing view -- must observe
  the patch.

* **Wire fragments**.  An element a store holds -- hot, or
  decoded by the cold tier -- keeps its canonical JSON fragment once
  served.  It is one more derived structure: a logical delete must
  replace it (the closed record starts armed but empty), LRU eviction
  must drop it, and a compaction rewrite and a vacuum must both still
  produce the reference bytes.

A third seam, delete-blind epochs (a logical delete changes liveness
but not ``len()``, so ``mutation_count()`` must advance on it), is
pinned per engine in ``tests/query/test_query_cache.py::TestMutationCount``.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
import sys
import tempfile
import threading

import pytest

from repro.chronos.clock import LogicalClock
from repro.chronos.timestamp import FOREVER, Timestamp
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.server import protocol
from repro.storage import codec
from repro.server.http import Response
from repro.storage.memory import MemoryEngine
from repro.storage.tiered import TierManager
from repro.storage.vacuum import vacuum_relation


def make_relation(engine) -> TemporalRelation:
    schema = TemporalSchema(name="seams", time_varying=("reading",))
    return TemporalRelation(schema, clock=LogicalClock(start=1_000), engine=engine)


class TestColdPatchInvalidation:
    def _grown_cold(self, tier_dir, count=12):
        """A relation whose history is sealed and migrated cold."""
        engine = MemoryEngine(segment_size=4, tier_dir=tier_dir)
        relation = make_relation(engine)
        with relation.bulk() as batch:
            for i in range(count):
                batch.insert(f"o{i}", Timestamp(i), {"reading": i})
        migrated = engine.store.compact()
        assert migrated.get("cold", 0) >= 2, migrated
        return relation, engine

    def test_cold_delete_refreshes_current_view_and_statistics(self):
        with tempfile.TemporaryDirectory() as tier_dir:
            relation, engine = self._grown_cold(tier_dir)
            view = relation.views.register_current(name="cold-check")
            # Warm every cache with the pre-delete state.
            assert relation.statistics()["live_elements"] == 12
            assert len(view.snapshot()) == 12

            victim = min(
                relation.current(), key=lambda e: e.tt_start.microseconds
            )  # guaranteed to sit in the oldest (cold) segment
            relation.delete(victim.element_surrogate)

            survivors = {e.element_surrogate for e in relation.current()}
            assert victim.element_surrogate not in survivors
            assert len(survivors) == 11
            # The statistics saw the patch.
            assert relation.statistics()["live_elements"] == 11
            # And the standing view agrees with recomputation.
            assert view.snapshot() == view.recompute()
            assert len(view.snapshot()) == 11
            # The closed record itself is patched, not ghosted.
            closed = engine.get(victim.element_surrogate)
            assert closed.tt_stop is not FOREVER

    def test_cold_patch_visible_without_any_relation_read_between(self):
        """Statistics computed *only after* the delete (no warm cache to
        invalidate) must still see the patched liveness."""
        with tempfile.TemporaryDirectory() as tier_dir:
            relation, engine = self._grown_cold(tier_dir)
            for victim in list(relation.current())[:5]:
                relation.delete(victim.element_surrogate)
            assert relation.statistics()["live_elements"] == 7
            # All 12 elements sit in sealed segments (12 = 3 full
            # segments of 4), so zone-map liveness must sum exactly.
            zones_live = sum(
                zone.live for zone in engine.store._zones
            )
            assert zones_live == 7


def _reference_body(relation: TemporalRelation, tt) -> bytes:
    """A rollback's body from the reference encoder."""
    rows = list(relation.as_of(tt))
    return Response.json(
        {"rows": protocol.elements_to_json(rows), "count": len(rows)}
    ).body


def _fragment_body(relation: TemporalRelation, tt) -> bytes:
    rows = list(relation.as_of(tt))
    return Response.json({"count": len(rows)}, rows=rows).body


def _populate(relation: TemporalRelation, count: int = 24) -> None:
    with relation.bulk() as batch:
        for i in range(count):
            batch.insert(f"o{i % 5}", Timestamp(i), {"reading": i})


def _compact(relation: TemporalRelation) -> None:
    relation.engine.store.compact()


class TestWireFragmentSeams:
    def _cold_relation(self, tier_dir):
        """24 rows, 4 to a segment, all cold, one segment cached."""
        manager = TierManager(tier_dir, cache_segments=1)
        relation = make_relation(MemoryEngine(segment_size=4, tier_manager=manager))
        _populate(relation)
        _compact(relation)
        assert len(manager.segments) == 6
        return relation, manager

    def test_eviction_drops_every_fragment_and_the_next_read_reencodes(self, monkeypatch):
        with tempfile.TemporaryDirectory() as tier_dir:
            relation, manager = self._cold_relation(tier_dir)
            expected = _reference_body(relation, FOREVER)
            rows = list(relation.as_of(FOREVER))
            body = Response.json({"count": len(rows)}, rows=rows).body
            assert body == expected
            filled = [row for row in rows if row._wire]
            assert len(filled) == 24
            # The rows of the one segment still cached are the tier's.
            kept = [
                element
                for segment in manager.segments.values()
                for element in segment._elements or ()
            ]
            assert len(kept) == 4 and all(element._wire for element in kept)
            del rows, kept
            manager.release_all()
            gc.collect()
            # Nothing but `filled`, the loop variable and the call's own
            # argument refers to a filled row any more.
            assert all(sys.getrefcount(row) == 3 for row in filled)
            del filled

            encoded = []
            original = protocol.canonical_json

            def counting(payload):
                encoded.append(payload)
                return original(payload)

            monkeypatch.setattr(protocol, "canonical_json", counting)
            monkeypatch.setattr(codec, "canonical_json", counting)
            assert _fragment_body(relation, FOREVER) == body
            assert sum(1 for p in encoded if isinstance(p, dict) and "surrogate" in p) == 24

    def test_a_cold_delete_replaces_the_fragment(self):
        with tempfile.TemporaryDirectory() as tier_dir:
            relation, manager = self._cold_relation(tier_dir)
            plain = make_relation(MemoryEngine())
            _populate(plain)
            before = relation.pin_epoch().as_of
            assert _fragment_body(relation, before) == _reference_body(plain, before)
            victim = min(relation.current(), key=lambda e: e.tt_start.microseconds)
            closed = relation.delete(victim.element_surrogate)
            plain.delete(victim.element_surrogate)
            assert manager.has_patches(0)
            assert closed._wire == b""  # the patch is armed, not yet encoded
            for tt in (before, closed.tt_stop, FOREVER):
                body = _fragment_body(relation, tt)
                assert body == _reference_body(plain, tt)
                assert body == _fragment_body(relation, tt)  # and again, memoized
            served = next(
                e for e in relation.as_of(before) if e.element_surrogate == victim.element_surrogate
            )
            assert served is closed
            assert closed._wire == protocol.canonical_json(protocol.element_to_json(closed))

    def test_rewrite_and_vacuum_keep_the_reference_bytes(self, tmp_path):
        manager = TierManager(str(tmp_path), cache_segments=1)
        relation = make_relation(MemoryEngine(segment_size=4, tier_manager=manager))
        plain = make_relation(MemoryEngine())

        def check():
            pin = plain.pin_epoch().as_of
            for tt in (Timestamp(1_000), pin, FOREVER):
                assert _fragment_body(relation, tt) == _reference_body(plain, tt)
                assert _fragment_body(relation, tt) == _reference_body(plain, tt)

        for each in (relation, plain):
            _populate(each)
        _compact(relation)
        check()
        for victim in [e.element_surrogate for e in plain.current()][:7]:
            for each in (relation, plain):
                each.delete(victim)
        check()
        _compact(relation)  # rewrite_patched: fresh files, fresh elements
        check()
        horizon = plain.pin_epoch().as_of
        for each in (relation, plain):
            vacuum_relation(each, horizon)
        check()
        relation.engine.close()

    def test_the_memo_is_not_part_of_the_element(self):
        with tempfile.TemporaryDirectory() as tier_dir:
            relation, _manager = self._cold_relation(tier_dir)
            plain = make_relation(MemoryEngine())
            _populate(plain)
            cold = next(iter(relation.as_of(FOREVER)))
            hot = next(iter(plain.as_of(FOREVER)))
            protocol.element_rows_body({}, [cold, hot])
            assert cold._wire and cold._wire == hot._wire
            assert cold == hot and repr(cold) == repr(hot)
            assert "_wire" not in repr(cold)
            later = Timestamp(10_000)
            for stored in (cold, hot):
                for derived in (
                    stored.closed(later),
                    dataclasses.replace(stored, tt_stop=later),
                    copy.copy(stored),
                    copy.deepcopy(stored),
                    pickle.loads(pickle.dumps(stored)),
                ):
                    assert derived._wire is None
                    assert not hasattr(derived, "__dict__")
            assert copy.deepcopy(cold) == cold
            assert cold.closed(later) == hot.closed(later)
            with pytest.raises(ValueError):
                dataclasses.replace(cold, _wire=b"{}")

    def test_concurrent_encodes_of_one_cold_rollback_agree(self):
        with tempfile.TemporaryDirectory() as tier_dir:
            relation, manager = self._cold_relation(tier_dir)
            expected = _reference_body(relation, FOREVER)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for _ in range(20):
                    manager.release_all()
                    # Both threads hold the SAME armed elements.
                    rows = list(relation.as_of(FOREVER))
                    barrier = threading.Barrier(2, timeout=10)
                    bodies = []

                    def encode():
                        barrier.wait()
                        bodies.append(Response.json({"count": len(rows)}, rows=rows).body)

                    threads = [threading.Thread(target=encode) for _ in range(2)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=10)
                    assert not any(thread.is_alive() for thread in threads)
                    assert bodies == [expected, expected]
            finally:
                sys.setswitchinterval(interval)
