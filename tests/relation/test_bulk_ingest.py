"""Batched ingestion: equivalence, atomicity, and the bulk() protocol.

Three claims are pinned here:

1. **Equivalence** -- an ``append_many`` batch stores exactly what the
   same rows stored one ``insert`` at a time would (same surrogates,
   same consecutive transaction stamps, same attribute partitions).
2. **Atomicity** -- a rejected batch leaves the relation *byte
   identical*: storage contents, backlog operations, version counter,
   constraint-monitor state, and (for the log-file engine) the on-disk
   log are all exactly as before the attempt, on every engine.
3. **Protocol** -- :meth:`TemporalRelation.bulk` commits on clean exit,
   stores nothing when the block raises, and refuses double commits.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.chronos.clock import LogicalClock
from repro.chronos.timestamp import Timestamp
from repro.core.constraints import ConstraintViolation
from repro.relation.errors import KeyViolation, SchemaError
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.server import protocol
from repro.storage.logfile import LogFileEngine
from repro.storage.memory import MemoryEngine
from repro.storage.vacuum import vacuum_relation


def make_relation(specializations=(), engine=None, **schema_kwargs):
    schema = TemporalSchema(
        name="bulk",
        time_varying=("reading",),
        specializations=list(specializations),
        **schema_kwargs,
    )
    return TemporalRelation(schema, clock=LogicalClock(start=100), engine=engine)


ROWS = [
    ("alpha", Timestamp(10), {"reading": 1}),
    ("beta", Timestamp(40), {"reading": 2}),
    ("alpha", Timestamp(25), {"reading": 3}),
]


def snapshot(relation):
    """Everything observable about a relation, for exact comparison."""
    return (
        [
            (
                e.element_surrogate,
                e.object_surrogate,
                e.tt_start,
                e.tt_stop,
                e.vt,
                dict(e.time_invariant),
                dict(e.time_varying),
                dict(e.user_times),
            )
            for e in relation.all_elements()
        ],
        [
            (op.kind, op.tt, op.element_surrogate)
            for op in relation.backlog().operations
        ],
        relation.version,
        relation.statistics(),
    )


class TestEquivalence:
    def test_batch_equals_insert_sequence(self):
        batched = make_relation()
        batched.append_many(ROWS)
        singles = make_relation()
        for object_surrogate, vt, attributes in ROWS:
            singles.insert(object_surrogate, vt, attributes)
        # Contents and operation log are identical; only the version
        # counter differs (one bump for the batch, three for singles).
        assert snapshot(batched)[:2] == snapshot(singles)[:2]
        assert batched.version == 1 and singles.version == 3

    def test_batch_stamps_are_consecutive(self):
        relation = make_relation()
        elements = relation.append_many(ROWS)
        assert [e.tt_start for e in elements] == [
            Timestamp(100), Timestamp(101), Timestamp(102)
        ]
        assert [e.element_surrogate for e in elements] == [1, 2, 3]

    def test_two_element_rows_default_attributes(self):
        relation = make_relation()
        (element,) = relation.append_many([("alpha", Timestamp(5))])
        assert element.time_varying == {}
        assert element.time_invariant == {}

    def test_empty_batch_returns_empty_and_bumps_nothing(self):
        relation = make_relation()
        before = snapshot(relation)
        assert relation.append_many([]) == []
        assert snapshot(relation) == before

    def test_stored_attribute_maps_are_read_only_and_shared(self, tmp_path):
        # Elements may share maps only because no stored map can be edited.
        engine = MemoryEngine(segment_size=2, tier_dir=str(tmp_path))
        relation = make_relation(engine=engine, time_invariant=("site",))
        inserted = relation.insert("a", Timestamp(1), {"site": "x", "reading": 1})
        bulk = relation.append_many(
            [("a", Timestamp(2), {"site": "x", "reading": 2}), ("b", Timestamp(3))]
        )
        moved = relation.append_many([("a", Timestamp(4), {"site": "y", "reading": 4})])
        closed = relation.delete(inserted.element_surrogate)
        engine.store.compact()
        assert engine.store.cold_base >= 2
        cold = engine.get(bulk[0].element_surrogate)
        assert cold is not bulk[0]  # decoded from its .seg file
        for element in (inserted, *bulk, *moved, closed, cold):
            for mapping in (element.time_invariant, element.time_varying, element.user_times):
                with pytest.raises(TypeError):
                    mapping["reading"] = 99
                with pytest.raises(TypeError):
                    mapping.update(reading=99)
                with pytest.raises(TypeError):
                    mapping.clear()
        assert inserted.time_varying == {"reading": 1}
        # One object's elements share one time-invariant map until it
        # changes; every empty map is the same object.
        assert bulk[0].time_invariant is inserted.time_invariant
        assert moved[0].time_invariant == {"site": "y"}
        assert moved[0].time_invariant is not inserted.time_invariant
        assert bulk[1].time_invariant is bulk[1].user_times is inserted.user_times
        # closed() keeps its original's maps.
        for name in ("time_invariant", "time_varying", "user_times"):
            assert getattr(closed, name) is getattr(inserted, name)
        engine.close()

    def test_an_invariant_is_shared_only_while_its_values_are_identical(self):
        # 1 == 1.0 == True and 0.0 == -0.0, but each is its own stored
        # value and encodes its own way; nested values likewise.
        relation = make_relation(engine=MemoryEngine(), time_invariant=("cap",))
        caps = [1, 1.0, True, 1, 0.0, -0.0, [1], [True], "x", "x", None, None]
        stored = []
        for index, cap in enumerate(caps):
            row = ("a", Timestamp(index), {"cap": cap})
            if index % 2:
                stored.extend(relation.append_many([row]))
            else:
                stored.append(relation.insert(*row))
        for element, cap in zip(stored, caps):
            value = element.time_invariant["cap"]
            assert type(value) is type(cap) and repr(value) == repr(cap)
            wire = json.dumps(cap, separators=(",", ":")).encode()
            for _ in range(2):  # the first encode, then the memo
                body = protocol.element_rows_body({}, [element])
                assert b'"invariant":{"cap":' + wire + b"}" in body
        shared = [
            later.time_invariant is earlier.time_invariant
            for earlier, later in zip(stored, stored[1:])
        ]
        # Only equal str / int / None maps are shared: "x" twice, None twice,
        # and the int 1 again once 1.0 and True have come between.
        assert shared == [False] * 8 + [True, False, True]
        assert stored[3].time_invariant is stored[0].time_invariant

    def test_vacuum_forgets_the_invariants_it_may_have_removed(self):
        relation = make_relation(time_invariant=("site",))
        first = relation.insert("a", Timestamp(1), {"site": "x"})
        relation.delete(first.element_surrogate)
        assert set(relation._invariants) == {"a"}
        vacuum_relation(relation, relation.clock.now())
        assert len(relation.engine) == 0  # the object's only element is gone
        assert relation._invariants == {}
        again = relation.insert("a", Timestamp(2), {"site": "x"})
        assert relation.insert("a", Timestamp(3), {"site": "x"}).time_invariant is (
            again.time_invariant
        )

    def test_undeclared_attribute_raises_the_canonical_error(self):
        relation = make_relation()
        with pytest.raises(SchemaError):
            relation.append_many([("a", Timestamp(1), {"bogus": 1})])
        assert len(relation) == 0

    def test_bad_valid_time_kind_raises_the_canonical_error(self):
        relation = make_relation()
        with pytest.raises(SchemaError):
            relation.append_many([("a", 17, {"reading": 1})])
        assert len(relation) == 0


class TestRejectedBatchAtomicity:
    #: The second row violates ``retroactive`` (vt far beyond any tt).
    POISONED = [
        ("alpha", Timestamp(10), {"reading": 1}),
        ("beta", Timestamp(10**9), {"reading": 2}),
        ("gamma", Timestamp(20), {"reading": 3}),
    ]

    def test_memory_state_is_byte_identical_after_rejection(self):
        relation = make_relation(["retroactive"])
        relation.insert("seed", Timestamp(50), {"reading": 0})
        before = snapshot(relation)
        with pytest.raises(ConstraintViolation):
            relation.append_many(self.POISONED)
        assert snapshot(relation) == before

    def test_logfile_log_is_byte_identical_after_rejection(self, tmp_path):
        engine = LogFileEngine(os.path.join(str(tmp_path), "bulk.jsonl"))
        relation = make_relation(["retroactive"], engine=engine)
        relation.insert("seed", Timestamp(50), {"reading": 0})
        before = snapshot(relation)
        bytes_before = engine.log_bytes()
        with pytest.raises(ConstraintViolation):
            relation.append_many(self.POISONED)
        assert snapshot(relation) == before
        assert engine.log_bytes() == bytes_before
        engine.close()

    def test_monitors_are_not_polluted_by_a_rejected_batch(self):
        relation = make_relation(["globally non-decreasing", "retroactive"])
        relation.insert("o", Timestamp(50), {"reading": 0})
        with pytest.raises(ConstraintViolation):
            # vt = 90 would raise the non-decreasing monitor's maximum
            # before vt = 10**9 fails retroactivity -- neither may stick.
            relation.append_many(
                [("o", Timestamp(90), None), ("o", Timestamp(10**9), None)]
            )
        # 40 < 50 must still be rejected (true maximum survived) ...
        with pytest.raises(ConstraintViolation):
            relation.insert("o", Timestamp(40), {})
        # ... and 55 >= 50 accepted (the rejected 90 did NOT stick).
        relation.insert("o", Timestamp(55), {})

    def test_within_batch_sequenced_key_violation_rejects_whole_batch(self):
        relation = make_relation(
            time_invariant=("name",), key=("name",)
        )
        before = snapshot(relation)
        with pytest.raises(KeyViolation):
            relation.append_many(
                [
                    ("a", Timestamp(10), {"name": "x", "reading": 1}),
                    ("b", Timestamp(10), {"name": "x", "reading": 2}),
                ]
            )
        assert snapshot(relation) == before

    def test_batch_sequenced_key_checked_against_stored_state(self):
        relation = make_relation(time_invariant=("name",), key=("name",))
        relation.insert("a", Timestamp(10), {"name": "x"})
        with pytest.raises(KeyViolation):
            relation.append_many([("b", Timestamp(10), {"name": "x"})])
        assert len(relation) == 1

    def test_gc_is_reenabled_after_a_rejected_batch(self):
        import gc

        relation = make_relation(["retroactive"])
        assert gc.isenabled()
        with pytest.raises(ConstraintViolation):
            relation.append_many(self.POISONED)
        assert gc.isenabled()


class TestBulkContextManager:
    def test_clean_exit_commits_one_atomic_batch(self):
        relation = make_relation()
        with relation.bulk() as batch:
            batch.insert("alpha", Timestamp(10), {"reading": 1})
            batch.insert("beta", Timestamp(20), {"reading": 2})
            assert len(batch) == 2
            assert len(relation) == 0  # nothing stored inside the block
        assert len(relation) == 2
        assert [e.object_surrogate for e in batch.elements] == ["alpha", "beta"]
        assert relation.version == 1  # ONE bump for the whole batch

    def test_exception_inside_the_block_stores_nothing(self):
        relation = make_relation()
        with pytest.raises(RuntimeError):
            with relation.bulk() as batch:
                batch.insert("alpha", Timestamp(10), {"reading": 1})
                raise RuntimeError("abandon the batch")
        assert len(relation) == 0
        assert relation.version == 0

    def test_constraint_violation_at_commit_stores_nothing(self):
        relation = make_relation(["retroactive"])
        with pytest.raises(ConstraintViolation):
            with relation.bulk() as batch:
                batch.insert("alpha", Timestamp(10**9), {"reading": 1})
        assert len(relation) == 0

    def test_double_commit_is_rejected(self):
        relation = make_relation()
        with relation.bulk() as batch:
            batch.insert("alpha", Timestamp(10), {"reading": 1})
        with pytest.raises(SchemaError):
            batch.commit()
        with pytest.raises(SchemaError):
            batch.insert("beta", Timestamp(20), {"reading": 2})
        assert len(relation) == 1
