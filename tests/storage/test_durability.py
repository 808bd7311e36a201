"""Crash safety of the log-file engine: the WAL format, torn-tail
recovery, the crash matrix, and injected write-path faults.

The central invariant, proved exhaustively and property-based below:
for a workload crashed at *any* byte offset of the log, reopening
succeeds and the recovered state equals the longest committed prefix of
the workload -- never a torn half-batch, never an unreadable history.
"""

from __future__ import annotations

import errno
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.chronos.timestamp import Timestamp
from repro.observability import metrics
from repro.relation.element import Element
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.storage import wal
from repro.storage.backlog import OperationKind
from repro.storage.columnar import ScanSpec
from repro.storage.logfile import LogFileEngine, read_log_batches
from repro.storage.memory import MemoryEngine
from repro.storage.wal import recover_file, sidecar_path
from tests.faults import FaultyFile, arm


def event_element(surrogate, tt, vt, who=None, **varying):
    return Element(
        element_surrogate=surrogate,
        object_surrogate=who if who is not None else f"obj-{surrogate}",
        tt_start=Timestamp(tt),
        vt=Timestamp(vt),
        time_varying=varying,
    )


def signature(engine):
    return sorted(
        (
            e.element_surrogate,
            e.tt_start.microseconds,
            None if e.is_current else e.tt_stop.microseconds,
        )
        for e in engine.scan()
    )


def v0_insert_line(surrogate, tt, vt, who=None):
    from repro.storage.logfile import _encode_element

    element = event_element(surrogate, tt, vt, who=who)
    return (
        json.dumps(
            {
                "op": "insert",
                "tt": tt,
                "surrogate": surrogate,
                "element": _encode_element(element),
            },
            sort_keys=True,
        )
        + "\n"
    )


def v0_delete_line(surrogate, tt, **extra):
    record = {"op": "delete", "tt": tt, "surrogate": surrogate}
    record.update(extra)
    return json.dumps(record, sort_keys=True) + "\n"


# -- the torn-tail reproduction (the original bug) ----------------------------------


class TestTornTailReproduction:
    """Truncate the last record of a live log; reopen must succeed."""

    def build(self, path):
        engine = LogFileEngine(path)
        engine.append(event_element(1, 10, 5))
        engine.extend([event_element(2, 20, 6), event_element(3, 30, 7)])
        committed = signature(engine)
        committed_bytes = engine.log_bytes()
        engine.close_element(1, Timestamp(40))
        engine.close()
        return committed, committed_bytes

    def test_v1_reopen_after_torn_final_record(self, tmp_path):
        path = str(tmp_path / "live.wal")
        committed, committed_bytes = self.build(path)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-3])  # tear the final (delete) record

        with metrics.enabled_scope(fresh=True) as registry:
            reopened = LogFileEngine(path)
        report = reopened.last_recovery
        assert signature(reopened) == committed
        assert not report.clean
        assert report.committed_bytes == committed_bytes
        assert report.truncated_bytes == len(data) - 3 - committed_bytes
        assert os.path.getsize(path) == committed_bytes
        counters = registry.snapshot()["counters"]
        assert counters["storage.logfile.recovery.truncations"] == 1
        assert counters["storage.logfile.recovery.truncated_bytes"] == report.truncated_bytes
        # The torn bytes are preserved, not destroyed.
        assert os.path.getsize(sidecar_path(path)) == report.truncated_bytes
        reopened.close()

    def test_v0_reopen_after_torn_final_line(self, tmp_path):
        path = str(tmp_path / "legacy.jsonl")
        lines = v0_insert_line(1, 10, 5) + v0_insert_line(2, 20, 6)
        torn = v0_insert_line(3, 30, 7)[:-10]  # mid-record, no newline
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(lines + torn)

        reopened = LogFileEngine(path)
        assert reopened.log_format == "v0"
        assert [e.element_surrogate for e in reopened.scan()] == [1, 2]
        assert reopened.last_recovery.truncated_bytes == len(torn)
        assert os.path.getsize(path) == len(lines)
        # The legacy engine keeps appending readable v0 lines.
        reopened.append(event_element(3, 30, 7))
        reopened.close()
        again = LogFileEngine(path)
        assert [e.element_surrogate for e in again.scan()] == [1, 2, 3]
        again.close()

    def test_checksum_corruption_is_caught_and_quarantined(self, tmp_path):
        path = str(tmp_path / "flip.wal")
        committed, committed_bytes = self.build(path)
        with open(path, "r+b") as handle:
            handle.seek(committed_bytes + 12)  # inside the final record's payload
            byte = handle.read(1)
            handle.seek(committed_bytes + 12)
            handle.write(bytes([byte[0] ^ 0xFF]))
        reopened = LogFileEngine(path)
        assert signature(reopened) == committed
        assert "checksum mismatch" in reopened.last_recovery.damage
        reopened.close()

    def test_strict_read_refuses_torn_logs(self, tmp_path):
        path = str(tmp_path / "strict.wal")
        self.build(path)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-3])
        with pytest.raises(ValueError, match="repro recover"):
            list(read_log_batches(path))


# -- the crash matrix ---------------------------------------------------------------


def run_workload(path, fsync, ops):
    """Apply ops; return [(committed_byte_offset, signature)] checkpoints."""
    engine = LogFileEngine(path, fsync=fsync)
    checkpoints = [(0, [])]
    for op in ops:
        if op[0] == "append":
            engine.append(op[1])
        elif op[0] == "extend":
            engine.extend(op[1])
        else:
            engine.close_element(op[1], op[2])
        checkpoints.append((engine.log_bytes(), signature(engine)))
    engine.close()
    return checkpoints


def assert_crash_matrix(tmp_path, ops, fsync):
    """Reopen succeeds at EVERY byte-length prefix of the log, and the
    recovered state is the longest committed prefix's state."""
    path = str(tmp_path / "matrix.wal")
    checkpoints = run_workload(path, fsync, ops)
    with open(path, "rb") as handle:
        data = handle.read()
    crash_path = str(tmp_path / "crash.wal")
    for offset in range(len(data) + 1):
        with open(crash_path, "wb") as handle:
            handle.write(data[:offset])
        for stale in (sidecar_path(crash_path),):
            if os.path.exists(stale):
                os.remove(stale)
        engine = LogFileEngine(crash_path, fsync=fsync)
        expected = max(
            (c for c in checkpoints if c[0] <= offset), key=lambda c: c[0]
        )[1]
        assert signature(engine) == expected, f"crash at byte {offset}"
        engine.close()


MATRIX_OPS = [
    ("append", event_element(1, 10, 5, reading=1.5)),
    ("extend", [event_element(2, 20, 6), event_element(3, 30, 7, note="x")]),
    ("close", 1, Timestamp(40)),
    ("append", event_element(4, 50, 8)),
    ("close", 3, Timestamp(60)),
]


@pytest.mark.faults
@pytest.mark.parametrize("fsync", [True, False])
def test_crash_matrix_every_byte_offset(tmp_path, fsync):
    assert_crash_matrix(tmp_path, MATRIX_OPS, fsync)


@st.composite
def crash_workloads(draw):
    """Small random workloads: appends, batches, closes."""
    ops = []
    tick = 0
    surrogate = 0
    live = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        kind = draw(st.sampled_from(["append", "extend", "close"]))
        tick += 10
        if kind == "close" and live:
            ops.append(("close", live.pop(0), Timestamp(tick)))
        elif kind == "extend":
            batch = []
            for _ in range(draw(st.integers(min_value=1, max_value=3))):
                surrogate += 1
                tick += 1
                batch.append(event_element(surrogate, tick, tick - 5))
                live.append(surrogate)
            ops.append(("extend", batch))
        else:
            surrogate += 1
            ops.append(("append", event_element(surrogate, tick, tick - 5)))
            live.append(surrogate)
    return ops


@pytest.mark.faults
@settings(deadline=None, max_examples=15)
@given(ops=crash_workloads(), fsync=st.booleans())
def test_crash_matrix_property(tmp_path_factory, ops, fsync):
    tmp_path = tmp_path_factory.mktemp("crash-matrix")
    assert_crash_matrix(tmp_path, ops, fsync)


# -- injected write-path faults -----------------------------------------------------


@pytest.mark.faults
class TestInjectedFaults:
    """The mirror and the disk can never disagree: a failed write is a
    failed operation, not an acknowledged-in-memory ghost."""

    def make(self, tmp_path, name="faulty.wal", fsync=True):
        engine = LogFileEngine(str(tmp_path / name), fsync=fsync)
        engine.append(event_element(1, 10, 5))
        return engine, signature(engine)

    @pytest.mark.parametrize("kind", ["enospc", "torn", "short", "fsync"])
    def test_failed_append_leaves_mirror_and_disk_consistent(self, tmp_path, kind):
        engine, before = self.make(tmp_path, name=f"{kind}.wal")
        # write is operation 0, its fsync is operation 1
        arm(engine, fail_at=1 if kind == "fsync" else 0, kind=kind)
        with pytest.raises(OSError):
            engine.append(event_element(2, 20, 6))
        # Mirror rolled nothing forward: the rejected element is invisible.
        assert signature(engine) == before
        # The on-disk tail was repaired in-process...
        assert engine.log_bytes() == os.path.getsize(engine.path)
        # ...so later acknowledged writes replay after reopen.
        engine.append(event_element(3, 30, 7))
        after = signature(engine)
        engine.close()
        reopened = LogFileEngine(engine.path)
        assert reopened.last_recovery.clean
        assert signature(reopened) == after
        reopened.close()

    def test_failed_extend_is_all_or_nothing(self, tmp_path):
        engine, before = self.make(tmp_path)
        arm(engine, fail_at=0, kind="torn")
        with pytest.raises(OSError):
            engine.extend([event_element(2, 20, 6), event_element(3, 30, 7)])
        assert signature(engine) == before
        engine.close()
        reopened = LogFileEngine(engine.path)
        assert signature(reopened) == before
        reopened.close()

    def test_failed_close_element_keeps_element_current(self, tmp_path):
        engine, _ = self.make(tmp_path)
        arm(engine, fail_at=0, kind="enospc")
        with pytest.raises(OSError):
            engine.close_element(1, Timestamp(40))
        assert engine.get(1).is_current
        engine.close()
        reopened = LogFileEngine(engine.path)
        assert reopened.get(1).is_current
        reopened.close()

    def test_fault_counts_write_rollback_metric(self, tmp_path):
        engine, _ = self.make(tmp_path)
        arm(engine, fail_at=0, kind="torn")
        with metrics.enabled_scope(fresh=True) as registry:
            with pytest.raises(OSError):
                engine.append(event_element(2, 20, 6))
        assert registry.snapshot()["counters"]["storage.logfile.write_rollbacks"] == 1
        engine.close()

    def test_validation_failure_writes_nothing(self, tmp_path):
        engine, before = self.make(tmp_path)
        bytes_before = engine.log_bytes()
        with pytest.raises(ValueError):
            engine.append(event_element(1, 20, 6))  # duplicate surrogate
        with pytest.raises(ValueError):
            engine.extend([event_element(2, 20, 6), event_element(2, 21, 6)])
        assert engine.log_bytes() == bytes_before
        assert signature(engine) == before
        engine.close()

    def test_faulty_file_self_check(self, tmp_path):
        handle = open(str(tmp_path / "raw.bin"), "ab")
        faulty = FaultyFile(handle, fail_at=1, kind="enospc")
        faulty.write(b"ok")  # operation 0 passes
        with pytest.raises(OSError) as caught:
            faulty.write(b"boom")
        assert caught.value.errno == errno.ENOSPC
        faulty.write(b"after")  # one-shot: subsequent operations pass
        faulty.close()


# -- recovery API and format details ------------------------------------------------


class TestRecoveryDetails:
    def test_dry_run_touches_nothing(self, tmp_path):
        path = str(tmp_path / "dry.wal")
        engine = LogFileEngine(path)
        engine.append(event_element(1, 10, 5))
        engine.close()
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-4])
        _batches, report = recover_file(path, dry_run=True)
        assert not report.clean and report.dry_run
        assert os.path.getsize(path) == len(data) - 4  # untouched
        assert not os.path.exists(sidecar_path(path))

    def test_uncommitted_batch_is_discarded_on_replay(self, tmp_path):
        """Ops present and intact but missing their commit marker never apply."""
        path = str(tmp_path / "uncommitted.wal")
        engine = LogFileEngine(path)
        engine.append(event_element(1, 10, 5))
        engine.close()
        record = {
            "op": "insert",
            "tt": 20,
            "surrogate": 2,
            "element": json.loads(
                v0_insert_line(2, 20, 6).strip()
            )["element"],
        }
        with open(path, "ab") as handle:
            handle.write(wal.frame_record(record))  # no commit marker
        reopened = LogFileEngine(path)
        assert [e.element_surrogate for e in reopened.scan()] == [1]
        assert reopened.last_recovery.discarded_records == 1
        reopened.close()

    def test_commit_marker_arity_mismatch_is_damage(self, tmp_path):
        path = str(tmp_path / "arity.wal")
        with open(path, "wb") as handle:
            handle.write(wal.MAGIC)
            handle.write(wal.commit_marker(3))  # claims 3 ops, none precede
        engine = LogFileEngine(path)
        assert len(engine) == 0
        assert "commit marker" in engine.last_recovery.damage
        engine.close()

    def test_empty_and_header_only_files_are_clean(self, tmp_path):
        path = str(tmp_path / "empty.wal")
        engine = LogFileEngine(path)
        assert engine.last_recovery is None  # nothing to recover
        engine.close()
        reopened = LogFileEngine(path)  # header-only file
        assert reopened.last_recovery.clean
        reopened.close()

    def test_repeated_recoveries_append_to_sidecar(self, tmp_path):
        path = str(tmp_path / "repeat.wal")
        sizes = []
        for round_number in (1, 2):
            engine = LogFileEngine(path)
            engine.append(event_element(round_number, round_number * 10, 5))
            size = engine.log_bytes()
            engine.close()
            with open(path, "r+b") as handle:
                handle.truncate(size - 2)  # tear this round's append
            recover_file(path)
            sizes.append(os.path.getsize(sidecar_path(path)))
        assert 0 < sizes[0] < sizes[1]  # quarantine accumulates, round on round
        engine = LogFileEngine(path)
        assert engine.last_recovery.clean and len(engine) == 0
        engine.close()


# -- batch frames: one frame per bulk, same crash semantics -------------------------


def batch_of(first_surrogate, count, tt):
    """*count* events with shuffled retroactive valid times, stamped
    ``tt, tt+1, ...`` (surrogates ascend from *first_surrogate*)."""
    return [
        event_element(first_surrogate + i, tt + i, tt - 1 - (7 * i) % 5, reading=i / 2)
        for i in range(count)
    ]


def legacy_batch_bytes(elements):
    """A batch as every release before batch frames wrote it: one frame
    per record, then the commit marker."""
    records = [LogFileEngine._insert_record(element) for element in elements]
    return b"".join(wal.frame_record(r) for r in records) + wal.commit_marker(len(records))


def replayed_op_by_op(path):
    """The mirror an operation-at-a-time replay of *path* builds -- the
    reference the bulk replay on open must equal."""
    mirror = MemoryEngine()
    for batch in read_log_batches(path):
        for operation in batch:
            if operation.kind is OperationKind.INSERT:
                mirror.append(operation.element)
            else:
                mirror.close_element(operation.element_surrogate, operation.tt)
    return mirror


def assert_same_state(engine, reference):
    """Same rows in the same order, same current state, same answer from
    the valid-time index at every stored valid time."""
    stored = list(reference.scan())
    assert list(engine.scan()) == stored
    assert engine.select(ScanSpec.of()) == reference.select(ScanSpec.of())
    pinned, expected = (
        TemporalRelation(TemporalSchema(name="r"), engine=e) for e in (engine, reference)
    )
    for vt in {element.vt for element in stored}:
        assert engine.select(ScanSpec.of(vt)) == reference.select(ScanSpec.of(vt))
        assert pinned.valid_at(vt, stored[-1].tt_start) == expected.valid_at(
            vt, stored[-1].tt_start
        )


@pytest.mark.faults
class TestBatchFrames:
    def build(self, path):
        """Two acknowledged bulks; returns their end offsets and states."""
        engine = LogFileEngine(path)
        engine.extend(batch_of(1, 4, 100))
        first = (engine.log_bytes(), signature(engine))
        engine.extend(batch_of(5, 5, 200))
        second = (engine.log_bytes(), signature(engine))
        engine.close()
        return first, second

    def test_a_bulk_is_one_frame_and_itself_the_commit(self, tmp_path):
        path = str(tmp_path / "one.wal")
        (first_end, _), (second_end, _) = self.build(path)
        with open(path, "rb") as handle:
            data = handle.read()
        length, crc = wal._FRAME_HEADER.unpack_from(data, first_end)
        assert first_end + wal._FRAME_HEADER.size + length == second_end == len(data)
        record = json.loads(data[first_end + wal._FRAME_HEADER.size :])
        assert record["op"] == wal.BATCH_OP and len(record["ops"]) == 5
        assert [len(batch) for batch in read_log_batches(path)] == [4, 5]

    def test_crash_at_every_byte_inside_a_batch_frame(self, tmp_path):
        path = str(tmp_path / "torn.wal")
        (first_end, first_state), (second_end, second_state) = self.build(path)
        with open(path, "rb") as handle:
            data = handle.read()
        crash = str(tmp_path / "crash.wal")
        for offset in range(first_end, second_end + 1):
            with open(crash, "wb") as handle:
                handle.write(data[:offset])
            if os.path.exists(sidecar_path(crash)):
                os.remove(sidecar_path(crash))
            engine = LogFileEngine(crash)
            whole = offset == second_end
            # Exactly the acknowledged bulks, never part of the torn one...
            assert signature(engine) == (second_state if whole else first_state)
            # ...and the torn bytes are quarantined, not destroyed.
            torn = 0 if whole else offset - first_end
            assert engine.last_recovery.truncated_bytes == torn
            assert os.path.getsize(crash) == (second_end if whole else first_end)
            if torn:
                assert os.path.getsize(sidecar_path(crash)) == torn
            else:
                assert not os.path.exists(sidecar_path(crash))
            engine.close()

    @pytest.mark.parametrize("kind", ["enospc", "torn", "short", "fsync"])
    def test_failed_batch_write_leaves_mirror_and_next_batch_replayable(self, tmp_path, kind):
        path = str(tmp_path / f"{kind}.wal")
        engine = LogFileEngine(path)
        engine.extend(batch_of(1, 4, 100))
        before = signature(engine)
        arm(engine, fail_at=1 if kind == "fsync" else 0, kind=kind)
        with pytest.raises(OSError):
            engine.extend(batch_of(5, 5, 200))
        assert signature(engine) == before  # the mirror never saw the batch
        assert engine.log_bytes() == os.path.getsize(path)  # tail repaired in-process
        engine.extend(batch_of(10, 3, 300))
        after = signature(engine)
        engine.close()
        reopened = LogFileEngine(path)
        assert reopened.last_recovery.clean
        assert signature(reopened) == after
        reopened.close()

    def test_bit_flip_anywhere_in_a_batch_frame_drops_it_and_what_follows(self, tmp_path):
        path = str(tmp_path / "flip.wal")
        engine = LogFileEngine(path)
        engine.extend(batch_of(1, 3, 100))
        kept = (engine.log_bytes(), signature(engine))
        engine.extend(batch_of(4, 3, 200))
        flipped_end = engine.log_bytes()
        engine.append(event_element(7, 300, 250))
        engine.extend(batch_of(8, 2, 400))
        engine.close()
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        damaged = str(tmp_path / "damaged.wal")
        for offset in range(kept[0], flipped_end):
            data[offset] ^= 0x10
            with open(damaged, "wb") as handle:
                handle.write(data)
            data[offset] ^= 0x10
            if os.path.exists(sidecar_path(damaged)):
                os.remove(sidecar_path(damaged))
            reopened = LogFileEngine(damaged)
            assert signature(reopened) == kept[1], f"flip at byte {offset}"
            assert os.path.getsize(damaged) == kept[0]
            reopened.close()

    def test_dry_run_counts_operations_inside_batch_frames(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "count.wal")
        self.build(path)
        _batches, report = recover_file(path, dry_run=True)
        assert (report.committed_batches, report.committed_operations) == (2, 9)
        assert main(["recover", path, "--dry-run"]) == 0
        assert "2 batches, 9 operations" in capsys.readouterr().out

    def test_max_record_bytes_still_bounds_a_frame(self, tmp_path, monkeypatch):
        path = str(tmp_path / "bound.wal")
        engine = LogFileEngine(path)
        engine.extend(batch_of(1, 2, 100))
        committed = engine.log_bytes()
        bound = committed - len(wal.MAGIC) - wal._FRAME_HEADER.size  # that frame's payload
        # A bulk too large for one frame falls back to per-record frames
        # under a commit marker -- still atomic, still replayable.
        monkeypatch.setattr(wal, "MAX_RECORD_BYTES", bound)
        engine.extend(batch_of(3, 4, 200))
        state = signature(engine)
        engine.close()
        with open(path, "rb") as handle:
            data = handle.read()
        length, _crc = wal._FRAME_HEADER.unpack_from(data, committed)
        assert length < bound and b'"op": "commit"' in data[committed:]
        with pytest.raises(ValueError, match="frame bound"):
            wal.frame_record({"op": "insert", "pad": "x" * bound})
        reopened = LogFileEngine(path)
        assert signature(reopened) == state
        reopened.close()
        # A reader meeting a longer length field calls it damage.
        monkeypatch.setattr(wal, "MAX_RECORD_BYTES", 100)
        result = wal.scan_wal(data)
        assert "implausible frame length" in result.damage
        assert result.committed_end == len(wal.MAGIC)

    def test_malformed_and_misplaced_batch_frames_are_damage(self, tmp_path):
        record = LogFileEngine._insert_record(event_element(1, 10, 5))
        good = wal.frame_record({"op": wal.BATCH_OP, "ops": [record]})
        for bad in (
            {"op": wal.BATCH_OP},
            {"op": wal.BATCH_OP, "ops": "insert"},
            {"op": wal.BATCH_OP, "ops": [record, {"op": wal.COMMIT_OP, "n": 1}]},
            {"op": wal.BATCH_OP, "ops": [record, 7]},
        ):
            result = wal.scan_wal(wal.MAGIC + good + wal.frame_record(bad) + good)
            assert len(result.batches) == 1 and "malformed batch frame" in result.damage
            assert result.committed_end == len(wal.MAGIC) + len(good)
        # A batch frame cannot commit the loose records before it.
        result = wal.scan_wal(wal.MAGIC + good + wal.frame_record(record) + good)
        assert len(result.batches) == 1 and result.uncommitted_records == 1
        assert "uncommitted" in result.damage


class TestBulkReplay:
    """Reopening replays runs of insertions through one bulk extend; the
    mirror must equal an operation-at-a-time replay of the same log."""

    def test_mixed_frame_forms_replay_to_the_op_by_op_state(self, tmp_path):
        path = str(tmp_path / "mixed.wal")
        with open(path, "wb") as handle:  # a log an earlier release wrote
            handle.write(wal.MAGIC + legacy_batch_bytes(batch_of(1, 4, 100)))
        engine = LogFileEngine(path)  # ...continued by this one
        assert engine.last_recovery.clean and len(engine) == 4
        engine.extend(batch_of(5, 5, 200))
        engine.close_element(2, Timestamp(300))
        engine.append(event_element(10, 310, 150))
        engine.close_element(7, Timestamp(320))
        engine.close()
        with open(path, "ab") as handle:  # and by the earlier one again
            handle.write(legacy_batch_bytes(batch_of(11, 3, 400)))
        live = LogFileEngine(path)
        live.extend(batch_of(14, 2, 500))
        live.close()

        assert [len(batch) for batch in read_log_batches(path)] == [4, 5, 1, 1, 1, 3, 2]
        reopened = LogFileEngine(path)
        assert reopened.last_recovery.clean
        assert_same_state(reopened, replayed_op_by_op(path))
        assert [e.element_surrogate for e in reopened.scan() if not e.is_current] == [2, 7]
        reopened.close()

    @settings(deadline=None, max_examples=25)
    @given(ops=crash_workloads())
    def test_bulk_replay_equals_op_by_op_replay(self, tmp_path_factory, ops):
        path = str(tmp_path_factory.mktemp("replay") / "log.wal")
        run_workload(path, True, ops)
        reopened = LogFileEngine(path)
        assert_same_state(reopened, replayed_op_by_op(path))
        reopened.close()
