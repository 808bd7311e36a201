"""Tests for JSON-lines backlog persistence."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, NEGATIVE_INFINITY, Timestamp
from repro.relation.element import Element
from repro.relation.errors import SchemaError
from repro.relation.schema import TemporalSchema, ValidTimeKind
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.backlog import Backlog
from repro.storage.columnar import POS_SENTINEL
from repro.storage.logfile import (
    LogFileEngine,
    dump_backlog,
    dump_operations,
    load_backlog,
    load_operations,
)


def event_element(surrogate, tt, vt, **varying):
    return Element(
        element_surrogate=surrogate,
        object_surrogate=f"obj-{surrogate}",
        tt_start=Timestamp(tt),
        vt=Timestamp(vt),
        time_varying=varying,
        user_times={"signed": Timestamp(vt - 1)},
    )


class TestRoundTrip:
    def test_file_roundtrip(self, tmp_path):
        backlog = Backlog()
        backlog.record_insert(event_element(1, 10, 5, v=1))
        backlog.record_insert(event_element(2, 20, 15, v="two"))
        backlog.record_delete(1, Timestamp(30))
        path = str(tmp_path / "ops.jsonl")
        assert dump_backlog(backlog, path) == 3

        loaded = load_backlog(path)
        assert len(loaded) == 3
        for tt in (10, 20, 25, 30, 100):
            assert loaded.state_at(Timestamp(tt)) == backlog.state_at(Timestamp(tt))
        reloaded = loaded.current_state()[2]
        assert reloaded.time_varying == {"v": "two"}
        assert reloaded.user_times == {"signed": Timestamp(14)}

    def test_interval_and_unbounded_endpoints(self, tmp_path):
        backlog = Backlog()
        backlog.record_insert(
            Element(
                element_surrogate=1,
                object_surrogate=None,
                tt_start=Timestamp(10),
                vt=Interval(Timestamp(0), FOREVER),
            )
        )
        path = str(tmp_path / "ops.jsonl")
        dump_backlog(backlog, path)
        loaded = load_backlog(path)
        element = loaded.current_state()[1]
        assert element.vt.end is FOREVER
        assert element.object_surrogate is None

    def test_modification_pairs_survive(self, tmp_path):
        backlog = Backlog()
        backlog.record_insert(event_element(1, 10, 5))
        backlog.record_modification(1, event_element(2, 20, 5))
        path = str(tmp_path / "ops.jsonl")
        dump_backlog(backlog, path)
        loaded = load_backlog(path)
        assert sorted(loaded.state_at(Timestamp(20))) == [2]
        assert sorted(loaded.state_at(Timestamp(19))) == [1]

    def test_blank_lines_ignored(self):
        stream = io.StringIO("\n\n")
        assert list(load_operations(stream)) == []

    def test_malformed_line_reports_number(self):
        stream = io.StringIO('{"op": "insert"\n')
        with pytest.raises(ValueError, match="line 1"):
            list(load_operations(stream))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=30))
    def test_property_roundtrip(self, script):
        backlog = Backlog()
        tt = 0
        surrogate = 0
        live = []
        for is_delete in script:
            tt += 1
            if is_delete and live:
                backlog.record_delete(live.pop(0), Timestamp(tt))
            else:
                surrogate += 1
                backlog.record_insert(event_element(surrogate, tt, tt - 1))
                live.append(surrogate)
        buffer = io.StringIO()
        dump_operations(backlog.operations, buffer)
        buffer.seek(0)
        replayed = Backlog()
        for operation in load_operations(buffer):
            if operation.element is not None:
                replayed.record_insert(operation.element)
            else:
                replayed.record_delete(operation.element_surrogate, operation.tt)
        for probe in range(0, tt + 2):
            assert replayed.state_at(Timestamp(probe)) == backlog.state_at(
                Timestamp(probe)
            )


class TestFormats:
    """Both on-disk formats replay to the same backlog."""

    def sample_backlog(self):
        backlog = Backlog()
        backlog.record_insert(event_element(1, 10, 5, v=1))
        backlog.record_modification(1, event_element(2, 20, 5, v=2))
        backlog.record_insert(event_element(3, 30, 25))
        backlog.record_delete(3, Timestamp(40))
        return backlog

    @pytest.mark.parametrize("format", ["v0", "v1"])
    def test_roundtrip_under_both_formats(self, tmp_path, format):
        backlog = self.sample_backlog()
        path = str(tmp_path / f"ops.{format}")
        assert dump_backlog(backlog, path, format=format) == 5
        loaded = load_backlog(path)
        for tt in (10, 19, 20, 30, 40, 99):
            assert loaded.state_at(Timestamp(tt)) == backlog.state_at(Timestamp(tt))

    def test_v0_dump_is_plain_json_lines(self, tmp_path):
        """The v0 writer still produces the original line format, readable
        by the strict v0 loader."""
        backlog = self.sample_backlog()
        path = str(tmp_path / "ops.jsonl")
        dump_backlog(backlog, path, format="v0")
        with open(path, encoding="utf-8") as handle:
            operations = list(load_operations(handle))
        assert len(operations) == 5

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown log format"):
            dump_backlog(Backlog(), str(tmp_path / "x"), format="v2")


class TestModificationLineage:
    """load_backlog pairs DELETE/INSERT into modifications by lineage,
    not by time-stamp coincidence alone."""

    def test_unrelated_same_stamp_ops_stay_separate(self, tmp_path):
        """A delete of object A and an insert of object B at the same tt
        must NOT merge into a (bogus) modification of A into B."""
        backlog = Backlog()
        backlog.record_insert(event_element(1, 10, 5))  # obj-1
        backlog.record_delete(1, Timestamp(30))
        backlog.record_insert(event_element(2, 30, 25), coincident=True)  # obj-2
        path = str(tmp_path / "ops.jsonl")
        dump_backlog(backlog, path, format="v0")
        # Strip the dump-time lineage markers: simulate a legacy log.
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace(', "replaced_by": 2', ""))
        loaded = load_backlog(path)
        for tt in (10, 29, 30, 31):
            assert loaded.state_at(Timestamp(tt)) == backlog.state_at(Timestamp(tt))
        # Not a modification: object lineages differ.
        ops = loaded.operations
        assert [op.kind.value for op in ops] == ["insert", "delete", "insert"]

    def test_same_object_same_stamp_pairs_as_modification(self, tmp_path):
        backlog = Backlog()
        backlog.record_insert(event_element(1, 10, 5))
        backlog.record_modification(1, event_element(2, 20, 6))
        path = str(tmp_path / "ops.jsonl")
        dump_backlog(backlog, path, format="v0")
        loaded = load_backlog(path)
        assert set(loaded.state_at(Timestamp(20))) == {2}
        assert set(loaded.state_at(Timestamp(19))) == {1}

    def test_coincident_runs_load(self, tmp_path):
        """Several operations sharing one transaction stamp (an engine
        batch) replay without tripping the strict-ordering check --
        the pre-fix loader raised ValueError here."""
        backlog = Backlog()
        backlog.record_insert(event_element(1, 10, 5))
        backlog.record_insert(event_element(2, 50, 45), coincident=True)
        backlog.record_insert(event_element(3, 50, 46), coincident=True)
        backlog.record_delete(2, Timestamp(50), coincident=True)
        path = str(tmp_path / "ops.jsonl")
        dump_backlog(backlog, path, format="v0")
        loaded = load_backlog(path)
        assert set(loaded.state_at(Timestamp(50))) == {1, 3}
        assert set(loaded.state_at(Timestamp(49))) == {1}


def micro(coordinate):
    return Timestamp(coordinate, "microsecond")


class TestSentinelCoordinates:
    """A valid time at or beyond the +-2**62 microsecond sentinels would
    read back from the log as an unbounded endpoint, so the write
    boundary refuses it; every stamp it accepts round-trips exactly."""

    CASES = {
        "event": (
            [micro(POS_SENTINEL - 1), micro(1 - POS_SENTINEL), Timestamp(10)],
            [micro(POS_SENTINEL), micro(POS_SENTINEL + 5), micro(-POS_SENTINEL)],
        ),
        "interval": (
            [
                Interval(Timestamp(10), micro(POS_SENTINEL - 1)),
                Interval(micro(1 - POS_SENTINEL), Timestamp(10)),
                Interval(Timestamp(10), FOREVER),
                Interval(NEGATIVE_INFINITY, Timestamp(10)),
            ],
            [
                Interval(Timestamp(10), micro(POS_SENTINEL)),
                Interval(Timestamp(10), micro(POS_SENTINEL + 1)),
                Interval(micro(-POS_SENTINEL), Timestamp(10)),
            ],
        ),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_refused_at_the_write_boundary_and_exact_after_reopen(self, tmp_path, kind):
        accepted, refused = self.CASES[kind]
        path = str(tmp_path / "r.wal")
        schema = TemporalSchema(name="r", valid_time_kind=ValidTimeKind(kind))
        engine = LogFileEngine(path, fsync=False)
        relation = TemporalRelation(schema, engine=engine)
        stored = [relation.insert("o", vt) for vt in accepted]
        for vt in refused:
            with pytest.raises(SchemaError):
                relation.insert("o", vt)
            with pytest.raises(SchemaError):  # the whole batch
                relation.append_many([("o", accepted[0]), ("o", vt)])
            with pytest.raises(SchemaError):
                relation.modify(stored[0].element_surrogate, vt=vt)
        stored += relation.append_many([("o", vt) for vt in accepted])
        assert relation.all_elements() == stored
        engine.close()
        with LogFileEngine(path, fsync=False) as reopened:
            assert list(reopened.scan()) == stored
            assert [element.vt for element in reopened.scan()] == accepted + accepted
