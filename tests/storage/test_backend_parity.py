"""Differential engine parity: one workload, three engines, one answer.

A random workload script -- single inserts, ``append_many`` batches,
batches that are *rejected* by a declared specialization, and logical
deletions -- is replayed through two relations that differ only in
their storage engine (memory, log file).  Each relation gets its own
:class:`LogicalClock` started at the same tick, so both stamp every
operation identically; afterwards the visible contents and the answers
to rollback / timeslice queries must agree element for element.

The log-file relation is then closed and re-opened from disk, and the
replayed engine -- the third -- must still agree: the durability half
of the parity claim.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, strategies as st

from repro.chronos.timestamp import FOREVER, Timestamp
from repro.core.constraints import ConstraintViolation
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.chronos.clock import LogicalClock
from repro.storage.columnar import ScanSpec
from repro.storage.logfile import LogFileEngine
from tests.strategies import OBJECTS, insert_rows, json_safe_attributes

pytestmark = pytest.mark.slow

#: Every compliant valid time is in [0, 999]; the clocks start at 1000,
#: so the declared ``retroactive`` specialization (vt <= tt) holds.
CLOCK_START = 1000
COMPLIANT_VT = st.integers(min_value=0, max_value=999)

#: A valid time no transaction stamp in these workloads ever reaches:
#: guaranteed to violate ``retroactive`` and poison its whole batch.
POISON_VT = Timestamp(10_000_000)


def make_relation(engine=None) -> TemporalRelation:
    schema = TemporalSchema(
        name="parity",
        time_varying=("reading",),
        specializations=["retroactive"],
    )
    return TemporalRelation(schema, clock=LogicalClock(start=CLOCK_START), engine=engine)


@st.composite
def workload_scripts(draw):
    """A replayable operation script plus query probe coordinates."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(["insert", "batch", "reject", "delete"]))
        if kind == "insert":
            ops.append(
                (
                    "insert",
                    draw(OBJECTS),
                    draw(COMPLIANT_VT),
                    draw(json_safe_attributes()),
                )
            )
        elif kind == "batch":
            rows = draw(insert_rows(min_size=1, max_size=6, vt_ticks=COMPLIANT_VT))
            ops.append(("batch", rows))
        elif kind == "reject":
            rows = draw(insert_rows(min_size=0, max_size=4, vt_ticks=COMPLIANT_VT))
            rows.insert(
                draw(st.integers(min_value=0, max_value=len(rows))),
                ("poison", POISON_VT, {"reading": -1}),
            )
            ops.append(("reject", rows))
        else:
            ops.append(("delete", draw(st.integers(min_value=0, max_value=31))))
    probe_tts = draw(
        st.lists(
            st.integers(min_value=CLOCK_START - 2, max_value=CLOCK_START + 80),
            min_size=1,
            max_size=4,
        )
    )
    probe_vts = draw(st.lists(COMPLIANT_VT, min_size=1, max_size=4))
    return ops, probe_tts, probe_vts


def replay(relation: TemporalRelation, ops) -> None:
    for op in ops:
        if op[0] == "insert":
            _, object_surrogate, vt_tick, attributes = op
            relation.insert(object_surrogate, Timestamp(vt_tick), attributes)
        elif op[0] == "batch":
            relation.append_many(op[1])
        elif op[0] == "reject":
            with pytest.raises(ConstraintViolation):
                relation.append_many(op[1])
        else:
            current = sorted(relation.current(), key=lambda e: e.element_surrogate)
            if current:
                relation.delete(current[op[1] % len(current)].element_surrogate)


def canonical(elements) -> list:
    """Engine-independent view of an element set: everything that must
    agree across backends, on the exact microsecond time-line."""
    rows = []
    for element in elements:
        rows.append(
            (
                element.element_surrogate,
                element.object_surrogate,
                element.tt_start.microseconds,
                None if element.tt_stop is FOREVER else element.tt_stop.microseconds,
                element.vt.microseconds,
                tuple(sorted(element.time_varying.items(), key=lambda kv: kv[0])),
            )
        )
    return sorted(rows)


@given(workload_scripts())
def test_three_engines_agree_on_every_view(tmp_path_factory, script):
    ops, probe_tts, probe_vts = script
    log_path = os.path.join(
        str(tmp_path_factory.mktemp("parity")), "relation.jsonl"
    )

    memory = make_relation()
    logfile = make_relation(engine=LogFileEngine(log_path))
    try:
        replay(memory, ops)
        replay(logfile, ops)

        expected = canonical(memory.all_elements())
        assert canonical(logfile.all_elements()) == expected

        expected_current = canonical(memory.current())
        assert canonical(logfile.current()) == expected_current

        for tick in probe_tts:
            tt = Timestamp(tick)
            assert canonical(logfile.as_of(tt)) == canonical(memory.as_of(tt))

        for tick in probe_vts:
            vt = Timestamp(tick)
            assert canonical(logfile.valid_at(vt)) == canonical(memory.valid_at(vt))

        # Versions moved in lockstep: one bump per accepted operation.
        assert memory.version == logfile.version

        # Durability: close the log and replay it from disk; the
        # re-opened mirror must reproduce the same element set.
        logfile.engine.close()
        with LogFileEngine(log_path) as reopened:
            def read(vt=None, as_of=None):
                return canonical(reopened.select(ScanSpec.of(vt, as_of))[0])

            assert canonical(reopened.scan()) == expected
            assert read() == expected_current
            # The log replays in bulk (runs of insertions through one
            # extend); its indexes must answer as the live mirror's did.
            for tick in probe_tts:
                assert read(as_of=Timestamp(tick)) == canonical(memory.as_of(Timestamp(tick)))
            for tick in probe_vts:
                assert read(Timestamp(tick)) == canonical(memory.valid_at(Timestamp(tick)))
    finally:
        logfile.engine.close()
