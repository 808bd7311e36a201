"""Stateful model-based testing of the temporal relation.

A hypothesis state machine drives a :class:`TemporalRelation` through
random insert / logical-delete / modify sequences while maintaining a
plain-Python reference model of every historical state.  The relation
is drawn per example: a storage topology from
:func:`tests.strategies.topologies`, either in memory or log-backed.
The log-backed arm has a ``reopen`` rule: close the log, replay it
under a fresh relation on the same clock, and continue.  Invariants
checked after every step:

* the current state matches the model;
* rollback at every past transaction time matches the model's recorded
  state sequence (stepwise-constant semantics, Section 2), and its
  response body is the reference encoder's bytes for a full scan's rows;
* element surrogates are never reused;
* the backlog view reconstructs exactly the same states (a reopened
  relation rebuilds its backlog from the replayed elements).
"""

import os
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.duration import Duration
from repro.chronos.timestamp import Timestamp
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.server import protocol
from repro.storage.logfile import LogFileEngine
from tests.strategies import topologies


class TemporalRelationMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = SimulatedWallClock(start=0)
        self.schema = TemporalSchema(name="model", time_varying=("v",), enforce_key=False)
        self.topology = None
        self.relation = None
        #: The log-backed arm's directory (None: the in-memory arm).
        self.directory = None
        #: tt microseconds -> frozenset of live surrogates after that txn
        self.state_history = {}
        self.live = set()
        self.all_surrogates = set()

    @initialize(topology=topologies(), logged=st.booleans())
    def open_relation(self, topology, logged):
        self.topology = topology
        if logged:
            self.directory = tempfile.mkdtemp(prefix="stateful-model-")
        self.relation = self._open()

    def _open(self):
        if self.directory is None:
            return self.topology.relation(self.schema, clock=self.clock)
        tier_dir = os.path.join(self.directory, "tier") if self.topology.tiered else None
        engine = LogFileEngine(
            os.path.join(self.directory, "model.wal"),
            fsync=False,
            segment_size=self.topology.segment_size,
            tier_dir=tier_dir,
        )
        relation = TemporalRelation(self.schema, clock=self.clock, engine=engine)
        if self.topology.current_view:
            relation.views.register_current()
        return relation

    def teardown(self):
        try:
            if self.relation is not None:
                self.topology.close(self.relation)
        finally:
            if self.directory is not None:
                shutil.rmtree(self.directory, ignore_errors=True)

    def _record(self, tt):
        self.state_history[tt.microseconds] = frozenset(self.live)

    @rule(vt_offset=st.integers(-50, 50), advance=st.integers(1, 20), v=st.integers())
    def insert(self, vt_offset, advance, v):
        self.clock.advance(Duration(advance))
        tt_before = self.clock.peek()
        element = self.relation.insert(
            "obj", Timestamp(tt_before.ticks + vt_offset), {"v": v}
        )
        assert element.element_surrogate not in self.all_surrogates, "surrogate reuse"
        self.all_surrogates.add(element.element_surrogate)
        self.live.add(element.element_surrogate)
        self._record(element.tt_start)

    @precondition(lambda self: self.live)
    @rule(advance=st.integers(1, 20), which=st.integers(0, 10**6))
    def delete(self, advance, which):
        self.clock.advance(Duration(advance))
        victim = sorted(self.live)[which % len(self.live)]
        closed = self.relation.delete(victim)
        self.live.discard(victim)
        self._record(closed.tt_stop)

    @precondition(lambda self: self.live)
    @rule(advance=st.integers(1, 20), which=st.integers(0, 10**6), v=st.integers())
    def modify(self, advance, which, v):
        self.clock.advance(Duration(advance))
        old = sorted(self.live)[which % len(self.live)]
        replacement = self.relation.modify(old, attributes={"v": v})
        assert replacement.element_surrogate not in self.all_surrogates, "surrogate reuse"
        self.all_surrogates.add(replacement.element_surrogate)
        self.live.discard(old)
        self.live.add(replacement.element_surrogate)
        self._record(replacement.tt_start)

    @precondition(lambda self: self.directory is not None)
    @rule()
    def reopen(self):
        self.topology.close(self.relation)
        self.relation = None  # teardown must not close it twice if the reopen raises
        self.relation = self._open()

    @invariant()
    def current_state_matches_model(self):
        observed = {e.element_surrogate for e in self.relation.current()}
        assert observed == self.live

    @invariant()
    def rollback_matches_every_recorded_state(self):
        stored = self.relation.all_elements()
        for tt_micro, expected in self.state_history.items():
            stamp = Timestamp(tt_micro, "microsecond")
            rows = self.relation.as_of(stamp)
            observed = frozenset(e.element_surrogate for e in rows)
            assert observed == expected, f"rollback mismatch at tt={tt_micro}"
            # Against a full scan: rows in its (engine = wire) order, which
            # lets a body skip its sort, and the rollback route's body
            # byte-equal to the reference encoder's.
            reference = [e for e in stored if e.stored_during(stamp)]
            assert [e.element_surrogate for e in rows] == [
                e.element_surrogate for e in reference
            ], f"rollback order mismatch at tt={tt_micro}"
            assert protocol.element_rows_body({}, rows) == protocol.canonical_json(
                {"rows": protocol.elements_to_json(reference)}
            ), f"rollback body mismatch at tt={tt_micro}"

    @invariant()
    def backlog_agrees_with_engine(self):
        backlog = self.relation.backlog()
        for tt_micro, expected in self.state_history.items():
            stamp = Timestamp(tt_micro, "microsecond")
            assert frozenset(backlog.state_at(stamp)) == expected

    @invariant()
    def stepwise_constant_between_transactions(self):
        # Probe one microsecond after each transaction: the state must
        # be unchanged until the next transaction.
        recorded = sorted(self.state_history)
        for tt_micro in recorded:
            probe = Timestamp(tt_micro + 1, "microsecond")
            observed = frozenset(
                e.element_surrogate for e in self.relation.as_of(probe)
            )
            assert observed == self.state_history[tt_micro]


TestTemporalRelationModel = TemporalRelationMachine.TestCase
TestTemporalRelationModel.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
