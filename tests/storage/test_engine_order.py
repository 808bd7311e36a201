"""Every read an element-row body joins comes back in engine order.

:func:`repro.server.protocol.element_rows_body` joins its rows as they
come and never sorts them, because the store refuses a ``tt_start``
that does not strictly increase.  This is the property that trust rests
on: every producer whose rows a body joins -- the engine read
(``engine.select``) on each of its paths, the current-state feed
(``iter_current``, also after its view is rebuilt), standing-view
snapshots and a TQL ``WHERE`` result -- returns rows whose ``tt_start``
strictly increases, on every storage topology, with deletes closing
rows in hot and in cold (patched) segments.
"""

from __future__ import annotations

from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chronos.clock import LogicalClock
from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, Timestamp
from repro.query import tql
from repro.relation.element import Element
from repro.relation.schema import TemporalSchema, ValidTimeKind
from repro.storage.columnar import ScanSpec
from tests.strategies import topologies


def _in_engine_order(rows: List[Element]) -> bool:
    stamps = [row.tt_start.microseconds for row in rows]
    return all(earlier < later for earlier, later in zip(stamps, stamps[1:]))


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_every_producer_a_body_trusts_returns_strictly_increasing_tt_start(data) -> None:
    topology = data.draw(topologies(), label="topology")
    interval = data.draw(st.booleans(), label="interval")
    schema = TemporalSchema(
        name="ordered",
        valid_time_kind=ValidTimeKind.INTERVAL if interval else ValidTimeKind.EVENT,
        time_varying=("reading",),
    )
    relation = topology.relation(schema, clock=LogicalClock(start=1_000))
    try:
        probe = Timestamp(data.draw(st.integers(0, 9), label="probe"))
        window = Interval(Timestamp(2), Timestamp(6))
        views = relation.views
        views.register_timeslice("slice", probe)
        views.register_overlap("window", window)
        starts = data.draw(st.lists(st.integers(0, 9), min_size=12, max_size=32), label="vts")

        def rows(first: int, vts: List[int]) -> list:
            return [
                (
                    f"sensor-{(first + offset) % 5}",
                    Interval(Timestamp(vt), Timestamp(vt + 3)) if interval else Timestamp(vt),
                    {"reading": first + offset},
                )
                for offset, vt in enumerate(vts)
            ]

        relation.append_many(rows(0, starts))
        stored = relation.as_of(FOREVER)
        pin = relation.pin_epoch().as_of
        # The first and last rows always close (a cold segment's patch on
        # the tiered topology, and a hot row), then a drawn handful more.
        middle = [element.element_surrogate for element in stored[1:-1]]
        drawn = data.draw(st.sets(st.sampled_from(middle), max_size=6), label="victims")
        for surrogate in [stored[0].element_surrogate, stored[-1].element_surrogate, *drawn]:
            relation.delete(surrogate)
        if topology.tiered:
            assert relation.engine.store.tiering.has_patches(0)
        later = data.draw(st.lists(st.integers(0, 9), max_size=6), label="later")
        relation.append_many(rows(len(starts), later))

        engine = relation.engine
        reads: Dict[str, List[Element]] = {}
        for label, as_of in (("live", None), ("pinned", pin), ("now", relation.pin_epoch().as_of)):
            for kind, vt in (("current", None), ("timeslice", probe), ("overlap", window)):
                reads[f"{kind} {label}"], _examined = engine.select(ScanSpec.of(vt, as_of))
        reads["rollback"] = relation.as_of(pin)
        reads["snapshot slice"] = views.get("slice").snapshot()
        reads["snapshot window"] = views.get("window").snapshot()
        reads["where"] = tql.execute("SELECT * FROM ordered WHERE reading >= 3", relation)
        reads["where overlap"] = tql.execute(
            "SELECT * FROM ordered VALID OVERLAPS [2s, 6s) WHERE reading != 4", relation
        )
        reads["where as of"] = tql.execute(
            f"SELECT * FROM ordered AS OF {pin.microseconds}us WHERE reading < 20", relation
        )
        engine.store.invalidate_view()
        reads["iter_current rebuilt"] = list(engine.store.iter_current())
        reads["current rebuilt"] = relation.current()

        assert len(reads["current live"]) == len(starts) + len(later) - 2 - len(drawn)
        assert reads["current rebuilt"] == reads["current live"]
        for label, found in reads.items():
            assert _in_engine_order(found), (label, [e.tt_start for e in found])
    finally:
        topology.close(relation)
