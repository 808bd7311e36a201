"""Reusable Hypothesis strategies for the property and differential suites.

Historically these lived in ``tests/conftest.py``; they are now a
standalone module so property suites can import them explicitly, while
``conftest`` keeps re-exporting the original names.

Three groups:

* stamp-level strategies (``timestamps``, ``intervals``) and the
  taxonomy-level ``Stamped`` strategies the constraint suites use;
* relation-level strategies (``insert_rows``, ``json_safe_attributes``)
  producing the ``(object_surrogate, vt, attributes)`` rows that
  :meth:`TemporalRelation.append_many` ingests -- attribute values are
  JSON-safe so the same workload replays through the log-file engine
  and the wire -- and ``wire_elements``, whole stored elements
  covering everything the canonical wire codec has to spell;
* ``specialization_declarations`` -- declared-specialization lists in
  the textual form :func:`repro.core.taxonomy.registry.parse` accepts,
  paired with an offset strategy that generates *compliant* ``vt - tt``
  offsets for them;
* ``topologies`` -- storage configurations (segment size, cold tier,
  a registered current view), drawn per example.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from hypothesis import strategies as st

from repro.chronos.interval import Interval
from repro.chronos.timestamp import FOREVER, NEGATIVE_INFINITY, Timestamp
from repro.core.taxonomy.base import Stamped
from repro.relation.element import Element
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.logfile import LogFileEngine
from repro.storage.memory import MemoryEngine
from repro.storage.tiered import TierManager
from repro.storage.vacuum import vacuum_relation

# Keep coordinates small enough that all arithmetic stays fast but large
# enough to exercise every ordering of endpoints.
TICKS = st.integers(min_value=-1_000, max_value=1_000)
SMALL_TICKS = st.integers(min_value=0, max_value=60)

#: A small pool of object surrogates, so workloads revisit objects.
OBJECTS = st.sampled_from(["alpha", "beta", "gamma", "delta"])

#: Attribute values that survive a JSON round-trip unchanged (the
#: log-file engine and the wire serialize attributes as JSON).
JSON_SAFE_VALUES = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
)


@st.composite
def timestamps(draw, ticks=TICKS):
    return Timestamp(draw(ticks))


@st.composite
def intervals(draw, ticks=TICKS):
    start = draw(ticks)
    length = draw(st.integers(min_value=1, max_value=100))
    return Interval(Timestamp(start), Timestamp(start + length))


@st.composite
def event_elements(draw, max_offset: int = 50):
    """A single event-stamped element with bounded |vt - tt|."""
    tt = draw(st.integers(min_value=0, max_value=10_000))
    offset = draw(st.integers(min_value=-max_offset, max_value=max_offset))
    return Stamped(tt_start=Timestamp(tt), vt=Timestamp(tt + offset))


@st.composite
def event_extensions(draw, min_size: int = 1, max_size: int = 12, max_offset: int = 50):
    """An extension with unique, increasing transaction times."""
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    tts = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=10_000),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
    )
    elements = []
    for tt in tts:
        offset = draw(st.integers(min_value=-max_offset, max_value=max_offset))
        elements.append(Stamped(tt_start=Timestamp(tt), vt=Timestamp(tt + offset)))
    return elements


@st.composite
def interval_extensions(draw, min_size: int = 1, max_size: int = 10):
    """An interval-stamped extension with unique transaction times."""
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    tts = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=10_000),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
    )
    elements = []
    for tt in tts:
        start = draw(st.integers(min_value=-100, max_value=10_100))
        length = draw(st.integers(min_value=1, max_value=60))
        elements.append(
            Stamped(
                tt_start=Timestamp(tt),
                vt=Interval(Timestamp(start), Timestamp(start + length)),
            )
        )
    return elements


# -- relation-level strategies ---------------------------------------------------


@st.composite
def json_safe_attributes(draw, varying=("reading",)):
    """Attribute dicts for the declared time-varying attributes."""
    return {name: draw(JSON_SAFE_VALUES) for name in varying}


@st.composite
def insert_rows(draw, min_size=0, max_size=20, vt_ticks=SMALL_TICKS, varying=("reading",)):
    """Rows for ``append_many``: ``(object, vt, attributes)`` triples."""
    count = draw(st.integers(min_value=min_size, max_value=max_size))
    return [
        (
            draw(OBJECTS),
            Timestamp(draw(vt_ticks)),
            draw(json_safe_attributes(varying=varying)),
        )
        for _ in range(count)
    ]


#: Attribute values the wire codec must spell exactly: escapes,
#: non-ASCII text, floats, and nested containers with unsorted keys.
WIRE_VALUES = st.recursive(
    st.one_of(
        JSON_SAFE_VALUES,
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(
            ["caf\u00e9", "\u6e29\u5ea6", 'say "hi"', "back\\slash", "tab\tline\n", "\u2028"]
        ),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=6,
)


@st.composite
def wire_elements(draw, max_size=12):
    """Stored elements with unique surrogates, in arbitrary order:
    event and interval stamps (unbounded endpoints included), current
    and closed, with user-defined times and :data:`WIRE_VALUES`
    attributes.  Transaction times collide, so canonical order falls
    back on the surrogate."""
    surrogates = draw(st.lists(st.integers(0, 10_000), max_size=max_size, unique=True))
    elements = []
    for surrogate in surrogates:
        tt = draw(st.integers(min_value=0, max_value=6))
        if draw(st.booleans()):
            vt = Timestamp(draw(TICKS))
        else:
            start = draw(st.one_of(st.just(NEGATIVE_INFINITY), timestamps()))
            end = draw(st.one_of(st.just(FOREVER), timestamps(st.integers(1_001, 2_000))))
            vt = Interval(start, end)
        closed = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=50)))
        elements.append(
            Element(
                element_surrogate=surrogate,
                object_surrogate=draw(st.one_of(OBJECTS, st.integers(0, 99))),
                tt_start=Timestamp(tt),
                vt=vt,
                tt_stop=FOREVER if closed is None else Timestamp(tt + closed),
                time_invariant=draw(st.dictionaries(st.text(max_size=4), WIRE_VALUES, max_size=2)),
                time_varying=draw(st.dictionaries(st.text(max_size=4), WIRE_VALUES, max_size=2)),
                user_times=draw(
                    st.dictionaries(st.sampled_from(["observed", "filed"]), timestamps(), max_size=2)
                ),
            )
        )
    return elements


# -- declared specializations with compliant workloads ----------------------------

#: Per-offset-range declarations: ``vt = tt + offset`` with offset drawn
#: from the given inclusive range is always compliant.
_OFFSET_RANGES = {
    (): (-50, 50),
    ("retroactive",): (-50, 0),
    ("predictive",): (0, 50),
    ("strongly bounded(5s, 5s)",): (-5, 5),
    ("retroactively bounded(30s)",): (-30, 50),
}

#: Every event declaration tuple :func:`compliant_vt_ticks` can build
#: data for.  The planner property suite iterates these.
EVENT_DECLARATIONS = tuple(
    sorted(
        list(_OFFSET_RANGES)
        + [
            ("degenerate",),
            ("globally non-decreasing",),
            ("globally non-increasing",),
            ("globally sequential",),
        ]
    )
)


@st.composite
def compliant_vt_ticks(draw, names, count):
    """Valid-time ticks compliant with *names* for dense stamping.

    Compliance is guaranteed when element i is stored at ``tt = i`` --
    the stamp sequence a single ``append_many`` batch (or unit-spaced
    single inserts) produces.
    """
    if names == ("degenerate",):
        return list(range(count))
    if names == ("globally sequential",):
        # max(tt_i, vt_i) = i + b_i <= i + 1 = min(tt_{i+1}, vt_{i+1}).
        return [i + draw(st.integers(min_value=0, max_value=1)) for i in range(count)]
    if names == ("globally non-decreasing",):
        value = draw(st.integers(min_value=-20, max_value=20))
        ticks = []
        for _ in range(count):
            ticks.append(value)
            value += draw(st.integers(min_value=0, max_value=3))
        return ticks
    if names == ("globally non-increasing",):
        value = draw(st.integers(min_value=-20, max_value=20))
        ticks = []
        for _ in range(count):
            ticks.append(value)
            value -= draw(st.integers(min_value=0, max_value=3))
        return ticks
    low, high = _OFFSET_RANGES[names]
    return [
        i + draw(st.integers(min_value=low, max_value=high)) for i in range(count)
    ]


@st.composite
def region_declarations(draw, name):
    """The Section 3.1 region *name* as a declared specialization with
    drawn bounds, plus the inclusive tick range its offsets may take.

    Bounds are whole seconds: a line below ``vt = tt`` sits at
    ``-far`` (or ``-near`` when it bounds from above), a line above it
    at ``+near`` (``+far`` from above), with ``0 < near < far`` -- so
    two same-kind lines never cross.  Every two-bound isolated-event
    constructor takes the smaller magnitude first (``strongly bounded``
    gets ``far`` twice).  Unbounded sides are capped at 50 ticks for the
    workload only.
    """
    from repro.chronos.duration import Duration
    from repro.core.taxonomy import regions
    from repro.core.taxonomy.registry import REGISTRY

    shape = regions.enumerate_regions()[name]
    near = draw(st.integers(min_value=1, max_value=10))
    far = near + draw(st.integers(min_value=1, max_value=20))
    below, on, above = regions.LINE_KIND_BELOW, regions.LINE_KIND_ON, regions.LINE_KIND_ABOVE
    lower = {None: None, below: -far, on: 0, above: near}[shape.lower_kind]
    upper = {None: None, below: -near, on: 0, above: far}[shape.upper_kind]
    magnitudes = sorted(abs(offset) for offset in (lower, upper) if offset)
    specialization = REGISTRY[name]([Duration(m, "second") for m in magnitudes])
    assert regions.shape_of(specialization.region()) == shape
    return specialization, (-50 if lower is None else lower, 50 if upper is None else upper)


@st.composite
def specialization_declarations(draw):
    """One of the event declaration tuples the planner exploits."""
    return draw(st.sampled_from(EVENT_DECLARATIONS))


# -- storage topologies ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Topology:
    """One storage configuration, spelled in constructor arguments.

    Answers are byte-identical across topologies by construction, so a
    suite draws one per example instead of running once per
    configuration.
    """

    segment_size: Optional[int] = None
    tiered: bool = False
    current_view: bool = False

    def relation(self, schema, **options) -> TemporalRelation:
        """A fresh relation on this topology (*options* go to
        :class:`TemporalRelation`)."""
        tiering = TierManager(cache_segments=1) if self.tiered else None
        engine = MemoryEngine(segment_size=self.segment_size, tier_manager=tiering)
        relation = TemporalRelation(schema, engine=engine, **options)
        if self.current_view:
            relation.views.register_current()
        return relation

    def close(self, relation: TemporalRelation) -> None:
        """End an example: the view arm's rows must equal
        ``relation.current()``; then release the tier directory."""
        try:
            if self.current_view:
                assert relation.views.get("current").snapshot() == relation.current()
        finally:
            relation.engine.close()


_SHAPES = (
    Topology(),
    Topology(segment_size=4),
    Topology(segment_size=4, tiered=True),
)


def topologies():
    """The flat default store, 4-element segments, or the cold tier over
    4-element segments with a one-segment decode cache -- each with or
    without a registered ``current`` view."""
    return st.builds(dataclasses.replace, st.sampled_from(_SHAPES), current_view=st.booleans())


#: Every arm :func:`topologies` draws, for a suite that runs each one.
TOPOLOGIES = tuple(
    dataclasses.replace(shape, current_view=view) for shape in _SHAPES for view in (False, True)
)


# -- standing-view differential harness ------------------------------------------

#: View kinds the workload runner can register mid-stream.  ``watch``
#: is library-only (arbitrary predicate); the other three mirror the
#: server's registration surface.
STANDING_VIEW_KINDS = ("current", "timeslice", "overlap", "watch")


@st.composite
def standing_view_ops(draw, min_ops=6, max_ops=24):
    """A randomized mutation/maintenance script for standing views.

    Each op is a tagged tuple :func:`run_standing_view_workload`
    interprets against a live relation: inserts (single and batch),
    deletes and modifies of randomly chosen live elements, view
    registrations *mid-workload*, and the two maintenance events that
    historically eat caches -- vacuum (engine replacement) and segment
    compaction (tier migration).  Delete/modify carry an index that the
    runner resolves modulo the live set, so scripts shrink well and
    never reference dangling surrogates.
    """
    op = st.one_of(
        st.tuples(st.just("insert"), OBJECTS, SMALL_TICKS, st.integers(1, 12)),
        st.tuples(
            st.just("batch"),
            st.lists(
                st.tuples(OBJECTS, SMALL_TICKS, st.integers(1, 12)),
                min_size=1,
                max_size=5,
            ),
        ),
        st.tuples(st.just("delete"), st.integers(0, 63)),
        st.tuples(st.just("modify"), st.integers(0, 63), SMALL_TICKS, st.integers(1, 12)),
        st.tuples(st.just("register"), st.sampled_from(STANDING_VIEW_KINDS), SMALL_TICKS),
        st.tuples(st.just("vacuum"), st.integers(0, 80)),
        st.tuples(st.just("compact")),
    )
    return draw(st.lists(op, min_size=min_ops, max_size=max_ops))


def _workload_vt(schema, tick, length):
    """A valid time matching *schema*'s kind from workload coordinates."""
    if schema.is_event:
        return Timestamp(tick)
    return Interval(Timestamp(tick), Timestamp(tick + length))


def vacuum(relation, horizon) -> None:
    """:func:`vacuum_relation`, except that a log-backed relation must
    refuse (its log is the durable history) and keep its engine."""
    engine = relation.engine
    if not isinstance(engine, LogFileEngine):
        vacuum_relation(relation, horizon)
        return
    try:
        vacuum_relation(relation, horizon)
    except ValueError:
        assert relation.engine is engine
    else:
        raise AssertionError("a log-backed relation was vacuumed")


def run_standing_view_workload(relation, ops, check_after_every_op=True):
    """Drive *ops* against *relation*; differentially check every view.

    Views register mid-workload (per the script); after every op, each
    registered view's delta-maintained snapshot must equal a
    from-scratch recomputation over the engine -- byte-identical
    elements in canonical transaction-time order.  Vacuum and
    compaction interleave with the mutation stream exactly as a
    production maintenance schedule would.  Returns the registered
    views so callers can make end-state assertions.
    """
    views = []
    serial = 0

    def check():
        for view in views:
            maintained = view.snapshot()
            recomputed = view.recompute()
            assert maintained == recomputed, (
                f"standing view {view.name!r} diverged from recomputation:\n"
                f"  maintained: {maintained!r}\n"
                f"  recomputed: {recomputed!r}"
            )

    for op in ops:
        kind = op[0]
        if kind == "insert":
            relation.insert(op[1], _workload_vt(relation.schema, op[2], op[3]))
        elif kind == "batch":
            relation.append_many(
                [
                    (obj, _workload_vt(relation.schema, tick, length))
                    for obj, tick, length in op[1]
                ]
            )
        elif kind == "delete":
            live = relation.current()
            if live:
                relation.delete(live[op[1] % len(live)].element_surrogate)
        elif kind == "modify":
            live = relation.current()
            if live:
                relation.modify(
                    live[op[1] % len(live)].element_surrogate,
                    vt=_workload_vt(relation.schema, op[2], op[3]),
                )
        elif kind == "register":
            serial += 1
            name = f"standing-{serial}"
            registry = relation.views
            if op[1] == "current":
                views.append(registry.register_current(name))
            elif op[1] == "timeslice":
                views.append(registry.register_timeslice(name, Timestamp(op[2])))
            elif op[1] == "overlap":
                views.append(
                    registry.register_overlap(
                        name, Interval(Timestamp(op[2]), Timestamp(op[2] + 10))
                    )
                )
            else:
                views.append(
                    registry.register_watch(
                        name, lambda element: element.object_surrogate == "alpha"
                    )
                )
        elif kind == "vacuum":
            vacuum(relation, Timestamp(op[1]))
        elif kind == "compact":
            relation.engine.store.compact()
        else:  # pragma: no cover - strategy and runner must stay in sync
            raise AssertionError(f"unknown workload op {op!r}")
        if check_after_every_op:
            check()
    check()
    return views
