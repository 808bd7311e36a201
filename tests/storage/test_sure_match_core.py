"""The sure-match core: a declared band accepts rows as well as skips them.

A two-sided Figure 1 region ``low <= vt - tt <= high`` confines a
window's matches to the transaction times ``planner.windowed`` narrows
the scan to, and proves every row stamped in ``[first - low, last -
high]`` a match whatever its valid time (``OffsetRegion.tt_core``).
``SegmentedStore.select`` returns those rows with no valid-time test:
one slice when the zone map proves every row exists, an existence-only
kernel pass otherwise.  These tests hold the core to the widest range
the band proves (found by brute force), the read to the same read with
the core emptied -- same rows, same order, same ``examined`` -- and both
to ``NaiveExecutor``, over every two-sided region with open and closed
bounds, live and pinned reads, every storage topology and every decode
state a cold segment can be in; and they hold a core to never decoding
the rest of a cold segment it does not cover.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chronos.clock import LogicalClock
from repro.chronos.duration import Duration
from repro.chronos.granularity import Granularity
from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.core.taxonomy import event_isolated as isolated
from repro.core.taxonomy.regions import enumerate_regions
from repro.observability import metrics
from repro.query import CurrentState, NaiveExecutor, Rollback, Scan
from repro.query.operators import SegmentStats
from repro.query.planner import windowed
from repro.relation.element import Element
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.storage.columnar import NEG_SENTINEL, POS_SENTINEL, ScanSpec
from repro.storage.memory import MemoryEngine
from repro.storage.segfile import SegmentFileReader
from repro.storage.segments import SegmentedStore
from repro.storage.tiered import TierManager
from tests.storage.test_segments import signature
from tests.strategies import TOPOLOGIES


def micro(count: int) -> Duration:
    return Duration(count, "microsecond")


def at(coordinate: int) -> Timestamp:
    return Timestamp(coordinate, Granularity.MICROSECOND)


#: Every two-bound region of Section 3.1 plus the point region, built
#: from a near and a far bound in microseconds (``0 < near < far``).
BANDS = {
    "strongly retroactively bounded": lambda near, far, strict: (
        isolated.StronglyRetroactivelyBounded(micro(far), strict=strict)
    ),
    "delayed strongly retroactively bounded": lambda near, far, strict: (
        isolated.DelayedStronglyRetroactivelyBounded(micro(near), micro(far), strict=strict)
    ),
    "strongly predictively bounded": lambda near, far, strict: (
        isolated.StronglyPredictivelyBounded(micro(far), strict=strict)
    ),
    "early strongly predictively bounded": lambda near, far, strict: (
        isolated.EarlyStronglyPredictivelyBounded(micro(near), micro(far), strict=strict)
    ),
    "strongly bounded": lambda near, far, strict: (
        isolated.StronglyBounded(micro(near), micro(far), strict=strict)
    ),
    "degenerate": lambda near, far, strict: isolated.Degenerate(),
}


def test_the_bands_are_every_two_sided_region():
    two_sided = {name for name, shape in enumerate_regions().items() if shape.line_count == 2}
    assert two_sided == set(BANDS) - {"degenerate"}


def offsets_of(region):
    """The inclusive integer offsets *region* admits."""
    low = region.lower.offset + (0 if region.lower.closed else 1)
    high = region.upper.offset - (0 if region.upper.closed else 1)
    return low, high


def widest_core(spec: ScanSpec, band) -> tuple:
    """The core *spec* should carry, found by brute force: every
    transaction time in its window at which each offset of the inclusive
    *band* puts the valid time inside its valid-time window."""
    low, high = band
    sure = [
        tt
        for tt in range(spec.vt_lo - high - 2, spec.vt_hi - low + 2)
        if spec.tt_lo <= tt <= spec.tt_hi
        and all(spec.vt_lo <= tt + d < spec.vt_hi for d in range(low, high + 1))
    ]
    return (sure[0], sure[-1]) if sure else (POS_SENTINEL, NEG_SENTINEL)


def emptied(spec: ScanSpec) -> ScanSpec:
    return dataclasses.replace(spec, core_lo=POS_SENTINEL, core_hi=NEG_SENTINEL)


@contextmanager
def whole_decodes():
    """Every ``SegmentFileReader.elements()`` call in the block, by file."""
    paths = []
    real = SegmentFileReader.elements

    def spy(reader):
        paths.append(reader._file.name)
        return real(reader)

    with mock.patch.object(SegmentFileReader, "elements", spy):
        yield paths


def decodable_whole(store: SegmentedStore, spec: ScanSpec, ordinal: int) -> bool:
    """May a read of *spec* decode cold segment *ordinal* whole?  Only
    when it returns every row there untested: the zone map accepts the
    segment, or the core covers it."""
    size = store.segment_size
    first, last = store._tts[ordinal * size], store._tts[(ordinal + 1) * size - 1]
    covered = spec.core_lo <= first and last <= spec.core_hi
    return covered or spec.must_match(store.zone_of(ordinal), size)


@st.composite
def banded_histories(draw):
    """A compliant relation on a drawn topology under a drawn band: one
    batch of rows whose offsets are drawn inside the band (its edges
    included), then closes of drawn rows and a second batch."""
    name = draw(st.sampled_from(sorted(BANDS)))
    near = draw(st.integers(1, 3))
    far = near + draw(st.integers(2, 5))  # an open band keeps an offset
    declaration = BANDS[name](near, far, draw(st.booleans()))
    low, high = offsets_of(declaration.region())
    offset = st.one_of(st.sampled_from([low, high]), st.integers(low, high))
    topology = draw(st.sampled_from(TOPOLOGIES))
    schema = TemporalSchema(
        name="banded", time_varying=("n",), enforce_key=False, specializations=[declaration]
    )
    clock = LogicalClock(start=1_000, granularity="microsecond")
    relation = topology.relation(schema, clock=clock)
    first = draw(st.integers(9, 24))
    later = draw(st.integers(0, 5))
    drawn = draw(st.lists(offset, min_size=first + later, max_size=first + later))
    victims = draw(st.sets(st.integers(0, first - 1), max_size=4))

    def batch(offsets):
        base = clock.peek().microseconds
        relation.append_many(
            [("o", at(base + index + d), {"n": index}) for index, d in enumerate(offsets)]
        )

    batch(drawn[:first])
    stored = relation.all_elements()
    pins = [relation.pin_epoch().as_of, stored[first // 2].tt_start]
    for victim in sorted(victims):
        relation.delete(stored[victim].element_surrogate)
    batch(drawn[first:])
    pins.append(relation.pin_epoch().as_of)
    widths = draw(st.lists(st.integers(0, 2 * (high - low) + 4), min_size=2, max_size=3))
    return topology, relation, pins, widths, (low, high)


@settings(deadline=None, max_examples=18)
@given(banded_histories(), st.data())
def test_the_core_is_the_kernel_and_the_naive_executor(history, data):
    topology, relation, pins, widths, band = history
    store = relation.engine.store
    tiering = store.tiering
    cold = list(range(store.cold_base // store.segment_size))
    decoded = data.draw(st.sampled_from([None, *cold]), label="whole-decoded")
    scan = Scan(relation)
    vts = [element.vt.microseconds for element in relation.all_elements()]
    try:
        for pin in [None, *pins]:
            state = NaiveExecutor().run(CurrentState(scan) if pin is None else Rollback(scan, pin))
            for first in range(min(vts) - 2, max(vts) + 3):
                for width in widths:
                    window = Interval(at(first), at(first + width + 1))
                    spec = windowed(relation.schema, ScanSpec.of(window, pin))
                    assert (spec.core_lo, spec.core_hi) == widest_core(spec, band), spec
                    if tiering is not None:
                        tiering.release_all()
                        if decoded is not None:
                            tiering.elements(decoded)
                    stats = SegmentStats()
                    with whole_decodes() as paths:
                        cored, examined = store.select(spec, stats)
                    for path in paths:
                        [ordinal] = [o for o, s in tiering.segments.items() if s.path == path]
                        assert ordinal == decoded or decodable_whole(store, spec, ordinal)
                    plain, plain_examined = store.select(emptied(spec))
                    assert signature(cored) == signature(plain), spec
                    assert examined == plain_examined == stats.positions_examined
                    assert stats.accepted <= stats.materialized == len(cored)
                    expected = [e for e in state if window.contains_point(e.vt)]
                    assert signature(cored) == signature(expected), spec
    finally:
        topology.close(relation)


def test_a_core_inside_an_undecoded_cold_segment_decodes_only_its_rows(tmp_path):
    """A core that covers part of a cold segment not yet decoded
    materializes its rows one by one (``reader.elements()`` is never
    called), while a zone-accepted whole segment is decoded whole; the
    accepted rows are counted, and the examined count is the unit's."""
    store = SegmentedStore(segment_size=16, tier_manager=TierManager(str(tmp_path), hot_reserve=0))
    for position in range(48):  # vt = tt + 2, inside a declared band [0, 4]
        store.append(_row(position, offset=2))
    assert store.cold_base == 48
    # Valid times [20, 28] under the band [0, 4]: the tt window [16, 28]
    # and the core [20, 24], inside segment [16, 32).
    spec = ScanSpec(tt_lo=16, tt_hi=28, vt_lo=20, vt_hi=29, core_lo=20, core_hi=24)
    stats = SegmentStats()
    with whole_decodes() as paths:
        rows, examined = store.select(spec, stats)
    assert paths == []
    assert [row.tt_start.microseconds for row in rows] == list(range(18, 27))
    assert (examined, stats.accepted, stats.materialized) == (13, 5, 9)
    # Segment [32, 48) lies inside the window and its zone: sliced, and
    # decoded whole.
    with whole_decodes() as paths:
        rows, examined = store.select(ScanSpec(tt_lo=32, tt_hi=47, vt_lo=34, vt_hi=50), stats)
    assert len(paths) == 1 and len(rows) == examined == 16
    store.close()


def _row(position: int, offset: int):
    return Element(
        element_surrogate=position + 1,
        object_surrogate="o",
        tt_start=at(position),
        vt=at(position + offset),
    )


def test_explain_and_the_counters_report_the_accepted_rows():
    """``explain`` shows the rows a band's core accepted beside examined
    and materialized, and execution feeds the same count to
    ``query.columnar_positions_accepted``; a point read has no core."""
    schema = TemporalSchema(
        name="banded",
        time_varying=("n",),
        enforce_key=False,
        specializations=[isolated.StronglyBounded(micro(1), micro(3))],
    )
    clock = LogicalClock(start=1_000, granularity="microsecond")
    relation = TemporalRelation(schema, engine=MemoryEngine(segment_size=8), clock=clock)
    relation.append_many([("o", at(1_002 + index), {"n": index}) for index in range(40)])
    wide = "SELECT * FROM banded VALID OVERLAPS [1010us, 1030us)"
    with metrics.enabled_scope(fresh=True) as registry:
        report = relation.explain(wide)
        counted = registry.counter("query.columnar_positions_accepted").value
    # The band d in [-1, 3] narrows the scan to stamps 1 007..1 030 and
    # proves 1 011..1 026 a match.  The zone maps prune segment 1 000..
    # 1 007 and accept 1 008..1 015 and 1 016..1 023 whole; the core
    # accepts 1 024..1 026 of the last, whose margin holds 1 027..1 030.
    assert report.returned == 20
    assert report.columnar_positions_examined == 23
    assert report.columnar_rows_accepted == counted == 8 + 8 + 3
    assert "23 positions examined, 20 elements materialized, 19 accepted" in report.render()
    point = relation.explain("SELECT * FROM banded VALID AT 1020us")
    assert (point.returned, point.columnar_rows_accepted) == (1, 0)
