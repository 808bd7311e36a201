"""E8 -- bounded specializations shrink timeslice scans.

A strongly bounded declaration confines a valid timeslice to the
transaction window the bounds permit; the window -- and hence the work
-- scales with the declared Dt while the full scan does not.  The sweep
over Dt is the reproduced 'figure': examined-element counts grow
linearly with the bound and stay orders of magnitude below the scan.
"""

import pytest

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.timestamp import Timestamp
from repro.query import NaiveExecutor, Planner, Scan, ValidTimeslice
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation
from repro.workloads.base import seeded

SIZE = 10_000
SPACING = 10  # seconds between stores
BOUNDS_SWEEP = (10, 60, 300, 1_800)  # seconds


def build(bound_seconds: int) -> TemporalRelation:
    schema = TemporalSchema(
        name=f"bounded_{bound_seconds}",
        specializations=[f"strongly bounded({bound_seconds}s, {bound_seconds}s)"],
    )
    rng = seeded(bound_seconds)
    clock = SimulatedWallClock(start=0)
    relation = TemporalRelation(schema, clock=clock)
    for i in range(SIZE):
        clock.advance_to(Timestamp(SPACING * i))
        offset = rng.randint(-bound_seconds, bound_seconds)
        relation.insert("obj", Timestamp(SPACING * i + offset), {})
    return relation


@pytest.fixture(scope="module", params=BOUNDS_SWEEP)
def bounded_relation(request):
    return build(request.param)


def test_bounded_timeslice(benchmark, bounded_relation):
    probe = Timestamp(SPACING * (SIZE // 2))
    query = ValidTimeslice(Scan(bounded_relation), probe)
    planner = Planner(bounded_relation)
    plan = planner.plan(query)
    assert plan.strategy == "bounded-tt-window"
    benchmark(lambda: planner.plan(query).execute())


def test_naive_baseline(benchmark):
    relation = build(BOUNDS_SWEEP[0])
    probe = Timestamp(SPACING * (SIZE // 2))
    query = ValidTimeslice(Scan(relation), probe)
    benchmark(lambda: NaiveExecutor().run(query))


def test_window_scales_with_bound():
    """The sweep: examined elements ~ 2*bound/spacing, always << SIZE."""
    examined = {}
    for bound in BOUNDS_SWEEP:
        relation = build(bound)
        probe = Timestamp(SPACING * (SIZE // 2))
        plan = Planner(relation).plan(ValidTimeslice(Scan(relation), probe))
        reference = NaiveExecutor()
        reference.run(ValidTimeslice(Scan(relation), probe))
        plan.execute()
        examined[bound] = plan.examined
        window_elements = 2 * bound // SPACING + 1
        assert plan.examined <= window_elements + 2, bound
        assert reference.examined == SIZE
    # Monotone in the declared bound.
    bounds = sorted(examined)
    assert all(examined[a] <= examined[b] for a, b in zip(bounds, bounds[1:]))
