"""E15 -- vacuuming and the insert-side index ablation.

Two extension measurements:

* vacuuming a churned relation: cost of the pass and fraction of
  elements reclaimed at increasing horizons;
* the valid-time index maintenance ablation: on a *sequential* stream
  every single-row index insertion is a pure append, on shuffled valid
  times it is a sorted-array insertion -- quantifying the insert-side
  half of the paper's sequentiality payoff (the query-side half is E7).
  Bulk writers skip even that: a shuffled batch waits in the index's
  tail until the first live reader settles it (E18).
"""

import pytest

from repro.storage.indexes import ValidTimeEventIndex
from repro.storage.vacuum import vacuum_engine
from repro.workloads.base import seeded

SIZE = 10_000


@pytest.fixture(scope="module")
def churned_engine(general_workload):
    return general_workload.relation.engine


@pytest.mark.parametrize("fraction", [0.25, 0.5, 1.0])
def test_vacuum_pass(benchmark, churned_engine, fraction):
    elements = list(churned_engine.scan())
    horizon = elements[int((len(elements) - 1) * fraction)].tt_start

    def run():
        return vacuum_engine(churned_engine, horizon)

    _compacted, report = benchmark(run)
    assert report.kept + report.purged == len(elements)


def test_vt_index_appends_in_order(benchmark):
    """Sequential stream: every index insertion is an append."""

    def build():
        index = ValidTimeEventIndex()
        for i in range(SIZE):
            index.add(10 * i - 3, i)
        return index

    index = benchmark(build)
    assert index.inserted_out_of_order == 0


def test_vt_index_inserts_shuffled(benchmark):
    """Unrestricted stream: insertions land mid-list (O(n) shifts)."""
    rng = seeded(42)
    valid_times = [10 * i for i in range(SIZE)]
    rng.shuffle(valid_times)

    def build():
        index = ValidTimeEventIndex()
        for i, vt in enumerate(valid_times):
            index.add(vt, i)
        return index

    index = benchmark(build)
    assert index.inserted_out_of_order > SIZE // 2


def test_vt_index_bulk_shuffled_settles_once(benchmark):
    """The same shuffled rows in 500-row bulks plus the one settle a
    first live reader pays: O(batch) per write, one sort at the end."""
    rng = seeded(42)
    valid_times = [10 * i for i in range(SIZE)]
    rng.shuffle(valid_times)

    def build():
        index = ValidTimeEventIndex()
        for base in range(0, SIZE, 500):
            index.extend(valid_times[base : base + 500], range(base, base + 500))
        index.at(0)
        return index

    index = benchmark(build)
    assert list(index.between(0, 50)) == [valid_times.index(vt) for vt in range(0, 50, 10)]
