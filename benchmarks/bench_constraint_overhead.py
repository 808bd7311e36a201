"""E10 -- the cost of capturing the semantics: enforcement overhead.

Measures insert throughput into a temporal relation with zero, one,
three, and five declared specializations (REJECT mode, all inserts
compliant).  The reproduced shape: enforcement is O(#stateful
constraints) per insert with a small constant -- the isolated event
declarations compile into one region test, so five of them cost what
one does -- and capturing the semantics is cheap relative to the
query-time savings of E6-E8.
"""

import pytest

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.timestamp import Timestamp
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation

SIZE = 3_000

CONSTRAINT_SETS = {
    "none": [],
    "one-isolated": ["retroactive"],
    "three-mixed": [
        "retroactive",
        "delayed retroactive(3s)",
        "globally non-decreasing",
    ],
    "five-mixed": [
        "retroactive",
        "delayed retroactive(3s)",
        "delayed strongly retroactively bounded(3s, 5s)",
        "globally non-decreasing",
        "globally sequential",
    ],
    # All five compile into one region test: the cost should not grow
    # with their number.
    "five-isolated": [
        "retroactive",
        "delayed retroactive(3s)",
        "delayed strongly retroactively bounded(3s, 5s)",
        "strongly retroactively bounded(10s)",
        "retroactively bounded(6s)",
    ],
}


def insert_stream(specializations):
    schema = TemporalSchema(name="stream", specializations=specializations)
    clock = SimulatedWallClock(start=100)
    relation = TemporalRelation(schema, clock=clock)
    for i in range(SIZE):
        clock.advance_to(Timestamp(100 + 10 * i))
        relation.insert("obj", Timestamp(100 + 10 * i - 4), {})
    return relation


@pytest.mark.parametrize("name", list(CONSTRAINT_SETS))
def test_insert_throughput(benchmark, name):
    specializations = CONSTRAINT_SETS[name]
    relation = benchmark(insert_stream, specializations)
    assert len(relation) == SIZE


def test_batch_validation(benchmark):
    relation = insert_stream(CONSTRAINT_SETS["five-mixed"])
    elements = relation.all_elements()

    def validate():
        return relation.constraints.check_all(elements)

    violations = benchmark(validate)
    assert violations == []
