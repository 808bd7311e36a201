"""Unit and property tests for partitions of a relation (Sections 2-3):
per-partition application of a specialization, and what a
transaction-time *subsequence* of a compliant history inherits."""

import pytest
from hypothesis import given, strategies as st

from repro.chronos.duration import Duration
from repro.chronos.interval import Interval
from repro.chronos.timestamp import Timestamp
from repro.core.constraints import ConstraintSet, ConstraintViolation
from repro.core.taxonomy import regions
from repro.core.taxonomy.base import Stamped
from repro.core.taxonomy.event_inter import (
    GloballyNonDecreasing,
    GloballySequential,
    TransactionTimeEventRegular,
)
from repro.core.taxonomy.event_isolated import Retroactive
from repro.core.taxonomy.interval_inter import GloballyContiguous
from repro.core.taxonomy.partition import (
    PerPartition,
    partition_extension,
    per_surrogate,
)
from repro.core.taxonomy.registry import REGISTRY
from tests.strategies import region_declarations


def element(tt: int, vt: int, who: str) -> Stamped:
    return Stamped(tt_start=Timestamp(tt), vt=Timestamp(vt), object_surrogate=who)


class TestPerPartition:
    def test_per_surrogate_sequential(self):
        """Interleaved life-lines: sequential per surrogate, not globally."""
        elements = [
            element(1, 1, "alice"),
            element(2, 2, "bob"),
            element(10, 5, "alice"),  # before bob's event in valid time
            element(11, 6, "bob"),
        ]
        assert not GloballySequential().check_extension(elements)
        assert PerPartition(GloballySequential()).check_extension(elements)

    def test_name_records_the_partitioning(self):
        spec = PerPartition(GloballySequential())
        assert spec.name == "per-surrogate globally sequential"

    def test_isolated_properties_unaffected_by_partitioning(self):
        """For per-element properties, per-partition == per-relation."""
        elements = [
            element(10, 5, "a"),
            element(20, 30, "b"),  # violates retroactive
        ]
        assert Retroactive().check_extension(elements) == PerPartition(
            Retroactive()
        ).check_extension(elements)

    def test_custom_key(self):
        elements = [
            Stamped(tt_start=Timestamp(1), vt=Timestamp(9), attributes={"dept": "x"}),
            Stamped(tt_start=Timestamp(2), vt=Timestamp(1), attributes={"dept": "y"}),
        ]
        spec = PerPartition(
            GloballyNonDecreasing(), key=lambda e: e.attributes["dept"], label="dept"
        )
        assert spec.check_extension(elements)
        assert spec.name == "per-dept globally non-decreasing"

    def test_violations_carry_through(self):
        elements = [element(1, 5, "a"), element(2, 4, "a")]
        violations = PerPartition(GloballyNonDecreasing()).violations(elements)
        assert len(violations) == 1


class TestPartitionExtension:
    def test_groups_by_surrogate(self):
        elements = [element(1, 1, "a"), element(2, 2, "b"), element(3, 3, "a")]
        groups = partition_extension(elements)
        assert set(groups) == {"a", "b"}
        assert len(groups["a"]) == 2

    def test_per_surrogate_key(self):
        assert per_surrogate(element(1, 1, "x")) == "x"


class TestGlobalVsPartitionRelationships:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 1000),
                st.integers(-50, 50),
                st.sampled_from(["a", "b", "c"]),
            ),
            min_size=1,
            max_size=12,
            unique_by=lambda t: t[0],
        )
    )
    def test_global_implies_per_partition_for_orderings(self, rows):
        """A global ordering restricts every pair, hence every partition."""
        elements = [element(tt, tt + off, who) for tt, off, who in rows]
        if GloballyNonDecreasing().check_extension(elements):
            assert PerPartition(GloballyNonDecreasing()).check_extension(elements)
        if GloballySequential().check_extension(elements):
            assert PerPartition(GloballySequential()).check_extension(elements)

    def test_per_partition_regularity_does_not_imply_global(self):
        """Reproduction note (E3): Section 3.2 claims the per-partition
        variant of non-strict regularity implies the global variant; for
        a shared unit this fails when partitions are out of phase."""
        unit = Duration(10)
        elements = [
            element(0, 0, "a"),
            element(10, 0, "a"),  # partition a: tts 0, 10 -- regular
            element(15, 0, "b"),  # partition b: tt 15 alone -- regular
        ]
        per_partition = PerPartition(TransactionTimeEventRegular(unit))
        assert per_partition.check_extension(elements)
        assert not TransactionTimeEventRegular(unit).check_extension(elements)


# -- what a transaction-time subsequence inherits ---------------------------------------
#
# Any horizontal partition of a relation -- by object, by valid-time
# range, by anything -- hands each part a transaction-time subsequence
# of the history.  A specialization that restricts single elements
# (every Section 3.1 offset region, degenerate) or every *pair* of
# elements (the global orderings, pairwise regularity) still holds on
# each part; one defined through each element's *successor* does not.
# That is the one fact the deleted sharded engine taught
# (EXPERIMENTS.md E20); it is kept here, on the taxonomy alone.

REGIONS = tuple(sorted(regions.enumerate_regions()))
PAIRWISE = (
    "globally non-decreasing",
    "globally non-increasing",
    "globally sequential",
    "transaction time event regular",
    "valid time event regular",
    "temporal event regular",
)
SUCCESSOR_DEFINED = (
    "strict transaction time event regular",
    "strict valid time event regular",
    "strict temporal event regular",
)


@st.composite
def candidate_histories(draw, name):
    """Specialization *name* (bounds drawn) and up to 16 candidate
    stamps in transaction order, most -- not all -- of which it admits."""
    step = st.integers(-1, 3)
    if name in REGIONS:
        specialization, (low, high) = draw(region_declarations(name))
        step = st.integers(low - 2, high + 2)
    elif name.endswith("regular"):
        specialization = REGISTRY[name]([Duration(2)])
        step = st.integers(0, 1)
    else:
        specialization = REGISTRY[name]([])
    candidates, tt, vt = [], 0, 0
    for gap in draw(st.lists(st.integers(1, 4), min_size=1, max_size=16)):
        tt += gap
        if name == "globally non-decreasing":
            vt += draw(step)  # a valid-time walk, mostly upwards
        elif name == "globally non-increasing":
            vt -= draw(step)
        elif name in ("degenerate", "globally sequential"):
            vt = tt + draw(st.integers(-1, 1))
        else:
            vt = tt + draw(step)  # an offset around the declared region
        candidates.append(element(tt, vt, "o"))
    return specialization, candidates


def admitted(specialization, candidates):
    """The history a relation declaring *specialization* would hold:
    what its REJECT-mode ``ConstraintSet`` lets through, in order."""
    constraints = ConstraintSet([specialization])
    history = []
    for candidate in candidates:
        try:
            constraints.observe(candidate)
        except ConstraintViolation:
            continue
        history.append(candidate)
    return history


class TestTransactionTimeSubsequences:
    @pytest.mark.parametrize("name", REGIONS + ("degenerate",) + PAIRWISE)
    @given(data=st.data(), keep=st.lists(st.booleans(), min_size=16, max_size=16))
    def test_orderings_and_offset_bounds_are_inherited(self, name, data, keep):
        specialization, candidates = data.draw(candidate_histories(name))
        history = admitted(specialization, candidates)
        assert specialization.check_extension(history)
        subsequence = [e for e, kept in zip(history, keep) if kept]
        assert admitted(specialization, subsequence) == subsequence
        assert specialization.check_extension(subsequence)

    @pytest.mark.parametrize("name", SUCCESSOR_DEFINED)
    def test_strict_regularity_is_not(self, name):
        """Stamps one unit apart; drop the middle one and the survivors
        are two units apart -- compliant history, violating subsequence."""
        specialization = REGISTRY[name]([Duration(10)])
        history = [element(tt, tt, "o") for tt in (0, 10, 20)]
        assert admitted(specialization, history) == history
        subsequence = [history[0], history[2]]
        assert not specialization.check_extension(subsequence)
        assert admitted(specialization, subsequence) == [history[0]]

    def test_contiguity_is_not(self):
        """Successive intervals meet; without the middle one they don't."""
        specialization = GloballyContiguous()
        history = [
            Stamped(tt_start=Timestamp(tt), vt=Interval(Timestamp(lo), Timestamp(hi)))
            for tt, (lo, hi) in enumerate([(0, 5), (5, 9), (9, 12)])
        ]
        assert admitted(specialization, history) == history
        subsequence = [history[0], history[2]]
        assert not specialization.check_extension(subsequence)
        assert admitted(specialization, subsequence) == [history[0]]
