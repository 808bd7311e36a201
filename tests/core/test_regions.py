"""E1: the Figure 1 region algebra and the Section 3.1 completeness proof."""

import pytest
from hypothesis import given, strategies as st

from repro.chronos.duration import CalendricDuration
from repro.chronos.timestamp import Timestamp
from repro.core.taxonomy import EVENT_ISOLATED_LATTICE
from repro.core.taxonomy.event_isolated import (
    Degenerate,
    DelayedRetroactive,
    DelayedStronglyRetroactivelyBounded,
    StronglyRetroactivelyBounded,
)
from repro.core.taxonomy.regions import (
    LINE_KIND_ABOVE,
    LINE_KIND_BELOW,
    LINE_KIND_ON,
    Bound,
    OffsetRegion,
    RegionShape,
    enumerate_regions,
    enumerate_shapes,
    shape_of,
)


class TestOffsetRegion:
    def test_unbounded_contains_everything(self):
        region = OffsetRegion(None, None)
        assert region.contains(-(10**12)) and region.contains(10**12)

    def test_closed_bounds_inclusive(self):
        region = OffsetRegion(Bound(-5), Bound(5))
        assert region.contains(-5) and region.contains(5)
        assert not region.contains(-6) and not region.contains(6)

    def test_open_bounds_exclusive(self):
        region = OffsetRegion(Bound(-5, closed=False), Bound(5, closed=False))
        assert not region.contains(-5) and not region.contains(5)
        assert region.contains(-4) and region.contains(4)

    def test_point_region(self):
        point = OffsetRegion(Bound(0), Bound(0))
        assert point.is_point
        assert point.contains(0) and not point.contains(1)

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            OffsetRegion(Bound(5), Bound(-5))
        with pytest.raises(ValueError):
            OffsetRegion(Bound(0, closed=False), Bound(0, closed=True))

    def test_line_counts(self):
        assert OffsetRegion(None, None).line_count == 0
        assert OffsetRegion(Bound(0), None).line_count == 1
        assert OffsetRegion(Bound(-1), Bound(1)).line_count == 2

    def test_line_kinds(self):
        assert OffsetRegion(Bound(-3), Bound(7)).line_kinds() == (
            LINE_KIND_ABOVE,
            LINE_KIND_BELOW,
        )
        assert OffsetRegion(None, Bound(0)).line_kinds() == (LINE_KIND_ON,)


class TestSubset:
    def test_bounded_inside_unbounded(self):
        assert OffsetRegion(Bound(-1), Bound(1)).is_subset(OffsetRegion(None, None))
        assert not OffsetRegion(None, None).is_subset(OffsetRegion(Bound(-1), Bound(1)))

    def test_open_inside_closed_at_same_offset(self):
        open_region = OffsetRegion(None, Bound(0, closed=False))
        closed_region = OffsetRegion(None, Bound(0, closed=True))
        assert open_region.is_subset(closed_region)
        assert not closed_region.is_subset(open_region)

    def test_reflexive(self):
        region = OffsetRegion(Bound(-2), Bound(9))
        assert region.is_subset(region)

    @given(
        st.integers(-100, 100), st.integers(0, 100),
        st.integers(-100, 100), st.integers(0, 100),
    )
    def test_subset_means_pointwise_containment(self, low1, width1, low2, width2):
        first = OffsetRegion(Bound(low1), Bound(low1 + width1))
        second = OffsetRegion(Bound(low2), Bound(low2 + width2))
        if first.is_subset(second):
            for offset in range(low1, low1 + width1 + 1):
                assert second.contains(offset)


class TestIntersection:
    def test_overlapping(self):
        left = OffsetRegion(Bound(-10), Bound(5))
        right = OffsetRegion(Bound(0), Bound(20))
        common = left.intersection(right)
        assert common == OffsetRegion(Bound(0), Bound(5))

    def test_disjoint_is_none(self):
        assert OffsetRegion(Bound(0), Bound(1)).intersection(
            OffsetRegion(Bound(5), Bound(6))
        ) is None

    def test_with_unbounded(self):
        half = OffsetRegion(None, Bound(0))
        assert half.intersection(OffsetRegion(None, None)) == half

    def test_degenerate_as_meet(self):
        """Degenerate = strongly retroactively ^ strongly predictively bounded."""
        retro = OffsetRegion(Bound(-30), Bound(0))
        predictive = OffsetRegion(Bound(0), Bound(30))
        assert retro.intersection(predictive) == Degenerate().region()


class TestTransactionWindow:
    """``tt_window``: the scan window a region allows for a valid time."""

    def test_two_sided_window_is_vt_minus_the_bounds(self):
        region = OffsetRegion(Bound(-30), Bound(5))
        assert region.tt_window(100, 100) == (95, 130)
        assert region.tt_window(100, 139) == (95, 169)

    def test_point_region_is_the_probe_itself(self):
        assert Degenerate().region().tt_window(250, 250) == (250, 250)

    def test_unbounded_sides_stay_unbounded(self):
        assert OffsetRegion(None, Bound(0)).tt_window(100, 100) == (100, None)
        assert OffsetRegion(Bound(0), None).tt_window(100, 100) == (None, 100)
        assert OffsetRegion(None, None).tt_window(100, 100) == (None, None)
        assert OffsetRegion(Bound(-30), Bound(5)).tt_window(None, 100) == (None, 130)

    def test_open_bounds_exclude_one_microsecond(self):
        region = OffsetRegion(Bound(-30, closed=False), Bound(5, closed=False))
        assert region.tt_window(100, 100) == (96, 129)

    @given(
        st.integers(-50, 50),
        st.integers(0, 50),
        st.booleans(),
        st.booleans(),
        st.integers(-200, 200),
        st.integers(-200, 200),
    )
    def test_window_holds_exactly_the_compliant_stamps(
        self, low, width, low_closed, high_closed, vt, tt
    ):
        try:
            region = OffsetRegion(Bound(low, low_closed), Bound(low + width, high_closed))
        except ValueError:
            return  # empty region
        tt_lo, tt_hi = region.tt_window(vt, vt)
        assert region.contains(vt - tt) == (tt_lo <= tt <= tt_hi)


class TestCalendricBounds:
    """A calendric bound has no fixed region (a month is 28 to 31 days);
    the schema's declared region widens it conservatively, so calendric
    declarations share the one window derivation."""

    @staticmethod
    def declared(specialization) -> OffsetRegion:
        from repro.relation.schema import TemporalSchema

        return TemporalSchema(name="r", specializations=[specialization]).declared_offset_region

    def test_calendric_widened_conservatively(self):
        day = Timestamp(1, "day").microseconds
        month = CalendricDuration(months=1)
        bounded = self.declared(StronglyRetroactivelyBounded(month))
        assert bounded.tt_window(0, 0) == (0, 31 * day)
        delayed = self.declared(DelayedRetroactive(month))
        assert delayed.tt_window(0, 0) == (28 * day, None)

    def test_hull_is_the_smallest_region_containing_both(self):
        one, other = OffsetRegion(Bound(-31), Bound(-5, closed=False)), OffsetRegion(Bound(-28), None)
        assert one.hull(other) == other.hull(one) == OffsetRegion(Bound(-31), None)
        assert one.hull(one) == one

    @given(st.integers(0, 4 * 366), st.integers(1, 30))
    def test_every_calendric_offset_lies_in_the_widened_region(self, days, months):
        """Soundness over four years of anchor dates (a leap February
        included): ``tt - n months`` never leaves the declared region."""
        span = CalendricDuration(months=months)
        region = self.declared(DelayedStronglyRetroactivelyBounded(span, span))
        tt = Timestamp(Timestamp.from_date(2023, 1, 1).microseconds + days * 86_400 * 10**6, "microsecond")
        vt = tt - span
        assert region.contains(vt.microseconds - tt.microseconds)


class TestCompletenessEnumeration:
    """The mechanical re-derivation of the Section 3.1 count."""

    def test_twelve_shapes(self):
        shapes = enumerate_shapes()
        assert len(shapes) == 12  # 11 specialized + general

    def test_line_count_breakdown(self):
        shapes = enumerate_shapes()
        by_count = {0: 0, 1: 0, 2: 0}
        for shape in shapes:
            by_count[shape.line_count] += 1
        # "With zero lines ... a general temporal event relation.  With
        # one line ... six distinct specialized temporal event relations.
        # With two lines, there are five possibilities."
        assert by_count == {0: 1, 1: 6, 2: 5}

    def test_enumeration_matches_named_table(self):
        named = enumerate_regions()
        assert len(named) == 12
        assert "general" in named
        assert named["strongly bounded"] == RegionShape(LINE_KIND_BELOW, LINE_KIND_ABOVE)

    def test_every_lattice_node_shape_is_enumerated(self):
        """Each Figure 2 node (except degenerate) realizes an enumerated shape."""
        named = enumerate_regions()
        for node in EVENT_ISOLATED_LATTICE.node_names:
            instance = EVENT_ISOLATED_LATTICE.instance(node)
            region = instance.region()
            if node == "degenerate":
                assert region.is_point
                continue
            assert shape_of(region) == named[node], node

    def test_shapes_have_unique_names(self):
        named = enumerate_regions()
        assert len(set(named.values())) == len(named)


class TestRegionLatticeAgreement:
    def test_figure2_edges_are_region_inclusions(self):
        """Every lattice edge child -> parent is a region subset."""
        lattice = EVENT_ISOLATED_LATTICE
        for parent, child in lattice.edges:
            parent_region = lattice.instance(parent).region()
            child_region = lattice.instance(child).region()
            assert child_region.is_subset(parent_region), (parent, child)

    def test_non_edges_are_not_inclusions_among_representatives(self):
        """Representatives of incomparable nodes have incomparable regions.

        This guards the lattice against missing edges: if the region of
        node A were contained in that of node B without B being an
        ancestor of A, Figure 2 would be incomplete.
        """
        lattice = EVENT_ISOLATED_LATTICE
        for a in lattice.node_names:
            for b in lattice.node_names:
                if a == b or lattice.is_ancestor(b, a):
                    continue
                region_a = lattice.instance(a).region()
                region_b = lattice.instance(b).region()
                assert not region_a.is_subset(region_b), (a, b)
