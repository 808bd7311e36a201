"""Tests for the TQL language: parsing, compilation, execution."""

import pytest

from repro.chronos.clock import SimulatedWallClock
from repro.chronos.duration import Duration
from repro.chronos.timestamp import Timestamp
from repro.query import tql
from repro.query.executor import NaiveExecutor
from repro.relation.schema import TemporalSchema
from repro.relation.temporal_relation import TemporalRelation


@pytest.fixture
def relation():
    schema = TemporalSchema(
        name="temps",
        time_invariant=("sensor",),
        time_varying=("celsius",),
        specializations=["retroactive"],
    )
    clock = SimulatedWallClock(start=1_000)
    rel = TemporalRelation(schema, clock=clock)
    first = rel.insert("s1", Timestamp(940), {"sensor": "s1", "celsius": 21})
    clock.advance(Duration(60))
    rel.insert("s2", Timestamp(960), {"sensor": "s2", "celsius": 25})
    clock.advance(Duration(60))
    rel.modify(first.element_surrogate, attributes={"celsius": 22})
    return rel


class TestParsing:
    def test_minimal(self):
        parsed = tql.parse("SELECT * FROM temps")
        assert parsed.relation_name == "temps"
        assert parsed.attributes is None

    def test_attribute_list_and_specials(self):
        parsed = tql.parse("SELECT sensor, vt, tt, object FROM temps")
        assert parsed.attributes == ("sensor", "__vt__", "__tt_start__", "__object__")

    def test_time_units(self):
        parsed = tql.parse("SELECT * FROM temps VALID AT 3 h")
        assert parsed.valid_at == Timestamp(3, "hour")
        bare = tql.parse("SELECT * FROM temps VALID AT 940")
        assert bare.valid_at == Timestamp(940, "second")

    def test_window(self):
        parsed = tql.parse("SELECT * FROM temps VALID OVERLAPS [900s, 970s)")
        assert parsed.valid_window.start == Timestamp(900)
        assert parsed.valid_window.end == Timestamp(970)

    def test_where_conditions(self):
        parsed = tql.parse(
            "SELECT * FROM temps WHERE celsius >= 21 AND sensor = 's1'"
        )
        assert len(parsed.conditions) == 2
        assert parsed.conditions[1].value == "s1"

    def test_case_insensitive_keywords(self):
        parsed = tql.parse("select * from temps valid at 940s as of 1100s")
        assert parsed.valid_at is not None and parsed.as_of is not None

    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT FROM temps",
            "SELECT * temps",
            "SELECT * FROM temps VALID 940s",
            "SELECT * FROM temps VALID OVERLAPS [970s, 900s)",
            "SELECT * FROM temps VALID OVERLAPS [900s, 970s]",
            "SELECT * FROM temps WHERE celsius",
            "SELECT * FROM temps CURRENT AS OF 5s",
            "SELECT * FROM temps VALID AT 1s VALID OVERLAPS [0s, 2s)",
            "SELECT * FROM temps EXTRA",
            "SELECT * FROM temps WHERE = 5",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(tql.TQLError):
            tql.parse(bad)


class TestExecution:
    def test_current_query_default(self, relation):
        rows = tql.execute("SELECT celsius FROM temps", relation)
        assert sorted(row["celsius"] for row in rows) == [22, 25]

    def test_valid_at(self, relation):
        rows = tql.execute("SELECT celsius FROM temps VALID AT 940s", relation)
        assert [row["celsius"] for row in rows] == [22]

    def test_as_of(self, relation):
        rows = tql.execute("SELECT celsius FROM temps AS OF 1000s", relation)
        assert [row["celsius"] for row in rows] == [21]

    def test_bitemporal(self, relation):
        rows = tql.execute(
            "SELECT celsius FROM temps VALID AT 940s AS OF 1000s", relation
        )
        assert [row["celsius"] for row in rows] == [21]

    def test_overlap_window(self, relation):
        elements = tql.execute(
            "SELECT * FROM temps VALID OVERLAPS [950s, 970s)", relation
        )
        assert [e.attributes["celsius"] for e in elements] == [25]

    def test_where(self, relation):
        rows = tql.execute(
            "SELECT sensor FROM temps WHERE celsius > 22", relation
        )
        assert rows == [{"sensor": "s2"}]

    def test_star_returns_elements(self, relation):
        elements = tql.execute("SELECT * FROM temps", relation)
        assert all(hasattr(e, "element_surrogate") for e in elements)

    def test_special_columns(self, relation):
        rows = tql.execute("SELECT object, vt FROM temps VALID AT 960s", relation)
        assert rows == [{"__object__": "s2", "__vt__": Timestamp(960)}]

    def test_planner_and_naive_agree(self, relation):
        for statement in (
            "SELECT * FROM temps",
            "SELECT * FROM temps VALID AT 940s",
            "SELECT * FROM temps AS OF 1060s",
            "SELECT * FROM temps WHERE celsius >= 22",
        ):
            fast = tql.execute(statement, relation, use_planner=True)
            slow = tql.execute(statement, relation, use_planner=False)
            assert [e.element_surrogate for e in fast] == [
                e.element_surrogate for e in slow
            ], statement

    def test_missing_attribute_in_where_is_false(self, relation):
        rows = tql.execute("SELECT * FROM temps WHERE nonexistent = 1", relation)
        assert rows == []

    def test_compile_produces_expected_tree(self, relation):
        parsed = tql.parse("SELECT celsius FROM temps VALID AT 940s WHERE celsius > 0")
        node = tql.compile_query(parsed, relation)
        text = node.describe()
        assert "project[celsius]" in text
        assert "timeslice" in text

    def test_count_star(self, relation):
        assert tql.execute("SELECT COUNT(*) FROM temps", relation) == [{"count": 2}]
        assert tql.execute(
            "SELECT COUNT(*) FROM temps WHERE celsius > 22", relation
        ) == [{"count": 1}]
        assert tql.execute(
            "SELECT COUNT(*) FROM temps VALID AT 940s", relation
        ) == [{"count": 1}]

    def test_count_requires_parenthesized_star(self):
        with pytest.raises(tql.TQLError, match="COUNT"):
            tql.parse("SELECT COUNT FROM temps")
        with pytest.raises(tql.TQLError, match="COUNT"):
            tql.parse("SELECT COUNT(x) FROM temps")

    def test_explain_reports_strategy(self, relation):
        # Four stored elements still read the declared bounded window:
        # the plan depends on the schema, not on the relation's size.
        text = tql.explain("SELECT celsius FROM temps VALID AT 940s", relation)
        assert "strategy  : bounded-tt-window" in text
        assert "timeslice" in text

    def test_explain_rollback(self, relation):
        text = tql.explain("SELECT * FROM temps AS OF 1000s", relation)
        assert "rollback-prefix" in text

    def test_compiled_tree_matches_execute(self, relation):
        statement = "SELECT * FROM temps VALID AT 940s"
        parsed = tql.parse(statement)
        node = tql.compile_query(parsed, relation)
        reference = NaiveExecutor().run(node)
        fast = tql.execute(statement, relation)
        assert [e.element_surrogate for e in fast] == [
            e.element_surrogate for e in reference
        ]


class TestDatabase:
    def test_catalog_roundtrip(self):
        from repro.database import TemporalDatabase
        from repro.relation.errors import SchemaError

        db = TemporalDatabase()
        schema = TemporalSchema(name="events", time_varying=("v",))
        relation = db.create_relation(schema)
        relation.insert("o", Timestamp(0), {"v": 1})
        assert db.names() == ["events"]
        assert "events" in db
        assert len(db.execute("SELECT * FROM events")) == 1
        with pytest.raises(SchemaError):
            db.create_relation(schema)
        db.drop_relation("events")
        with pytest.raises(SchemaError):
            db.relation("events")

    def test_shared_clock_orders_transactions_globally(self):
        from repro.database import TemporalDatabase

        db = TemporalDatabase()
        first = db.create_relation(TemporalSchema(name="a", time_varying=("v",)))
        second = db.create_relation(TemporalSchema(name="b", time_varying=("v",)))
        e1 = first.insert("x", Timestamp(0), {"v": 1})
        e2 = second.insert("y", Timestamp(0), {"v": 2})
        assert e1.tt_start < e2.tt_start

    def test_unknown_relation_lists_known(self):
        from repro.database import TemporalDatabase
        from repro.relation.errors import SchemaError

        db = TemporalDatabase()
        db.create_relation(TemporalSchema(name="known"))
        with pytest.raises(SchemaError, match="known"):
            db.execute("SELECT * FROM mystery")

    def test_design_report(self):
        from repro.database import TemporalDatabase
        from repro.workloads import generate_monitoring

        db = TemporalDatabase()
        db.attach(generate_monitoring(sensors=2, samples_per_sensor=20).relation)
        db.create_relation(TemporalSchema(name="empty"))
        report = db.design_report()
        assert "plant_temperatures" in report
        assert "empty" in report and "nothing to infer" in report
