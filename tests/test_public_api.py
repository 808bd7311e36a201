"""Public-API integrity: everything advertised imports and works."""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize(
        "module",
        [
            "repro.chronos",
            "repro.core",
            "repro.core.taxonomy",
            "repro.relation",
            "repro.relation.attribute_view",
            "repro.storage",
            "repro.storage.vacuum",
            "repro.storage.logfile",
            "repro.query",
            "repro.query.tql",
            "repro.query.temporal_ops",
            "repro.design",
            "repro.design.drift",
            "repro.database",
            "repro.flow",
            "repro.workloads",
            "repro.cli",
        ],
    )
    def test_submodules_import(self, module):
        assert importlib.import_module(module) is not None

    def test_package_all_lists_resolve(self):
        for module_name in (
            "repro.chronos",
            "repro.core.taxonomy",
            "repro.relation",
            "repro.storage",
            "repro.query",
            "repro.design",
            "repro.workloads",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module_name}.{name}"

    def test_readme_quickstart_runs(self):
        from repro import (
            ConstraintViolation,
            SimulatedWallClock,
            TemporalRelation,
            TemporalSchema,
            Timestamp,
        )

        schema = TemporalSchema(
            name="plant_temperatures",
            key=("sensor",),
            time_invariant=("sensor",),
            time_varying=("celsius",),
            specializations=["retroactive", "delayed retroactive(30s)"],
        )
        clock = SimulatedWallClock(start=1_000)
        relation = TemporalRelation(schema, clock=clock)
        relation.insert("s1", Timestamp(940), {"sensor": "s1", "celsius": 21.5})
        with pytest.raises(ConstraintViolation):
            relation.insert("s1", Timestamp(10**9), {"sensor": "s1", "celsius": 0.0})
        assert len(relation.current()) == 1
        assert len(relation.valid_at(Timestamp(940))) == 1
        assert len(relation.as_of(Timestamp(1_000))) == 1
