"""Tests for the experiment registry and its CLI flag generation."""

import argparse

import pytest

from repro.experiments.registry import builtin_registry
from repro.runtime import Experiment, ExperimentRegistry, Param


class _Toy(Experiment):
    name = "toy"
    params = (Param("queries", int, 40, "queries per cell"),
              Param("hidden", tuple, (), "programmatic only", cli=False))

    def trials(self, params):
        return []

    def run_trial(self, spec):
        return None

    def merge(self, params, payloads):
        return None


class _Conflicting(_Toy):
    name = "conflicting"
    params = (Param("queries", int, 99, "different default"),)


class _Nameless(_Toy):
    name = ""


class TestRegistry:
    def test_register_and_get(self):
        registry = ExperimentRegistry()
        toy = registry.register(_Toy())
        assert registry.get("toy") is toy
        assert registry.names() == ["toy"]

    def test_collision_rejected(self):
        registry = ExperimentRegistry()
        registry.register(_Toy())
        with pytest.raises(ValueError, match="already registered"):
            registry.register(_Toy())

    def test_nameless_rejected(self):
        with pytest.raises(ValueError, match="declares no name"):
            ExperimentRegistry().register(_Nameless())

    def test_unknown_get_lists_registered(self):
        registry = ExperimentRegistry()
        registry.register(_Toy())
        with pytest.raises(KeyError, match="registered: toy"):
            registry.get("figure9")

    def test_cli_params_skip_programmatic(self):
        registry = ExperimentRegistry()
        registry.register(_Toy())
        assert [param.name for param in registry.cli_params()] == ["queries"]

    def test_conflicting_defaults_rejected(self):
        registry = ExperimentRegistry()
        registry.register(_Toy())
        registry.register(_Conflicting())
        with pytest.raises(ValueError, match="conflicting"):
            registry.cli_params()

    def test_add_cli_arguments(self):
        registry = ExperimentRegistry()
        registry.register(_Toy())
        parser = argparse.ArgumentParser()
        registry.add_cli_arguments(parser)
        args = parser.parse_args([])
        assert args.queries == 40
        assert not hasattr(args, "hidden")
        assert parser.parse_args(["--queries", "7"]).queries == 7


class TestBuiltinRegistry:
    def test_all_artifacts_registered_in_publication_order(self):
        names = builtin_registry().names()
        assert names == ["table1", "table2", "figure2", "figure3",
                         "figure5", "ecs", "mislocalization",
                         "disaggregation", "envelope-sweep", "overload",
                         "access-latency", "capacity", "resilience",
                         "churn", "population"]

    def test_union_flags_are_consistent(self):
        params = {param.name for param in builtin_registry().cli_params()}
        assert {"seed", "trials", "queries", "requests", "attack_qps",
                "rounds", "duration_ms"} <= params
