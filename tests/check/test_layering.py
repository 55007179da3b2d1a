"""Tests for the ARCH import-layering contract checker."""

import graphlib

from tests.static import layering
from tests.static.index import ROOT, modules


def build_tree(tmp_path, files):
    """Write ``files`` (relative path -> source) and load them as a tree."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return modules(tmp_path)


def fake_repo(tmp_path, extra):
    """A minimal ``repro`` package plus ``extra`` modules."""
    files = {"repro/__init__.py": "", "repro/errors.py": ""}
    for package in ("telemetry", "netsim", "resolver", "dnswire", "cdn"):
        files[f"repro/{package}/__init__.py"] = ""
    files.update(extra)
    return build_tree(tmp_path, files)


def rules_of(findings):
    return sorted(finding.rule for finding in findings)


class TestContract:
    def test_clean_real_tree(self):
        assert layering.analyze(modules(ROOT / "src" / "repro")) == []

    def test_contract_is_acyclic(self):
        # Every observed edge is in the contract or an ARCH001, so while
        # the contract is a DAG an import cycle cannot pass unreported.
        graph = {layer: allowed - {layer}
                 for layer, allowed in layering.DEFAULT_CONTRACT.items()}
        tuple(graphlib.TopologicalSorter(graph).static_order())

    def test_arch001_upward_import(self, tmp_path):
        tree = fake_repo(tmp_path, {
            "repro/netsim/engine.py": "from repro.resolver import stub\n"})
        assert rules_of(layering.analyze(tree)) == ["ARCH001"]

    def test_telemetry_importing_a_sim_layer_is_arch001(self, tmp_path):
        tree = fake_repo(tmp_path, {
            "repro/telemetry/trace.py": "from repro.netsim import engine\n"})
        findings = layering.analyze(tree)
        assert rules_of(findings) == ["ARCH001"]
        assert "layer 'telemetry' may not import 'netsim'" in \
            findings[0].message

    def test_arch003_dnswire_third_party(self, tmp_path):
        tree = fake_repo(tmp_path, {
            "repro/dnswire/wire.py": "import numpy\n"})
        assert rules_of(layering.analyze(tree)) == ["ARCH003"]

    def test_arch003_third_party_in_any_layer(self, tmp_path):
        # The rule began as dnswire's; with networkx gone from netsim it
        # holds for the whole tree, lazy imports included.
        tree = fake_repo(tmp_path, {
            "repro/netsim/network.py": "import networkx as nx\n",
            "repro/cdn/geo.py":
                "def load():\n    from numpy import random\n"
                "    return random\n"})
        findings = layering.analyze(tree)
        assert rules_of(findings) == ["ARCH003", "ARCH003"]
        assert "'netsim' imports third-party 'networkx'" in " ".join(
            finding.message for finding in findings)

    def test_arch003_not_triggered_by_stdlib(self, tmp_path):
        tree = fake_repo(tmp_path, {
            "repro/dnswire/wire.py": "import struct\nimport ipaddress\n"})
        assert layering.analyze(tree) == []

    def test_arch004_uncontracted_package(self, tmp_path):
        tree = fake_repo(tmp_path, {
            "repro/widgets/__init__.py": "import os\n"})
        findings = layering.analyze(tree)
        assert rules_of(findings) == ["ARCH004"]
        assert "widgets" in findings[0].message

    def test_an_import_cycle_is_an_arch001(self, tmp_path):
        tree = fake_repo(tmp_path, {
            "repro/cdn/router.py": "from repro.resolver import server\n",
            "repro/resolver/server.py": "from repro.cdn import router\n"})
        assert rules_of(layering.analyze(tree)) == ["ARCH001"]

    def test_lazy_function_level_import_is_checked(self, tmp_path):
        tree = fake_repo(tmp_path, {
            "repro/telemetry/trace.py":
                "def hook():\n    from repro.netsim import engine\n"
                "    return engine\n"})
        assert rules_of(layering.analyze(tree)) == ["ARCH001"]

    def test_from_repro_import_names_subpackage(self, tmp_path):
        # ``from repro import netsim`` must attribute the edge to netsim,
        # not to the package facade.
        tree = fake_repo(tmp_path, {
            "repro/telemetry/trace.py": "from repro import netsim\n"})
        assert rules_of(layering.analyze(tree)) == ["ARCH001"]

    def test_custom_contract(self, tmp_path):
        tree = build_tree(tmp_path, {
            "repro/__init__.py": "",
            "repro/alpha/__init__.py": "from repro.beta import core\n",
            "repro/beta/__init__.py": "",
            "repro/beta/core.py": ""})
        allowed = {"alpha": frozenset({"beta"}), "beta": frozenset(),
                   "__init__": frozenset({"alpha", "beta"})}
        assert layering.analyze(tree, contract=allowed) == []
        denied = {"alpha": frozenset(), "beta": frozenset(),
                  "__init__": frozenset()}
        assert rules_of(layering.analyze(tree, contract=denied)) == ["ARCH001"]

    def test_runtime_layer_in_contract(self):
        assert layering.DEFAULT_CONTRACT["runtime"] == \
            frozenset({"errors", "telemetry"})

    def test_runtime_may_not_import_experiments(self, tmp_path):
        # The registry hands pickled experiment *instances* to workers;
        # a module-level (or lazy) import edge would close the cycle.
        tree = fake_repo(tmp_path, {
            "repro/runtime/__init__.py": "",
            "repro/experiments/__init__.py": "",
            "repro/runtime/executor.py":
                "from repro.experiments import figure5\n"})
        assert "ARCH001" in rules_of(layering.analyze(tree))

    def test_experiments_may_import_runtime(self, tmp_path):
        tree = fake_repo(tmp_path, {
            "repro/runtime/__init__.py": "",
            "repro/experiments/__init__.py": "",
            "repro/experiments/figure5.py":
                "from repro.runtime import spec\n"})
        assert layering.analyze(tree) == []

    def test_profile_layer_in_contract(self):
        # profile is a leaf analysis consumer: it may read the whole
        # stack below it but nothing may import it back.
        assert layering.DEFAULT_CONTRACT["profile"] == frozenset(
            {"errors", "telemetry", "netsim", "runtime", "experiments"})
        for package, allowed in layering.DEFAULT_CONTRACT.items():
            if package not in ("profile", "cli", "__init__"):
                assert "profile" not in allowed, package

    def test_experiments_may_not_import_profile(self, tmp_path):
        tree = fake_repo(tmp_path, {
            "repro/profile/__init__.py": "",
            "repro/experiments/__init__.py": "",
            "repro/experiments/figure5.py":
                "from repro.profile import budget\n"})
        assert "ARCH001" in rules_of(layering.analyze(tree))
