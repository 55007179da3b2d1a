"""Tests for the DET determinism linter."""

import pathlib
import textwrap

import pytest

from tests.static import determinism, exemption_errors
from tests.static.index import modules

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def lint(code, tmp_path):
    """Rules triggered by ``code``, as a sorted list of rule ids."""
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(code))
    findings = determinism.analyze(modules(path))
    return sorted(finding.rule for finding in findings)


class TestRules:
    @pytest.mark.parametrize("code", [
        "import time\nnow = time.time()\n",
        "from time import monotonic\nnow = monotonic()\n",
        "import time as t\nnow = t.perf_counter()\n",
        "from datetime import datetime\nstamp = datetime.now()\n",
        "import datetime\nstamp = datetime.datetime.utcnow()\n",
    ])
    def test_det001_wall_clock(self, code, tmp_path):
        assert lint(code, tmp_path) == ["DET001"]

    @pytest.mark.parametrize("code", [
        "import os\nnoise = os.urandom(16)\n",
        "import uuid\ntoken = uuid.uuid4()\n",
        "import secrets\ntoken = secrets.token_bytes(8)\n",
        "import random\nrng = random.SystemRandom()\n",
    ])
    def test_det002_entropy(self, code, tmp_path):
        assert lint(code, tmp_path) == ["DET002"]

    @pytest.mark.parametrize("code", [
        "import random\nvalue = random.random()\n",
        "import random\nvalue = random.choice([1, 2])\n",
        "from random import shuffle\nshuffle([])\n",
        "import random\nrandom.seed(7)\n",
    ])
    def test_det003_module_level_draw(self, code, tmp_path):
        assert lint(code, tmp_path) == ["DET003"]

    def test_det004_unseeded_random(self, tmp_path):
        assert lint("import random\nrng = random.Random()\n",
                    tmp_path) == ["DET004"]

    def test_seeded_random_is_fine(self, tmp_path):
        assert lint("import random\nrng = random.Random(42)\n",
                    tmp_path) == []

    @pytest.mark.parametrize("code", [
        "import random\n\ndef f(rng=None):\n    return rng or random.Random(0)\n",
        "import random\n\ndef f(rng=None):\n"
        "    return rng if rng else random.Random(0)\n",
        "import random\n\ndef f(rng=random.Random(0)):\n    return rng\n",
    ])
    def test_det005_hidden_default(self, code, tmp_path):
        assert lint(code, tmp_path) == ["DET005"]

    @pytest.mark.parametrize("code", [
        "for item in {1, 2, 3}:\n    print(item)\n",
        "items = list(set([3, 1, 2]))\n",
        "items = [x for x in set([1, 2])]\n",
        "text = ','.join({'b', 'a'})\n",
    ])
    def test_det006_set_order(self, code, tmp_path):
        assert lint(code, tmp_path) == ["DET006"]

    def test_sorted_set_is_fine(self, tmp_path):
        assert lint("items = sorted(set([3, 1, 2]))\n", tmp_path) == []

    def test_instance_stream_draw_is_fine(self, tmp_path):
        code = ("import random\n\n"
                "def f(rng: random.Random):\n"
                "    return rng.uniform(0, 1)\n")
        assert lint(code, tmp_path) == []


class TestExemptionTable:
    """A row excuses exactly its count of one rule's findings in one def."""

    def errors(self, tmp_path, reads, rule="DET001"):
        path = tmp_path / "snippet.py"
        path.write_text("import time\n\ndef calibrate():\n    pass\n"
                        + "    time.time()\n" * reads)
        module, = modules(path)
        return exemption_errors(determinism.analyze([module]),
                                {f"{module.file}::calibrate[{rule}]": 1})

    def test_a_row_excuses_its_count(self, tmp_path):
        assert self.errors(tmp_path, reads=1) == []

    def test_an_extra_finding_in_an_excused_def_fails(self, tmp_path):
        error, = self.errors(tmp_path, reads=2)
        assert error.endswith(
            "::calibrate[DET001]: 2 finding(s), the table excuses 1")

    def test_a_row_is_rule_specific(self, tmp_path):
        assert len(self.errors(tmp_path, reads=1, rule="DET002")) == 2

    def test_a_stale_row_fails(self, tmp_path):
        assert len(self.errors(tmp_path, reads=0)) == 1


class TestFixtureFile:
    def test_known_violations(self):
        findings = determinism.analyze(
            modules(FIXTURES / "det_violations.py"))
        rules = sorted(finding.rule for finding in findings)
        assert rules == ["DET001", "DET002", "DET002", "DET003",
                         "DET004", "DET005", "DET006"]
