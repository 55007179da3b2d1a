"""Every rule over a tree: the clean-tree gate, and one fixture per rule.

The analyzer (``tests/static``) has no command; this file is its caller.
``test_clean_tree_acceptance`` groups the raw findings on ``src/repro``
by enclosing def and rule and requires them to equal the exemption rows
of the one table (``CLASSES`` in ``scripts/line_census.py``): a finding
no row names, a row whose count is off, and a row that excuses nothing
all fail it.
"""

import pytest

from tests.static import RULES, analyze, exemption_errors, line_census
from tests.static.index import ROOT, modules

#: ``file::qualname[RULE]`` -> the exact count the table excuses.
EXCUSED = {key: count for key, (count, _) in line_census().CLASSES.items()
           if key.endswith("]")}

#: One fixture per rule id, as files (path -> source) that fail on it.
FIXTURES = {
    "DET001": {"snippet.py": "import time\nnow = time.time()\n"},
    "DET002": {"snippet.py": "import os\nnoise = os.urandom(16)\n"},
    "DET003": {"snippet.py": "import random\nvalue = random.random()\n"},
    "DET004": {"snippet.py": "import random\nrng = random.Random()\n"},
    "DET005": {"snippet.py": "import random\n\ndef f(rng=None):\n"
                             "    return rng or random.Random(0)\n"},
    "DET006": {"snippet.py": "items = list(set([3, 1, 2]))\n"},
    "ARCH001": {"repro/__init__.py": "", "repro/telemetry/__init__.py": "",
                "repro/netsim/__init__.py": "",
                "repro/telemetry/trace.py":
                    "from repro.netsim import engine\n"},
    "ARCH003": {"repro/__init__.py": "", "repro/dnswire/__init__.py": "",
                "repro/dnswire/wire.py": "import numpy\n"},
    "ARCH004": {"repro/__init__.py": "",
                "repro/widgets/__init__.py": "import os\n"},
    "RACE001": {"snippet.py": "SEEN = []\n\ndef run_trial(spec):\n"
                              "    SEEN.append(spec)\n"},
    "RACE003": {"snippet.py": "def run_trial(spec):\n"
                              "    return id(spec)\n"},
    "HOT002": {"repro/__init__.py": "", "repro/netsim/__init__.py": "",
               "repro/netsim/engine.py":
                   "def arm(sim, fut, value):\n"
                   "    sim.call_soon(lambda: fut.resolve(value))\n"},
}


def fixture_rules(directory, files):
    """The rule ids ``files``, written under ``directory``, trigger."""
    for rel, source in files.items():
        path = directory / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return {finding.rule for finding in analyze(modules(directory))}


class TestRunCheck:
    def test_clean_tree_acceptance(self):
        findings = analyze(modules(ROOT / "src" / "repro"))
        assert exemption_errors(findings, EXCUSED) == []

    def test_violation_reported(self, tmp_path):
        (tmp_path / "dirty.py").write_text(FIXTURES["DET001"]["snippet.py"])
        assert [finding.rule for finding in analyze(modules(tmp_path))] == \
            ["DET001"]

    def test_syntax_error_raises(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        with pytest.raises(SyntaxError):
            modules(tmp_path)


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_each_fixture_fails_on_its_rule_alone(rule, tmp_path):
    assert fixture_rules(tmp_path, FIXTURES[rule]) == {rule}


def test_the_catalogue_is_what_the_fixtures_trigger(tmp_path):
    triggered = set()
    for rule, files in FIXTURES.items():
        triggered |= fixture_rules(tmp_path / rule, files)
    assert triggered == set(RULES)
