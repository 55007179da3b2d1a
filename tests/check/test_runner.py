"""End-to-end tests for the ``repro check`` runner."""

import json
import pathlib

import pytest

from repro.check import runner
from repro.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[2]

VIOLATION = "import time\nnow = time.time()\n"

#: Every rule id ``--list-rules`` prints: the ones with evidence behind
#: them (docs/DETERMINISM.md, "What earns a rule its place").
SURVIVING_RULES = [
    "ARCH001", "ARCH002", "ARCH003", "ARCH004", "ARCH005",
    "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
    "GEN001", "HOT002", "RACE001", "RACE003",
]


def write_violation(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(VIOLATION)
    return path


class TestRunCheck:
    def test_clean_tree_acceptance(self):
        # The merge gate of this PR: src/repro itself must be clean.
        report = runner.run_check([str(ROOT / "src" / "repro")])
        assert report.ok, report.render_text()
        assert report.findings == []
        assert report.scanned > 50

    def test_violation_reported(self, tmp_path):
        write_violation(tmp_path)
        report = runner.run_check([str(tmp_path)])
        assert not report.ok
        assert report.counts_by_rule() == {"DET001": 1}

    def test_syntax_error_is_gen001(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = runner.run_check([str(tmp_path)])
        assert report.counts_by_rule() == {"GEN001": 1}


class TestCli:
    def test_exit_zero_on_clean_tree(self, capsys):
        assert main(["check", str(ROOT / "src" / "repro")]) == 0
        out = capsys.readouterr().out
        assert "repro check: clean" in out

    def test_exit_one_on_violation_fixture(self, tmp_path, capsys):
        write_violation(tmp_path)
        assert main(["check", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_json_format_and_out_artifact(self, tmp_path, capsys):
        write_violation(tmp_path)
        out_path = tmp_path / "report.json"
        code = main(["check", str(tmp_path), "--format", "json",
                     "--out", str(out_path)])
        assert code == 1
        stdout_doc = json.loads(capsys.readouterr().out)
        file_doc = json.loads(out_path.read_text())
        assert stdout_doc == file_doc
        assert file_doc["version"] == 1
        assert file_doc["summary"] == {"DET001": 1}
        assert file_doc["findings"][0]["rule"] == "DET001"
        assert set(file_doc) == {"version", "analyzers", "files_scanned",
                                 "summary", "findings"}

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == SURVIVING_RULES


class TestOnlySelection:
    def test_only_filters_rules(self, tmp_path):
        write_violation(tmp_path)
        report = runner.run_check([str(tmp_path)], only=["DET002"])
        assert report.ok  # the DET001 finding is filtered out
        report = runner.run_check([str(tmp_path)], only=["DET001"])
        assert report.counts_by_rule() == {"DET001": 1}

    def test_only_narrows_analyzers(self, tmp_path):
        write_violation(tmp_path)
        report = runner.run_check([str(tmp_path)], only=["HOT002"])
        assert report.analyzers == ["hotpath"]

    def test_only_unknown_rule_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule"):
            runner.run_check([str(tmp_path)], only=["HOT999"])

    def test_cli_only_comma_separated(self, tmp_path, capsys):
        write_violation(tmp_path)
        assert main(["check", str(tmp_path), "--only",
                     "DET002,ARCH001"]) == 0
        capsys.readouterr()
        assert main(["check", str(tmp_path), "--only", "DET001"]) == 1

    def test_cli_only_unknown_rule_exits_two(self, tmp_path, capsys):
        assert main(["check", str(tmp_path), "--only", "NOPE001"]) == 2
        assert "unknown rule" in capsys.readouterr().err


class TestWholeProgramPasses:
    WHOLE_PROGRAM = ["RACE001", "RACE003", "HOT002"]

    def test_clean_tree_under_new_passes(self):
        # The merge gate: the whole-program passes report nothing
        # unsuppressed on src/repro itself.
        report = runner.run_check(
            [str(ROOT / "src" / "repro")], only=self.WHOLE_PROGRAM)
        assert report.analyzers == ["races", "hotpath"]
        assert report.ok, report.render_text()

    def test_include_suppressed_sees_inventory(self):
        # Every inline allow in the tree, by rule.  A rule absent here
        # has no justified exception left; one that gains an entry did
        # so in a reviewed diff.
        # DET001 is the chunk timer's perf_counter pair: the serial
        # backend runs the same chunk loop, so it has no pair of its own.
        report = runner.run_check([str(ROOT / "src" / "repro")],
                                  include_suppressed=True)
        assert report.counts_by_rule() == {"DET001": 2, "RACE001": 9}
