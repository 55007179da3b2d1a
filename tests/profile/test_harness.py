"""Tests for the ``repro profile`` harness.

The load-bearing claim: the harness only observes — the trial results
digest byte-identically with it on or off — and what it prints is
simulated time and counts, so two runs print the same bytes.
"""

import json

import pytest

from repro import telemetry
from repro.experiments.registry import builtin_registry
from repro.profile.harness import run_profile, render_summary
from repro.runtime import TrialExecutor, result_digest


class TestRunProfile:
    def test_artifacts_and_counters(self, tmp_path):
        result = run_profile("figure5", {"queries": 2},
                             out_dir=str(tmp_path))
        assert result.run.ok

        budget = json.loads((tmp_path / "figure5-budget.json").read_text())
        assert budget["format"] == "repro-budget-v1"
        assert len(budget["rows"]) == 6  # every deployment option
        for row in budget["rows"]:
            assert row["resolve_ms"]["samples"]

        assert [path.name for path in tmp_path.iterdir()] == [
            "figure5-budget.json"]
        assert result.simulators == 6  # one run: one simulator per option
        assert result.events > 0
        assert result.max_heap_depth > 0

    def test_two_runs_write_the_same_budget_bytes(self, tmp_path):
        first = run_profile("figure5", {"queries": 2},
                            out_dir=str(tmp_path / "first"))
        second = run_profile("figure5", {"queries": 2},
                             out_dir=str(tmp_path / "second"))
        with open(first.budget_path, "rb") as handle:
            once = handle.read()
        with open(second.budget_path, "rb") as handle:
            twice = handle.read()
        assert once == twice
        assert json.loads(once) == first.report.to_dict()

    def test_profiling_does_not_perturb_results(self, tmp_path):
        experiment = builtin_registry().get("figure5")
        plain = TrialExecutor(jobs=1).run(experiment, {"queries": 2})
        result = run_profile("figure5", {"queries": 2},
                             out_dir=str(tmp_path))
        assert result_digest(result.run.result) == \
            result_digest(plain.result)

    def test_ambient_telemetry_restored(self, tmp_path):
        mine = telemetry.Telemetry()
        telemetry.set_default(mine)
        run_profile("figure5", {"queries": 2}, out_dir=str(tmp_path))
        # The harness installed its own session and put mine back —
        # without collecting the profiled run into it.
        assert telemetry.get_default() is mine
        assert len(mine.tracer.finished) == 0

    def test_render_summary_sections(self, tmp_path):
        result = run_profile("figure5", {"queries": 2},
                             out_dir=str(tmp_path))
        text = render_summary(result)
        assert "latency budget" in text
        assert "simulator counters" in text
        assert "wall clock" not in text
        assert "hottest functions" not in text
        assert text.endswith(
            f"artifact: {tmp_path / 'figure5-budget.json'}")


class TestProfileCli:
    def test_cli_runs_and_prints_summary(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["profile", "figure5", "--queries", "2",
                     "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "latency budget" in out and "simulator counters" in out
        assert (tmp_path / "figure5-budget.json").exists()

    def test_two_runs_print_the_same_bytes_and_one_file(self, tmp_path,
                                                        capsys):
        from repro.cli import main
        argv = ["profile", "figure5", "--queries", "2",
                "--out-dir", str(tmp_path)]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert [path.name for path in tmp_path.iterdir()] == [
            "figure5-budget.json"]

    def test_top_is_not_an_option(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exit_info:
            main(["profile", "figure5", "--top", "3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --top 3" in capsys.readouterr().err

    def test_a_trial_that_raises_is_reported_and_fails_the_run(
            self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        def broken(self, spec):
            raise RuntimeError("the trial broke")

        monkeypatch.setattr(type(builtin_registry().get("figure5")),
                            "run_trial", broken)
        assert main(["profile", "figure5", "--queries", "2",
                     "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0] == "error: 6 of 6 trials failed for figure5:"
        assert all("RuntimeError: the trial broke" in line
                   for line in lines[1:7])
        assert lines[7] == "Traceback (most recent call last):"
