"""Tests for the ``repro profile`` harness.

The load-bearing claim: profiling only observes the interpreter — the
trial results digest byte-identically with the profiler on or off.
"""

import json

from repro import telemetry
from repro.experiments.registry import builtin_registry
from repro.profile.harness import run_profile, render_summary
from repro.runtime import TrialExecutor, result_digest


class TestRunProfile:
    def test_artifacts_and_counters(self, tmp_path):
        result = run_profile("figure5", {"queries": 2},
                             out_dir=str(tmp_path), top=5)
        assert result.run.ok

        budget = json.loads((tmp_path / "figure5-budget.json").read_text())
        assert budget["format"] == "repro-budget-v1"
        assert len(budget["rows"]) == 6  # every deployment option
        for row in budget["rows"]:
            assert row["resolve_ms"]["samples"]

        folded = (tmp_path / "figure5-profile.folded").read_text()
        assert folded.splitlines()
        for line in folded.splitlines():
            stack, _, value = line.rpartition(" ")
            assert stack and int(value) >= 1

        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "figure5-budget.json", "figure5-profile.folded"]
        assert result.simulators == 6  # one run: one simulator per option
        assert result.events > 0
        assert result.max_heap_depth > 0
        assert len(result.top_functions) == 5
        hottest = result.top_functions[0]
        assert set(hottest) == {"function", "calls", "tottime_s", "cumtime_s"}
        # One profiler around the whole run: the experiment's run_trial
        # row counts every trial, one per deployment option.
        run_trial = [row for row in result.top_functions
                     if row["function"].endswith(":run_trial")]
        assert [row["calls"] for row in run_trial] == [6]

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
                             out_dir=str(tmp_path), top=3)
        text = render_summary(result, top=3)
        assert "latency budget" in text
        assert "simulated-time profile" in text
        assert "simulator counters" in text
        assert "wall clock" not in text
        assert "hottest functions" in text
        assert str(tmp_path / "figure5-budget.json") in text


class TestProfileCli:
    def test_cli_runs_and_prints_summary(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["profile", "figure5", "--queries", "2",
                     "--out-dir", str(tmp_path), "--top", "4"]) == 0
        out = capsys.readouterr().out
        assert "latency budget" in out and "simulator counters" in out
        assert (tmp_path / "figure5-budget.json").exists()
        assert (tmp_path / "figure5-profile.folded").exists()
