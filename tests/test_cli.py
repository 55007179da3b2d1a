"""Tests for the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment", "figure5"])
        assert args.artifact == "figure5"
        assert args.queries == 40
        assert args.seed == 42

    def test_dig_defaults(self):
        args = build_parser().parse_args(["dig"])
        assert args.deployment == "mec-ldns-mec-cdns"
        assert args.count == 5
        assert not args.ecs

    def test_jobs_defaults_to_serial(self):
        args = build_parser().parse_args(["experiment", "figure5"])
        assert args.jobs == 1

    def test_all_is_a_valid_artifact(self):
        args = build_parser().parse_args(["experiment", "all"])
        assert args.artifact == "all"

    def test_registry_generated_flags_parse(self):
        args = build_parser().parse_args(
            ["experiment", "capacity", "--duration-ms", "250.5",
             "--attack-qps", "900", "--jobs", "2"])
        assert args.duration_ms == 250.5
        assert args.attack_qps == 900.0
        assert args.jobs == 2

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure9"])

    def test_unknown_deployment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dig", "--deployment", "pigeon"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_deployments_listing(self, capsys):
        assert main(["deployments"]) == 0
        out = capsys.readouterr().out
        assert "mec-ldns-mec-cdns" in out
        assert "Cloudflare DNS" in out

    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "a0.muscache.com" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "MEC Provider" in capsys.readouterr().out

    def test_figure5_small(self, capsys):
        assert main(["experiment", "figure5", "--queries", "6"]) == 0
        out = capsys.readouterr().out
        assert "MEC L-DNS w/ MEC C-DNS" in out
        assert "ALL HOLD" in out

    def test_figure5_sharded_output_matches_serial(self, capsys):
        assert main(["experiment", "figure5", "--queries", "6"]) == 0
        serial = capsys.readouterr().out
        assert main(["experiment", "figure5", "--queries", "6",
                     "--jobs", "2"]) == 0
        sharded = capsys.readouterr().out
        assert sharded == serial
        assert "ALL HOLD" in sharded

    def test_dig_runs_queries(self, capsys):
        assert main(["dig", "--count", "3", "--deployment",
                     "mec-ldns-mec-cdns"]) == 0
        out = capsys.readouterr().out
        assert out.count("NOERROR") == 3
        assert "wireless" in out

    def test_dig_with_ecs(self, capsys):
        assert main(["dig", "--count", "2", "--ecs"]) == 0
        assert capsys.readouterr().out.count("NOERROR") == 2

    def test_dig_warns_on_other_name(self, capsys):
        assert main(["dig", "www.google.com", "--count", "1"]) == 0
        captured = capsys.readouterr()
        assert "note:" in captured.err


class TestTelemetryExports:
    def test_dig_writes_chrome_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(["dig", "--count", "2",
                     "--trace-out", str(trace_path),
                     "--metrics-out", str(metrics_path)]) == 0
        document = json.loads(trace_path.read_text())
        complete = [event for event in document["traceEvents"]
                    if event["ph"] == "X"]
        assert complete
        assert all("ts" in event and "dur" in event for event in complete)
        names = {metric["name"] for metric
                 in json.loads(metrics_path.read_text())["metrics"]}
        assert {"repro_stub_lookups_total",
                "repro_net_datagrams_total"} <= names

    def test_experiment_writes_json_metrics(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(["experiment", "figure5", "--queries", "6",
                     "--metrics-out", str(metrics_path)]) == 0
        document = json.loads(metrics_path.read_text())
        assert document["format"] == "repro-telemetry-v1"
        assert document["spans"]["traces"] > 0
        names = {entry["name"] for entry in document["metrics"]}
        assert "repro_lookup_latency_ms" in names

    def test_sweep_that_raised_writes_no_artifact(self, tmp_path):
        # A dead worker fails the sweep: exit status 1, and no artifact
        # half-written from the trials that did finish.
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = ("import sys\n"
                "from concurrent.futures.process import BrokenProcessPool\n"
                "from repro.runtime import TrialExecutor\n"
                "def broken(self, experiment, overrides=None):\n"
                "    raise BrokenProcessPool('a worker died')\n"
                "TrialExecutor.run = broken\n"
                "from repro.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        done = subprocess.run(
            [sys.executable, "-c", code, "experiment", "table1",
             "--trace-out", str(trace_path),
             "--metrics-out", str(metrics_path)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
            capture_output=True, text=True)
        assert done.returncode == 1
        assert "BrokenProcessPool: a worker died" in done.stderr
        assert list(tmp_path.iterdir()) == []

    def test_no_flags_leaves_telemetry_off(self, capsys):
        from repro import telemetry
        assert main(["dig", "--count", "1"]) == 0
        assert telemetry.get_default() is None

    def test_sampling_flags_shape_the_facade(self):
        args = build_parser().parse_args(
            ["experiment", "figure5", "--metrics-out", "m.json",
             "--trace-sample", "0.05", "--window-ms", "250",
             "--tail-exemplars", "8"])
        assert args.trace_sample == 0.05
        assert args.window_ms == 250.0
        assert args.tail_exemplars == 8

    def test_experiment_artifact_has_observability_sections(
            self, tmp_path, capsys):
        # The workload engine feeds the time-series and tail reservoir,
        # so a (tiny) population run exercises every artifact section.
        metrics_path = tmp_path / "metrics.json"
        assert main(["experiment", "population", "--districts", "1",
                     "--target-queries", "600",
                     "--metrics-out", str(metrics_path),
                     "--window-ms", "60000", "--trace-sample", "0.1"]) == 0
        document = json.loads(metrics_path.read_text())
        assert document["timeseries"]["format"] == "repro-timeseries-v1"
        assert document["timeseries"]["window_ms"] == 60000.0
        assert document["exemplars"]
        assert document["meta"]["executor"]["population"]["backend"] == \
            "serial"


class TestTailCommand:
    def artifact_with_exemplars(self, tmp_path):
        path = tmp_path / "telemetry.json"
        from repro.telemetry.sampling import Exemplar
        path.write_text(json.dumps({
            "format": "repro-telemetry-v1", "metrics": [],
            "exemplars": [
                Exemplar(key="d0/u1/s0/q2", total_ms=120.0, t_ms=3000.0,
                         stages=(("dns.resolver", 80.0), ("fetch", 40.0)),
                         attrs=(("deployment", "lan-ldns"),)).to_dict(),
                Exemplar(key="d0/u2/s0/q1", total_ms=200.0, t_ms=4000.0,
                         stages=(("dns.resolver", 150.0), ("fetch", 50.0)),
                         attrs=(("deployment", "lan-ldns"),)).to_dict(),
            ]}))
        return path

    def test_prints_slowest_first_with_stages(self, tmp_path, capsys):
        assert main(["tail", str(self.artifact_with_exemplars(tmp_path))]) \
            == 0
        out = capsys.readouterr().out
        assert "2 tail exemplars" in out
        assert out.index("d0/u2/s0/q1") < out.index("d0/u1/s0/q2")
        assert "dns.resolver" in out and "75.0%" in out

    def test_top_limits_output(self, tmp_path, capsys):
        assert main(["tail", str(self.artifact_with_exemplars(tmp_path)),
                     "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "d0/u2/s0/q1" in out
        assert "d0/u1/s0/q2" not in out

    def test_missing_exemplars_section_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps({"format": "repro-telemetry-v1",
                                    "metrics": []}))
        assert main(["tail", str(path)]) == 2
        assert "no 'exemplars' section" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["tail", str(tmp_path / "absent.json")]) == 2
