"""Tests for SLO parsing, evaluation, and the ``repro slo`` gate."""

import json
import pathlib

import pytest

from repro.profile import (SloParseError, evaluate_slo, parse_slo_text)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

BUDGET_DOC = {
    "format": "repro-budget-v1",
    "rows": [
        {"deployment": "a", "count": 4,
         "resolve_ms": {"samples": [10.0, 20.0, 30.0, 40.0]},
         "stages": {"radio": {"mean_ms": 2.5,
                              "samples": [1.0, 2.0, 3.0, 4.0]}}},
        {"deployment": "b", "count": 4,
         "resolve_ms": {"samples": [5.0, 5.0, 5.0, 5.0]},
         "stages": {}},
    ],
}

HISTOGRAM_DOC = {
    "format": "repro-telemetry-v1",
    "metrics": [
        {"name": "repro_lookup_latency_ms", "kind": "histogram",
         "samples": [{"labels": {}, "count": 4, "sum": 40.0,
                      "buckets": [{"le": 10.0, "count": 2},
                                  {"le": 20.0, "count": 4},
                                  {"le": "+Inf", "count": 4}]}]},
    ],
}


def _latency_series(deployment, count, total, buckets):
    return {"name": "repro_workload_total_ms", "kind": "latency",
            "labels": {"deployment": deployment},
            "windows": [{"index": 0, "start_ms": 0.0, "count": count,
                         "sum": total, "buckets": buckets}]}


#: One window per scope: an empty bucket between occupied ones, a lone
#: bucket, a ``+Inf`` tail; ``*`` pools all three.
ESTIMATE_TIMESERIES_DOC = {
    "format": "repro-timeseries-v1", "window_ms": 1000.0,
    "annotations": [],
    "series": [
        _latency_series("gap", 539, 9800.0,
                        [[20.0, 399], [50.0, 137], [100.0, 3]]),
        _latency_series("lone", 12, 1500.0, [[200.0, 12]]),
        _latency_series("tail", 40, 9000.0,
                        [[100.0, 10], [500.0, 26], ["+Inf", 4]]),
    ],
}

#: ``(p50, p90, p99, max)`` as ``repro slo`` prints them.  Window rules
#: read the full ``DEFAULT_BUCKETS`` layout: the "gap" p50 interpolates
#: inside ``(10, 20]``, not across the empty buckets below it, and a rank
#: in ``+Inf`` reads the last finite bound of the layout (5000), not of
#: the occupied buckets.
PINNED_ESTIMATES = {
    "gap window total_ms": (16.75438596491228, 38.854014598540154,
                            49.47664233576643, 100.0),
    "lone window total_ms": (150.0, 190.0, 199.0, 200.0),
    "tail window total_ms": (315.38461538461536, 500.0, 5000.0, 5000.0),
    "* window total_ms": (17.406015037593985, 49.10218978102189,
                          477.96153846153885, 5000.0),
}


class TestParse:
    def test_rules_comments_and_blanks(self):
        rules = parse_slo_text(
            "# full-line comment\n"
            "\n"
            "a p99 resolve_ms < 20   # trailing comment\n"
            "* mean stage.radio_ms >= 1.5\n")
        assert len(rules) == 2
        assert rules[0].describe() == "a p99 resolve_ms < 20"
        assert rules[1] == rules[1]._replace(scope="*", agg="mean",
                                             metric="stage.radio_ms",
                                             op=">=", threshold=1.5)

    @pytest.mark.parametrize("line,fragment", [
        ("a p99 resolve_ms <", "expected"),            # wrong arity
        ("a p42 resolve_ms < 20", "aggregation"),      # unknown agg
        ("a p99 resolve_ms != 20", "operator"),        # unknown op
        ("a p99 latency < 20", "metric"),              # unknown metric
        ("a p99 stage.radio < 20", "metric"),          # missing _ms suffix
        ("a p99 resolve_ms < fast", "threshold"),      # non-numeric bound
    ])
    def test_malformed_lines_raise(self, line, fragment):
        with pytest.raises(SloParseError, match=fragment):
            parse_slo_text(line)

    def test_error_carries_line_number(self):
        with pytest.raises(SloParseError, match="line 3"):
            parse_slo_text("# ok\na p99 resolve_ms < 20\nbroken line\n")


class TestEvaluate:
    def run(self, text, documents=(BUDGET_DOC,)):
        return evaluate_slo(parse_slo_text(text), list(documents))

    def test_budget_samples_pass_and_fail(self):
        verdict = self.run("a mean resolve_ms < 30\n"
                           "a mean resolve_ms < 20\n")
        assert [check.ok for check in verdict.checks] == [True, False]
        assert verdict.checks[0].value == 25.0
        assert verdict.checks[0].detail == "4 samples"
        assert not verdict.ok

    def test_quantiles_interpolate_over_raw_samples(self):
        verdict = self.run("a p50 resolve_ms <= 25\n")
        assert verdict.ok and verdict.checks[0].value == 25.0

    def test_star_scope_pools_every_deployment(self):
        verdict = self.run("* min resolve_ms >= 5\n")
        assert verdict.ok
        assert verdict.checks[0].detail == "8 samples"

    def test_stage_metric(self):
        verdict = self.run("a mean stage.radio_ms < 2\n")
        assert not verdict.ok and verdict.checks[0].value == 2.5

    def test_greater_than_asserts_reproduction_claims(self):
        # "> threshold" lets the suite pin that the slow deployment
        # really is slow — the paper's claim, not a perf wish.
        verdict = self.run("a max resolve_ms > 35\n")
        assert verdict.ok and verdict.checks[0].value == 40.0

    def test_missing_data_fails_not_passes(self):
        verdict = self.run("nowhere p50 resolve_ms < 10\n")
        check = verdict.checks[0]
        assert not check.ok and check.value is None
        assert check.detail == "no matching data"

    def test_histogram_cannot_answer_min_or_scoped_rules(self):
        verdict = self.run("* min resolve_ms > 0\n"
                           "a p50 resolve_ms < 10\n",
                           documents=(HISTOGRAM_DOC,))
        assert [check.ok for check in verdict.checks] == [False, False]
        assert all(check.detail == "no matching data"
                   for check in verdict.checks)

    def test_raw_samples_beat_histogram_estimate(self):
        verdict = self.run("* mean resolve_ms < 30\n",
                           documents=(BUDGET_DOC, HISTOGRAM_DOC))
        assert verdict.checks[0].detail == "8 samples"

    def test_verdict_document_shape(self):
        document = self.run("a mean resolve_ms < 30\n").to_dict()
        assert document["format"] == "repro-slo-v1"
        assert document["ok"] is True
        assert document["checks"][0]["rule"] == "a mean resolve_ms < 30"
        text = self.run("a mean resolve_ms < 1\n").render_text()
        assert "[FAIL]" in text and "BREACH" in text


class TestCommittedRules:
    def test_figure5_slo_parses(self):
        text = (REPO_ROOT / "slo" / "figure5.slo").read_text()
        rules = parse_slo_text(text)
        assert len(rules) >= 6
        scoped = {rule.scope for rule in rules}
        assert "mec-ldns-mec-cdns" in scoped
        # The paper's headline budget is pinned: MEC resolution under
        # the ~20 ms an MEC application can spend end to end.
        assert any(rule.scope == "mec-ldns-mec-cdns"
                   and rule.metric == "resolve_ms"
                   and rule.op in ("<", "<=") and rule.threshold <= 20.0
                   for rule in rules)


class TestCli:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        if isinstance(payload, str):
            path.write_text(payload)
        else:
            path.write_text(json.dumps(payload))
        return str(path)

    def test_exit_zero_on_pass_and_one_on_breach(self, tmp_path, capsys):
        from repro.cli import main
        budget = self.write(tmp_path, "budget.json", BUDGET_DOC)
        passing = self.write(tmp_path, "pass.slo", "a mean resolve_ms < 30\n")
        assert main(["slo", passing, "--input", budget]) == 0
        assert "slo: OK" in capsys.readouterr().out

        # The injected breach: a 20 ms budget the 40 ms tail busts.
        breach = self.write(tmp_path, "breach.slo", "a p99 resolve_ms < 20\n")
        assert main(["slo", breach, "--input", budget]) == 1
        assert "BREACH" in capsys.readouterr().out

    def test_bucket_estimates_are_pinned(self, tmp_path, capsys):
        from repro.cli import main
        series = self.write(tmp_path, "ts.json",
                            {"timeseries": ESTIMATE_TIMESERIES_DOC})
        lines, expected = [], []
        for target, values in PINNED_ESTIMATES.items():
            *scope, metric = target.split()
            for agg, value in zip(("p50", "p90", "p99", "max"), values):
                lines.append(f"{' '.join(scope)} {agg} {metric} < 100000")
                expected.append(value)
        rules = self.write(tmp_path, "rules.slo", "\n".join(lines) + "\n")
        assert main(["slo", rules, "--input", series,
                     "--format", "json"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [check["value"] for check in checks] == expected

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        from repro.cli import main
        budget = self.write(tmp_path, "budget.json", BUDGET_DOC)
        bad = self.write(tmp_path, "bad.slo", "not a rule\n")
        assert main(["slo", bad, "--input", budget]) == 2
        empty = self.write(tmp_path, "empty.slo", "# nothing\n")
        assert main(["slo", empty, "--input", budget]) == 2
        good = self.write(tmp_path, "good.slo", "a mean resolve_ms < 30\n")
        assert main(["slo", good, "--input",
                     str(tmp_path / "missing.json")]) == 2
        capsys.readouterr()

    def test_json_output_and_verdict_file(self, tmp_path, capsys):
        from repro.cli import main
        budget = self.write(tmp_path, "budget.json", BUDGET_DOC)
        rules = self.write(tmp_path, "rules.slo", "a mean resolve_ms < 30\n")
        out = tmp_path / "verdict.json"
        assert main(["slo", rules, "--input", budget,
                     "--format", "json", "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        written = json.loads(out.read_text())
        assert printed == written
        assert written["format"] == "repro-slo-v1" and written["ok"]
