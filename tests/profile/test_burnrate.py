"""Tests for the windowed SLO grammar: window rules and burn-rate
alerts over ``repro-timeseries-v1`` documents."""

import pytest

from repro.profile.slo import (
    BurnRateRule,
    SloParseError,
    WindowRule,
    evaluate_slo,
    parse_slo_text,
)


def timeseries_doc(answers, mislocalized, window_ms=1000.0,
                   deployment="mec-ldns-mec-cdns", latency=None):
    """A telemetry artifact embedding a minimal repro-timeseries-v1
    document built from per-window values.

    ``answers``/``mislocalized`` map window index -> count; ``latency``
    maps window index -> (count, sum, {bound: count}) cells.
    """
    series = [
        {"name": "repro_control_answers", "kind": "counter",
         "labels": {"deployment": deployment},
         "windows": [{"index": i, "start_ms": i * window_ms, "value": v}
                     for i, v in sorted(answers.items())]},
        {"name": "repro_control_mislocalized", "kind": "counter",
         "labels": {"deployment": deployment},
         "windows": [{"index": i, "start_ms": i * window_ms, "value": v}
                     for i, v in sorted(mislocalized.items())]},
    ]
    if latency:
        series.append(
            {"name": "repro_workload_total_ms", "kind": "latency",
             "labels": {"deployment": deployment},
             "windows": [{"index": i, "start_ms": i * window_ms,
                          "count": count, "sum": total,
                          "buckets": [[bound, n]
                                      for bound, n in buckets.items()]}
                         for i, (count, total, buckets)
                         in sorted(latency.items())]})
    return {"format": "repro-telemetry-v1", "timeseries": {
        "format": "repro-timeseries-v1", "window_ms": window_ms,
        "series": series, "annotations": []}}


class TestParsing:
    def test_window_rule(self):
        (rule,) = parse_slo_text("* window p95 total_ms < 150\n")
        assert isinstance(rule, WindowRule)
        assert (rule.scope, rule.agg, rule.metric) == ("*", "p95",
                                                       "total_ms")

    def test_window_rejects_min(self):
        with pytest.raises(SloParseError, match="min"):
            parse_slo_text("* window min total_ms < 150\n")

    def test_window_rejects_unknown_metric(self):
        with pytest.raises(SloParseError, match="unknown window metric"):
            parse_slo_text("* window p95 nonsense < 150\n")

    def test_burnrate_rule(self):
        (rule,) = parse_slo_text(
            "mec-ldns-mec-cdns burnrate mislocalized/answers fires "
            "budget=0.05 factor=2 fast=2 slow=4 clear=3\n")
        assert isinstance(rule, BurnRateRule)
        assert rule.bad == "mislocalized"
        assert rule.total == "answers"
        assert (rule.mode, rule.budget, rule.factor) == ("fires", 0.05, 2.0)
        assert (rule.fast, rule.slow, rule.clear) == (2, 4, 3)

    def test_burnrate_validates_options(self):
        for bad in (
            "x burnrate a/b fires budget=1.5 factor=2 fast=1 slow=2",
            "x burnrate a/b fires budget=0.1 factor=0 fast=1 slow=2",
            "x burnrate a/b fires budget=0.1 factor=2 fast=4 slow=2",
            "x burnrate a/b sometimes budget=0.1 factor=2 fast=1 slow=2",
            "x burnrate a/b fires budget=0.1 factor=2 fast=1 slow=2 k=1",
        ):
            with pytest.raises(SloParseError):
                parse_slo_text(bad + "\n")

    def test_point_rules_still_parse(self):
        (rule,) = parse_slo_text("mec-ldns-mec-cdns p99 resolve_ms < 20\n")
        assert not isinstance(rule, (WindowRule, BurnRateRule))


class TestWindowRule:
    def test_empty_window_in_covered_range_fails(self):
        # Samples in windows 0 and 2, nothing in window 1: strict
        # missing-data semantics make the gap a failure, not a skip.
        doc = timeseries_doc({}, {}, latency={
            0: (4, 40.0, {20: 4}), 2: (4, 44.0, {20: 4})})
        rules = parse_slo_text("mec-ldns-mec-cdns window p95 total_ms "
                               "< 100\n")
        (check,) = evaluate_slo(rules, [doc]).checks
        assert not check.ok
        assert "window 1 has no samples" in check.detail

    def test_contiguous_windows_pass(self):
        doc = timeseries_doc({}, {}, latency={
            0: (4, 40.0, {20: 4}), 1: (4, 44.0, {20: 4})})
        rules = parse_slo_text("mec-ldns-mec-cdns window p95 total_ms "
                               "< 100\n")
        (check,) = evaluate_slo(rules, [doc]).checks
        assert check.ok

    def test_worst_window_breaches(self):
        doc = timeseries_doc({}, {}, latency={
            0: (4, 40.0, {20: 4}),
            1: (4, 4000.0, {2000: 4})})   # the slow window
        rules = parse_slo_text("mec-ldns-mec-cdns window p95 total_ms "
                               "< 100\n")
        (check,) = evaluate_slo(rules, [doc]).checks
        assert not check.ok
        assert check.value is not None and check.value > 100

    def test_no_matching_scope_fails(self):
        doc = timeseries_doc({}, {}, latency={0: (1, 5.0, {20: 1})})
        rules = parse_slo_text("google-dns window p95 total_ms < 100\n")
        (check,) = evaluate_slo(rules, [doc]).checks
        assert not check.ok


class TestBurnRateRule:
    RULE = ("mec-ldns-mec-cdns burnrate mislocalized/answers {mode} "
            "budget=0.1 factor=2 fast=1 slow=2{extra}\n")

    def run_rule(self, doc, mode, extra=""):
        rules = parse_slo_text(self.RULE.format(mode=mode, extra=extra))
        (check,) = evaluate_slo(rules, [doc]).checks
        return check

    def test_quiet_passes_when_burn_stays_low(self):
        doc = timeseries_doc({i: 100.0 for i in range(6)},
                             {i: 1.0 for i in range(6)})
        check = self.run_rule(doc, "quiet")
        assert check.ok
        assert "quiet across" in check.detail

    def test_quiet_fails_on_a_burst(self):
        answers = {i: 100.0 for i in range(6)}
        bad = {i: 1.0 for i in range(6)}
        bad[3] = 50.0   # 50% bad vs a 10% budget: 5x burn
        check = self.run_rule(timeseries_doc(answers, bad), "quiet")
        assert not check.ok

    def test_fires_requires_the_alert(self):
        doc = timeseries_doc({i: 100.0 for i in range(6)},
                             {i: 1.0 for i in range(6)})
        check = self.run_rule(doc, "fires")
        assert not check.ok
        assert "never fired" in check.detail

    def test_fires_and_clears(self):
        answers = {i: 100.0 for i in range(8)}
        bad = {i: 0.0 for i in range(8)}
        bad[2] = bad[3] = 60.0   # burst windows 2-3, quiet afterwards
        check = self.run_rule(timeseries_doc(answers, bad), "fires",
                              extra=" clear=3")
        assert check.ok
        assert "fired in" in check.detail

    def test_fires_with_clear_fails_when_still_burning(self):
        answers = {i: 100.0 for i in range(6)}
        bad = {i: 60.0 for i in range(6)}   # never recovers
        check = self.run_rule(timeseries_doc(answers, bad), "fires",
                              extra=" clear=2")
        assert not check.ok
        assert "still firing" in check.detail

    def test_zero_total_windows_burn_nothing(self):
        answers = {0: 100.0, 3: 100.0}      # gaps at 1-2
        bad = {0: 1.0, 3: 1.0}
        check = self.run_rule(timeseries_doc(answers, bad), "quiet")
        assert check.ok

    def test_missing_series_fails(self):
        doc = timeseries_doc({}, {})
        check = self.run_rule(doc, "fires")
        assert not check.ok

    def test_counter_family_resolution_prefers_control(self):
        # Both a control and a workload series called "answers" exist;
        # the bare token must resolve to the control one (10% bad), not
        # the workload one (0% bad).
        doc = timeseries_doc({i: 100.0 for i in range(4)},
                             {i: 10.0 for i in range(4)})
        doc["timeseries"]["series"].append(
            {"name": "repro_workload_answers", "kind": "counter",
             "labels": {"deployment": "mec-ldns-mec-cdns"},
             "windows": [{"index": i, "start_ms": i * 1000.0,
                          "value": 10 ** 6} for i in range(4)]})
        rules = parse_slo_text(
            "mec-ldns-mec-cdns burnrate mislocalized/answers quiet "
            "budget=0.01 factor=2 fast=1 slow=2\n")
        (check,) = evaluate_slo(rules, [doc]).checks
        assert not check.ok   # 10% bad vs 1% budget using control series

    def test_embedded_timeseries_document(self):
        # The time-series rides inside a repro-telemetry-v1 artifact,
        # next to its metrics.
        doc = timeseries_doc({i: 100.0 for i in range(4)},
                             {i: 1.0 for i in range(4)})
        doc["metrics"] = []
        assert self.run_rule(doc, "quiet").ok
