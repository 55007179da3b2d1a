"""Tests for the budget claim rows, the window reader, and the ``repro
slo`` gate."""

import json
import math

import pytest

from repro.profile.slo import budget_claims, series_windows, telemetry_claims
from repro.telemetry.metrics import percentile


def budget_doc(**samples):
    """A ``repro-budget-v1`` document: deployment -> resolve samples; the
    MEC deployment's upstream-recursion stage reads 1, 2, 1, 2 ms."""
    rows = [{"deployment": deployment.replace("_", "-"),
             "count": len(values),
             "resolve_ms": {"samples": list(values)},
             "stages": {"upstream-recursion": {
                 "mean_ms": 1.5, "samples": [1.0, 2.0, 1.0, 2.0]}}}
            for deployment, values in samples.items()]
    return {"format": "repro-budget-v1", "rows": rows}


#: Every budget row holds.
BUDGET_SAMPLES = {
    "mec_ldns_mec_cdns": [10.0, 12.0, 14.0, 16.0],
    "mec_ldns_lan_cdns": [20.0, 21.0, 22.0, 23.0],
    "mec_ldns_wan_cdns": [60.0, 60.0, 60.0, 60.0],
    "lan_ldns": [110.0, 110.0, 110.0, 110.0],
    "google_dns": [120.0, 120.0, 120.0, 120.0],
}


#: A telemetry artifact that carries a histogram but no time-series.
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


def rows(document):
    return {claim.name: claim for claim in budget_claims(document)}


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

#: ``(p50, p90, p99, max)`` of each scope's window.  The reader rebuilds
#: the full ``DEFAULT_BUCKETS`` layout: the "gap" p50 interpolates inside
#: ``(10, 20]``, not across the empty buckets below it, and a rank in
#: ``+Inf`` reads the last finite bound of the layout (5000), not of the
#: occupied buckets.
PINNED_ESTIMATES = {
    "gap": (16.75438596491228, 38.854014598540154,
            49.47664233576643, 100.0),
    "lone": (150.0, 190.0, 199.0, 200.0),
    "tail": (315.38461538461536, 500.0, 5000.0, 5000.0),
    "*": (17.406015037593985, 49.10218978102189,
          477.96153846153885, 5000.0),
}


class TestEvaluate:
    def test_budget_samples_pass_and_fail(self):
        claim = rows(budget_doc(**BUDGET_SAMPLES))[
            "mec-ldns-mec-cdns mean resolve_ms"]
        assert claim.value == 13.0 and claim.holds()
        slow = dict(BUDGET_SAMPLES,
                    mec_ldns_mec_cdns=[10.0, 20.0, 30.0, 40.0])
        claim = rows(budget_doc(**slow))["mec-ldns-mec-cdns mean resolve_ms"]
        assert claim.value == 25.0 and not claim.holds()

    def test_quantiles_interpolate_over_raw_samples(self):
        claims = rows(budget_doc(**BUDGET_SAMPLES))
        p99 = claims["mec-ldns-mec-cdns p99 resolve_ms"]
        assert p99.value == percentile([10.0, 12.0, 14.0, 16.0], 99)
        assert p99.value == pytest.approx(15.94)
        assert claims["mec-ldns-lan-cdns p95 resolve_ms"].value == \
            pytest.approx(22.85)

    def test_star_scope_pools_every_deployment(self):
        # The pooled median (16 + 120) / 2 is neither deployment's own.
        claims = rows(budget_doc(mec_ldns_mec_cdns=[10.0, 12.0, 14.0, 16.0],
                                 google_dns=[120.0] * 4))
        assert claims["* p50 resolve_ms"].value == 68.0

    def test_stage_metric(self):
        claim = rows(budget_doc(**BUDGET_SAMPLES))[
            "mec-ldns-mec-cdns mean stage.upstream-recursion_ms"]
        assert claim.value == 1.5 and claim.holds()

    def test_greater_than_asserts_reproduction_claims(self):
        # A ">" bound pins that the slow deployment really is slow: the
        # paper's claim, not a performance wish.
        name = "mec-ldns-wan-cdns mean resolve_ms"
        assert rows(budget_doc(**BUDGET_SAMPLES))[name].holds()
        fast_wan = dict(BUDGET_SAMPLES, mec_ldns_wan_cdns=[15.0] * 4)
        claim = rows(budget_doc(**fast_wan))[name]
        assert claim.op == ">" and not claim.holds()

    def test_missing_data_fails_not_passes(self):
        without = {key: values for key, values in BUDGET_SAMPLES.items()
                   if key != "google_dns"}
        claims = rows(budget_doc(**without))
        presence = claims["google-dns budget samples"]
        assert presence.value == 0 and not presence.holds()
        p50 = claims["google-dns p50 resolve_ms"]
        assert math.isnan(p50.value) and not p50.holds()
        assert all(claim.holds() for name, claim in claims.items()
                   if not name.startswith("google-dns"))

    def test_histogram_cannot_answer_min_or_scoped_rules(self):
        # Budget rows need raw samples and telemetry rows need windows:
        # a whole-run histogram answers neither, so every row fails.
        assert not any(claim.holds()
                       for claim in budget_claims(HISTOGRAM_DOC))
        assert not any(claim.holds()
                       for claim in telemetry_claims(HISTOGRAM_DOC))

    def test_verdict_document_shape(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "budget.json"
        path.write_text(json.dumps(budget_doc(**BUDGET_SAMPLES)))
        assert main(["slo", str(path)]) == 0
        *lines, summary = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines[:2]] == [
            ["[PASS]", "mec-ldns-mec-cdns"], ["[PASS]", "mec-ldns-mec-cdns"]]
        assert lines[0].split()[-3:] == ["15.940", "<", "20"]
        assert summary == "slo: OK — 13 claims, 0 failing"


class TestClaimRows:
    def test_p1_bound_is_a_budget_row(self):
        # The paper's headline budget: MEC resolution under the ~20 ms an
        # MEC application can spend end to end.
        p1 = rows(budget_doc(**BUDGET_SAMPLES))[
            "mec-ldns-mec-cdns p99 resolve_ms"]
        assert (p1.op, p1.bound) == ("<", 20.0)


class TestSeriesWindows:
    def test_bucket_estimates_are_pinned(self):
        for scope, expected in PINNED_ESTIMATES.items():
            (cell,) = series_windows(ESTIMATE_TIMESERIES_DOC,
                                     "repro_workload_total_ms",
                                     scope).values()
            assert tuple(cell.quantile(pct)
                         for pct in (50, 90, 99, 100)) == expected


class TestCli:
    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(payload if isinstance(payload, str)
                        else json.dumps(payload))
        return str(path)

    def test_exit_zero_on_pass_and_one_on_breach(self, tmp_path, capsys):
        from repro.cli import main
        passing = self.write(tmp_path, "pass.json",
                             budget_doc(**BUDGET_SAMPLES))
        assert main(["slo", passing]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 13 and "slo: OK" in out

        # The injected breach: a tail that busts the 20 ms P1 budget.
        tail = dict(BUDGET_SAMPLES,
                    mec_ldns_mec_cdns=[10.0, 12.0, 14.0, 26.0])
        breach = self.write(tmp_path, "breach.json", budget_doc(**tail))
        assert main(["slo", breach]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] mec-ldns-mec-cdns p99 resolve_ms" in out
        assert "BREACH" in out

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["slo", str(tmp_path / "missing.json")]) == 2
        unknown = self.write(tmp_path, "unknown.json",
                             {"format": "repro-slo-v1"})
        assert main(["slo", unknown]) == 2
        assert main(["slo", self.write(tmp_path, "bad.json", "{")]) == 2
        assert main(["slo", self.write(tmp_path, "list.json", [])]) == 2
        capsys.readouterr()
