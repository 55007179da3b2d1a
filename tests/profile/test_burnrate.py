"""Tests for the windowed claim rows and the burn reader: window bounds
and burn-rate alerts over ``repro-timeseries-v1`` documents."""

import math

import pytest

from repro.profile.slo import burn_rates, telemetry_claims


def timeseries_doc(queries, mislocalized, window_ms=1000.0,
                   deployment="mec-ldns-mec-cdns", latency=None):
    """A telemetry artifact embedding a minimal repro-timeseries-v1
    document built from per-window values.

    ``queries``/``mislocalized`` map window index -> count; ``latency``
    maps window index -> (count, sum, {bound: count}) cells.
    """
    series = [
        {"name": "repro_workload_queries", "kind": "counter",
         "labels": {"deployment": deployment},
         "windows": [{"index": i, "start_ms": i * window_ms, "value": v}
                     for i, v in sorted(queries.items())]},
        {"name": "repro_workload_mislocalized", "kind": "counter",
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


def rows(document):
    return {claim.name: claim for claim in telemetry_claims(document)}


QUIET = "mec-ldns-mec-cdns peak mislocalization burn (0.05 budget)"
FIRES = "google-dns peak mislocalization burn (0.1 budget)"


class TestWindowRule:
    EMPTY = "mec-ldns-mec-cdns empty total_ms windows in range"
    SLOWEST = "mec-ldns-mec-cdns slowest window p95 total_ms"

    def test_empty_window_in_covered_range_fails(self):
        # Samples in windows 0 and 2, nothing in window 1: strict
        # missing-data semantics make the gap a failure, not a skip.
        claims = rows(timeseries_doc({}, {}, latency={
            0: (4, 40.0, {20: 4}), 2: (4, 44.0, {20: 4})}))
        assert claims[self.EMPTY].value == 1
        assert not claims[self.EMPTY].holds()
        assert claims[self.SLOWEST].holds()

    def test_contiguous_windows_pass(self):
        claims = rows(timeseries_doc({}, {}, latency={
            0: (4, 40.0, {20: 4}), 1: (4, 44.0, {20: 4})}))
        assert claims[self.EMPTY].holds() and claims[self.SLOWEST].holds()

    def test_worst_window_breaches(self):
        claims = rows(timeseries_doc({}, {}, latency={
            0: (4, 40.0, {20: 4}),
            1: (4, 4000.0, {2000: 4})}))   # the slow window
        slowest = claims[self.SLOWEST]
        assert slowest.value > 1000 and not slowest.holds()

    def test_no_matching_scope_fails(self):
        claims = rows(timeseries_doc({}, {}, latency={0: (1, 5.0, {20: 1})}))
        slowest = claims["google-dns slowest window p99 total_ms"]
        assert math.isnan(slowest.value) and not slowest.holds()


class TestBurnRateRule:
    def burns(self, queries, bad):
        """The per-window burn of a 10 % budget over 1 / 2 windows."""
        document = timeseries_doc(queries, bad)
        return burn_rates(document["timeseries"], "mec-ldns-mec-cdns",
                          "repro_workload_mislocalized",
                          "repro_workload_queries", budget=0.1, fast=1,
                          slow=2)

    def test_quiet_passes_when_burn_stays_low(self):
        claims = rows(timeseries_doc({i: 100.0 for i in range(6)},
                                     {i: 1.0 for i in range(6)}))
        assert claims[QUIET].value == pytest.approx(0.2)
        assert claims[QUIET].holds()

    def test_quiet_fails_on_a_burst(self):
        queries = {i: 100.0 for i in range(6)}
        bad = {i: 1.0 for i in range(6)}
        bad[3] = 50.0   # half of one window bad, against a 5% budget
        claim = rows(timeseries_doc(queries, bad))[QUIET]
        assert claim.value >= 2.0 and not claim.holds()

    def test_fires_requires_the_alert(self):
        claim = rows(timeseries_doc({i: 100.0 for i in range(6)},
                                    {i: 1.0 for i in range(6)},
                                    deployment="google-dns"))[FIRES]
        assert claim.op == ">=" and not claim.holds()

    def test_fires_and_clears(self):
        bad = {i: 0.0 for i in range(8)}
        bad[2] = bad[3] = 60.0   # burst windows 2-3, quiet afterwards
        burns = self.burns({i: 100.0 for i in range(8)}, bad)
        assert [i for i, burn in burns.items() if burn >= 2.0] == [2, 3]

    def test_fires_with_clear_fails_when_still_burning(self):
        burns = self.burns({i: 100.0 for i in range(6)},
                           {i: 60.0 for i in range(6)})   # never recovers
        assert all(burn >= 2.0 for burn in burns.values())

    def test_zero_total_windows_burn_nothing(self):
        burns = self.burns({0: 100.0, 3: 100.0}, {0: 1.0, 3: 1.0})
        assert burns[1] == burns[2] == 0.0     # the gap at 1-2

    def test_missing_series_fails(self):
        claims = rows(timeseries_doc({}, {}))
        assert not claims[FIRES].holds() and not claims[QUIET].holds()

    def test_embedded_timeseries_document(self):
        # The time-series rides inside a repro-telemetry-v1 artifact,
        # next to its metrics.
        doc = timeseries_doc({i: 100.0 for i in range(4)},
                             {i: 1.0 for i in range(4)})
        doc["metrics"] = []
        assert rows(doc)[QUIET].holds()
