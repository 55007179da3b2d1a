"""Tests for the Figure 5 testbed deployments and their shape claims."""

import pytest

from repro.core.deployments import (
    DEPLOYMENT_KEYS,
    DEPLOYMENT_LABELS,
    MEC_DEPLOYMENTS,
    TESTBED_5G,
    WARMED_DEPLOYMENTS,
    build_testbed,
)
from repro.measure import measure_deployment_queries, summarize


def mean_latency(key, seed=7, count=15, **kwargs):
    testbed = build_testbed(key, seed=seed, **kwargs)
    measurements = measure_deployment_queries(testbed, count)
    return summarize([m.latency_ms for m in measurements]).mean, measurements


class TestBuilders:
    def test_all_six_deployments_build_and_resolve(self):
        for key in DEPLOYMENT_KEYS:
            testbed = build_testbed(key, seed=1)
            measurements = measure_deployment_queries(testbed, 3)
            assert all(m.status == "NOERROR" for m in measurements), key
            assert all(m.addresses for m in measurements), key

    def test_unknown_deployment_rejected(self):
        with pytest.raises(ValueError):
            build_testbed("carrier-pigeon")

    def test_labels_cover_all_keys(self):
        assert set(DEPLOYMENT_LABELS) == set(DEPLOYMENT_KEYS)

    def test_testbed_carries_its_placement(self):
        assert MEC_DEPLOYMENTS + WARMED_DEPLOYMENTS == DEPLOYMENT_KEYS
        cdns_hosts = {}
        for key in DEPLOYMENT_KEYS:
            testbed = build_testbed(key, seed=1)
            assert testbed.localized == (key in MEC_DEPLOYMENTS)
            assert testbed.network.host(testbed.cdns_host) is not None
            cdns_hosts[key] = testbed.cdns_host
        assert cdns_hosts["mec-ldns-lan-cdns"] == "lan-cdns"
        assert cdns_hosts["mec-ldns-wan-cdns"] == "wan-cdns"
        in_cluster = build_testbed("mec-ldns-mec-cdns", seed=1)
        assert in_cluster.cdns_host == \
            in_cluster.mec_site.cdns_pod.host.name == cdns_hosts["lan-ldns"]

    def test_answers_point_at_mec_caches(self):
        testbed = build_testbed("mec-ldns-mec-cdns", seed=2)
        measurements = measure_deployment_queries(testbed, 5)
        for measurement in measurements:
            assert measurement.addresses[0] in testbed.expected_cache_ips


class TestFigure5Shape:
    """The paper's headline relative claims, asserted with margins."""

    def test_ordering_of_the_six_bars(self):
        means = {key: mean_latency(key)[0] for key in DEPLOYMENT_KEYS}
        assert means["mec-ldns-mec-cdns"] < means["mec-ldns-lan-cdns"]
        assert means["mec-ldns-lan-cdns"] < means["mec-ldns-wan-cdns"]
        assert means["mec-ldns-wan-cdns"] < means["google-dns"]
        assert means["mec-ldns-wan-cdns"] < means["lan-ldns"]
        assert means["google-dns"] < means["cloudflare-dns"]

    def test_only_mec_options_fit_the_20ms_envelope(self):
        means = {key: mean_latency(key)[0] for key in DEPLOYMENT_KEYS}
        assert means["mec-ldns-mec-cdns"] < 20
        assert means["mec-ldns-lan-cdns"] < 20
        for key in ("mec-ldns-wan-cdns", "lan-ldns", "google-dns",
                    "cloudflare-dns"):
            assert means[key] > 20

    def test_mec_vs_lan_gap_is_about_5ms(self):
        mec, _ = mean_latency("mec-ldns-mec-cdns")
        lan, _ = mean_latency("mec-ldns-lan-cdns")
        assert 3 <= lan - mec <= 8

    def test_up_to_9x_faster_than_non_mec_resolvers(self):
        mec, _ = mean_latency("mec-ldns-mec-cdns")
        cloudflare, _ = mean_latency("cloudflare-dns")
        assert cloudflare / mec > 7.5

    def test_wireless_leg_dominates_the_mec_bar(self):
        _, measurements = mean_latency("mec-ldns-mec-cdns")
        wireless = summarize([m.wireless_ms for m in measurements]).mean
        total = summarize([m.latency_ms for m in measurements]).mean
        assert wireless / total > 0.6
        assert wireless == pytest.approx(10, abs=3)

    def test_5g_shrinks_the_wireless_component(self):
        lte, lte_ms = mean_latency("mec-ldns-mec-cdns")
        nr, nr_ms = mean_latency("mec-ldns-mec-cdns", profile=TESTBED_5G)
        lte_wireless = summarize([m.wireless_ms for m in lte_ms]).mean
        nr_wireless = summarize([m.wireless_ms for m in nr_ms]).mean
        assert nr_wireless < lte_wireless / 3
        assert nr < lte

    def test_5g_grows_the_boost_over_far_resolvers(self):
        # §4: "Future 5G deployments will drastically reduce this time,
        # resulting in even greater end-to-end boost for MEC-CDN" — the
        # far resolvers barely improve, the MEC bar nearly halves.
        def boost(**kwargs):
            mec, _ = mean_latency("mec-ldns-mec-cdns", seed=42, count=20,
                                  **kwargs)
            far, _ = mean_latency("cloudflare-dns", seed=42, count=20,
                                  **kwargs)
            return far / mec, mec

        boost_lte, _ = boost()
        boost_5g, mec_5g = boost(profile=TESTBED_5G)
        assert mec_5g < 10
        assert boost_5g > boost_lte * 1.5


class TestMeasurementHarness:
    def test_warmup_excluded(self):
        testbed = build_testbed("mec-ldns-mec-cdns", seed=3)
        measurements = measure_deployment_queries(testbed, 4, warmup=2)
        assert len(measurements) == 4

    def test_positive_count_required(self):
        testbed = build_testbed("mec-ldns-mec-cdns", seed=3)
        with pytest.raises(ValueError):
            measure_deployment_queries(testbed, 0)

    def test_wireless_plus_resolver_equals_total(self):
        testbed = build_testbed("mec-ldns-wan-cdns", seed=3)
        for m in measure_deployment_queries(testbed, 5):
            assert m.wireless_ms + m.resolver_ms == pytest.approx(
                m.latency_ms, abs=1e-6)
