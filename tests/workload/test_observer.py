"""The district observer on its own: no kernel, no RNG.

Three hand-written sessions that between them cross a window edge,
re-enter an earlier window, get head-sampled, hand over mid-session and
put one query over the tail threshold.  Everything the observer owns —
window cursors, the session sampler, span and exemplar construction,
the flush — is asserted from the records alone.  A property test then
holds the observer's arrival binning to the obvious reference: sorted
cuts of each window's values, and their sum in arrival order.
"""

from bisect import bisect_right
from functools import reduce
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import Exemplar, Telemetry, TelemetryConfig
from repro.telemetry.metrics import DEFAULT_BUCKETS
from repro.telemetry.sampling import hash_unit, hash_unit_u64
from repro.workload.observer import _DistrictObserver

DEPLOYMENT = "mec"
SCOPE = "mec/d0"
CONFIG = TelemetryConfig(trace_sample=0.5, window_ms=1000.0, tail_capacity=1)


def record(start_s, site, served_site, hit, interruption_ms=0.0,
           fetch_ms=1.0, origin_ms=0.0):
    """A query record with a 10 + 2 ms DNS leg pair."""
    dns_ms = 10.0 + 2.0 + interruption_ms
    return (start_s, site, served_site, hit, dns_ms,
            dns_ms + fetch_ms + origin_ms, 10.0, 2.0, interruption_ms,
            fetch_ms, origin_ms)


#: ``(ue, session ordinal, home site, records)`` in hand-off order.
SESSIONS = [
    # Unsampled; fills the one-slot reservoir (63 ms stays, 13 ms goes).
    (0, 1, 0, [record(0.10, 0, 0, True),
               record(0.60, 0, 0, False, origin_ms=50.0)]),
    # Sampled; crosses into window 1 and hands over to site 1 on its
    # second query, which site 0 still serves — the only 70 ms query.
    (0, 2, 0, [record(0.90, 0, 0, True),
               record(1.20, 1, 0, True, interruption_ms=50.0, fetch_ms=8.0),
               record(1.25, 1, 1, True)]),
    # Unsampled; another UE, back in window 0.
    (1, 1, 1, [record(0.30, 1, 1, True)]),
]
QUERIES = sum(len(records) for _, _, _, records in SESSIONS)


def observe(config=CONFIG):
    tel = Telemetry.from_config(config)
    observer = _DistrictObserver(tel, 2, DEPLOYMENT, SCOPE)
    for ue, ordinal, home_site, records in SESSIONS:
        observer.session(ue, ordinal, home_site, records)
    observer.close(queries=QUERIES, hits=5, localized=5,
                   sessions=len(SESSIONS), handovers=1)
    return tel


@pytest.fixture(scope="module")
def tel():
    return observe()


def series(tel, name):
    return {tuple(sorted(entry["labels"].items())):
            {window["index"]: window for window in entry["windows"]}
            for entry in tel.timeseries.to_dict()["series"]
            if entry["name"] == name}


def test_the_sampler_keeps_exactly_the_second_session():
    # The decision the scenario rests on, spelled out: a splitmix64 hash
    # of the district's salt plus the 1-based session ordinal.
    salt = int(hash_unit(SCOPE) * 9007199254740992.0)
    kept = [hash_unit_u64(salt + ordinal) < CONFIG.trace_sample
            for ordinal in (1, 2, 3)]
    assert kept == [False, True, False]


def test_queries_land_in_the_window_and_site_they_were_issued_from(tel):
    counts = {labels: {at: window["value"] for at, window in windows.items()}
              for labels, windows
              in series(tel, "repro_workload_queries").items()}
    assert counts == {
        (("deployment", DEPLOYMENT), ("site", "0")): {0: 3.0},
        (("deployment", DEPLOYMENT), ("site", "1")): {0: 1.0, 1: 2.0},
    }


def test_only_the_handed_over_query_is_mislocalized(tel):
    # Counted at the UE's site, and site 0 gets no empty series.
    counts = {labels: {at: window["value"] for at, window in windows.items()}
              for labels, windows
              in series(tel, "repro_workload_mislocalized").items()}
    assert counts == {
        (("deployment", DEPLOYMENT), ("site", "1")): {1: 1.0}}


def test_latency_windows_hold_every_value_once(tel):
    (total_windows,) = series(tel, "repro_workload_total_ms").values()
    assert {at: (window["count"], window["sum"])
            for at, window in total_windows.items()} == {
                0: (4, 13.0 + 63.0 + 13.0 + 13.0), 1: (2, 70.0 + 13.0)}
    assert total_windows[1]["buckets"] == [[20.0, 1], [100.0, 1]]
    (dns_windows,) = series(tel, "repro_workload_dns_ms").values()
    assert {at: (window["count"], window["sum"])
            for at, window in dns_windows.items()} == {
                0: (4, 48.0), 1: (2, 62.0 + 12.0)}


def test_the_sampled_session_is_one_trace(tel):
    spans = tel.tracer.finished
    assert [(span.trace_id, span.span_id, span.parent_id, span.name)
            for span in spans] == [(1, 1, None, "session"),
                                   (1, 2, 1, "query"), (1, 3, 1, "query"),
                                   (1, 4, 1, "query")]
    assert all((span.category, span.track) == ("workload", DEPLOYMENT)
               for span in spans)
    root, first, second, third = spans
    assert root.attrs == {"deployment": DEPLOYMENT, "ue": "0",
                          "home_site": "0"}
    assert (first.start_ms, first.end_ms) == (900.0, 913.0)
    assert (second.start_ms, second.end_ms) == (1200.0, 1270.0)
    assert (third.start_ms, third.end_ms) == (1250.0, 1263.0)
    assert second.attrs == {"hit": "1", "served_site": "0", "site": "1"}
    # Queries overlap, so the session ends with its slowest query, not
    # its last one.
    assert (root.start_ms, root.end_ms) == (900.0, 1270.0)
    assert tel.tracer.id_offsets() == (1, 4)


def test_query_spans_with_equal_attrs_share_one_dict():
    # Every session kept, over three sites: each (hit, served_site, site)
    # has one attrs dict, built once and shared by every span with it.
    tel = Telemetry.from_config(CONFIG._replace(trace_sample=1.0))
    observer = _DistrictObserver(tel, 3, DEPLOYMENT, SCOPE)
    keys = list(product((True, False), range(3), range(3)))
    for ordinal in (1, 2):
        observer.session(0, ordinal, 0, [
            record(0.01 * index, site, served_site, hit)
            for index, (hit, served_site, site) in enumerate(keys)])
    shared = {}
    for span in tel.tracer.finished:
        if span.name == "query":
            key = (span.attrs["hit"], span.attrs["served_site"],
                   span.attrs["site"])
            assert shared.setdefault(key, span.attrs) is span.attrs
    assert sorted(shared) == sorted(
        ("1" if hit else "0", str(served_site), str(site))
        for hit, served_site, site in keys)
    assert all(len(attrs) == 3 for attrs in shared.values())


def test_unsampled_queries_are_counted_not_lost(tel):
    assert tel.tracer.sampled_out == QUERIES - 3


def test_the_tail_keeps_the_slowest_query_with_its_stages(tel):
    # Session 1 offered both its queries (no threshold yet); after it
    # only the 70 ms query clears the 63 ms bar.
    assert tel.tail.offered == 3
    assert tel.tail.items() == [Exemplar(
        key=f"{SCOPE}/u0/s2/q1", total_ms=70.0, t_ms=1200.0,
        stages=(("dns.wireless", 10.0), ("dns.resolver", 2.0),
                ("handover", 50.0), ("fetch", 8.0)),
        attrs=(("deployment", DEPLOYMENT), ("hit", "1"),
               ("served_site", "0"), ("site", "1")))]


def test_close_reports_the_kernels_counters(tel):
    totals = {name: dict(tel.metrics.counter(name).samples())[
                  (("deployment", DEPLOYMENT),)]
              for name in ("repro_workload_queries_total",
                           "repro_workload_hits_total",
                           "repro_workload_mislocalized_total",
                           "repro_workload_sessions_total",
                           "repro_workload_handovers_total")}
    assert list(totals.values()) == [6.0, 5.0, 1.0, 3.0, 1.0]


def test_an_origin_fill_is_a_stage_and_a_handover_is_not_assumed():
    # With room for every query the reservoir shows both stage shapes.
    everything = observe(CONFIG._replace(tail_capacity=8))
    by_key = {exemplar.key: exemplar for exemplar in everything.tail.items()}
    assert len(by_key) == QUERIES
    assert by_key[f"{SCOPE}/u0/s1/q1"].stages == (
        ("dns.wireless", 10.0), ("dns.resolver", 2.0), ("fetch", 1.0),
        ("origin", 50.0))


def test_tracing_off_and_tail_off_leave_only_the_windows():
    quiet = observe(CONFIG._replace(trace_sample=0.0, tail_capacity=0))
    assert not quiet.tracer.finished
    assert quiet.tracer.sampled_out == 0
    assert quiet.tail.offered == 0
    assert series(quiet, "repro_workload_queries") == \
        series(observe(), "repro_workload_queries")


#: A latency: exactly a bucket bound (``+Inf`` too), or any value from 0
#: to past the last finite bound.
_LATENCY = st.one_of(st.sampled_from(DEFAULT_BUCKETS),
                     st.floats(0.0, 6000.0, allow_nan=False))
#: A session: ``(start_s, dns_ms, total_ms)`` per query, in any order, so
#: a session may leave a window and come back to it.
_SESSION = st.lists(st.tuples(st.floats(0.0, 4.999), _LATENCY, _LATENCY),
                    min_size=1, max_size=6)


@given(st.lists(_SESSION, min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_arrival_binning_equals_sorted_cuts_and_an_ordered_sum(sessions):
    tel = Telemetry.from_config(
        CONFIG._replace(trace_sample=0.0, tail_capacity=0))
    observer = _DistrictObserver(tel, 1, DEPLOYMENT, SCOPE)
    arrived = {"repro_workload_dns_ms": {}, "repro_workload_total_ms": {}}
    for ordinal, queries in enumerate(sessions, 1):
        for start, dns_ms, total_ms in queries:
            at = int(start)  # 1,000 ms windows
            arrived["repro_workload_dns_ms"].setdefault(at, []).append(
                dns_ms)
            arrived["repro_workload_total_ms"].setdefault(at, []).append(
                total_ms)
        observer.session(0, ordinal, 0, [
            (start, 0, 0, True, dns_ms, total_ms, 0.0, 0.0, 0.0, 0.0, 0.0)
            for start, dns_ms, total_ms in queries])
    queries = sum(len(session) for session in sessions)
    observer.close(queries=queries, hits=queries, localized=queries,
                   sessions=len(sessions), handovers=0)
    for name, windows in arrived.items():
        expected = {}
        for at, values in windows.items():
            ordered = sorted(values)
            reached = [bisect_right(ordered, bound)
                       for bound in DEFAULT_BUCKETS]
            expected[at] = {
                "index": at, "start_ms": at * 1000.0, "count": len(values),
                "sum": reduce(add, values, 0),
                "buckets": [
                    ["+Inf" if bound == float("inf") else bound, held]
                    for bound, held in zip(
                        DEFAULT_BUCKETS,
                        [now - before for before, now
                         in zip([0, *reached], reached)])
                    if held]}
        assert series(tel, name) == {
            (("deployment", DEPLOYMENT),): expected}
