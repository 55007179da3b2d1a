"""Sampled telemetry holds state per window, not per query.

A population run under telemetry must stay inside a memory bound that
does not grow with its query count (ROADMAP item 6): the district
observer bins each latency as it arrives, so what it holds is a fixed
set of cells per simulated-time window.  The pin runs one district at
N and 4N UEs over the same simulated hour, with telemetry off and on,
and bounds how much the on-minus-off peak may grow between the two.
Four times the queries land in the same 60 windows, so the gap should
not move; an observer that kept each query's values would grow it by
tens of bytes a query.
"""

import tracemalloc

import pytest

from repro import telemetry as _telemetry
from repro.telemetry import Telemetry, TelemetryConfig
from repro.workload.deployment import calibrate
from repro.workload.engine import DistrictConfig, run_district

#: One hour of a two-site district; ``ues`` is set per run.
CONFIG = DistrictConfig(
    ues=0, sites=2, caches_per_site=2, cache_capacity=30,
    catalog_size=500, zipf_exponent=0.9, duration_s=3600.0,
    sessions_per_ue_hour=2.0, mean_requests=6.0, mean_think_s=4.0,
    move_probability=0.3, handover_probability=0.3,
    allocation="content", start_s=18 * 3600.0)

#: Windows and tail on, traces off: the per-query state under test is
#: the observer's, not the 5 % of sessions a sampled run keeps as output.
SAMPLED = TelemetryConfig(trace_sample=0.0, window_ms=60000.0,
                          tail_capacity=32)

#: UEs of the smaller run (about 1,900 queries); the larger has 4x.
N = 100

#: Bytes the telemetry gap may grow from N to 4N UEs.  Measured about
#: 1.4 KiB with arrival binning; keeping every value in its window's
#: list until close grew it by about 360 KiB.
GROWTH_BOUND_B = 16 * 1024


@pytest.fixture(scope="module")
def model():
    return calibrate("mec-ldns-mec-cdns", seed=42)


def traced_peak(model, ues, config):
    """tracemalloc's peak bytes over one ``run_district`` call."""
    _telemetry.set_default(
        Telemetry.from_config(config) if config is not None else None)
    tracemalloc.start()
    try:
        run_district(CONFIG._replace(ues=ues), model, seed=7)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _telemetry.clear_default()


def telemetry_gap(model, ues):
    return (traced_peak(model, ues, SAMPLED)
            - traced_peak(model, ues, None))


def test_the_telemetry_gap_does_not_grow_with_the_query_count(model):
    # One run first, so allocations made once per process (interned
    # labels, lazily built tables) land in neither measurement.
    telemetry_gap(model, N)
    small = telemetry_gap(model, N)
    large = telemetry_gap(model, 4 * N)
    assert large - small < GROWTH_BOUND_B, (small, large)
