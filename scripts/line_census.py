#!/usr/bin/env python3
"""Which lines of ``src/repro`` no CI command runs: the line census.

    python3.12 scripts/line_census.py                    # run and gate
    python3.12 scripts/line_census.py --report out.json  # and keep the lines

Runs every product surface (``SURFACES``: each ``repro`` command CI runs,
and the bench children), then tier-1, each process under a hook that
``sitecustomize`` loads: a ``sys.monitoring`` LINE callback that records
the location and returns ``DISABLE``, so each location costs one call per
process.  The examples are tests, not a surface: no CI job runs them but
tier-1's ``tests/test_examples.py``.  Executable lines are what
``co_lines()`` lists for the code objects of every ``src/repro`` file.  A
line no surface runs is *test-only* if tier-1 runs it and *nowhere* if
nothing does; together they are the lines *not on surfaces*.  A line
some surface runs is *tooling-only* if no ``ARTIFACT_SURFACES`` command
(the ones that print the paper's artifacts and export nothing) runs it:
the code only observability and bench reach.  That number is reported,
not gated.

Every test-only line must sit inside a ``raise`` statement (class (a) by
construction), in a ``def`` / ``class`` that ``CLASSES`` names (the
innermost enclosing one, or any around it), or be out of scope:
``dnswire/message.py`` (ROADMAP item 2) and ``__repr__`` / ``__str__``.
A class says why the lines stay: (a) an error path under one of the
``DEGRADE_RULES``, (b) a mechanism its DESIGN.md row lists, (c) a bound or
input a test lowers, drives past or feeds.  ``CLASSES`` is also the table
of parameters only tests set, keyed ``file::qualname(param)``
(``tests/test_surface_census.py``), and of the static-analysis findings
the design needs, keyed ``file::qualname[RULE]``
(``tests/check/test_runner.py``).  The exit status is 1 if the table
names a def or parameter that is gone, a test-only line is unclassified,
or the lines not on surfaces (test-only plus nowhere: nowhere lines need
no class, but they count) are above ``CEILING``.  Needs 3.12 or later,
and pytest for tier-1; ``docs/TESTING.md`` says how to read the report
and lower the ceiling.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import CodeType
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from tests.static import index  # noqa: E402  (the one module index)

#: Lines not on surfaces (test-only, classified and out of scope
#: included, plus nowhere) may not exceed this, so deleting a mechanism's
#: last test without its code cannot lower the gated number.  Two runs
#: read 923 and 924, and a reading can move by a line: which pool worker
#: closes a suspended generator (running its ``except`` lines) depends on
#: scheduling, so the ceiling sits two above the largest reading.  Lower
#: it when a change deletes lines or a surface starts running them; never
#: raise it to fit one.  Lowered by one when CI began running
#: ``--allocation client`` (``_Router.select``'s client-ring line); three
#: runs then read 922, 924 and 922.  Lowered to 921 when the population
#: kernel took in the per-UE draw methods and CI began running
#: ``--sites 1`` and ``--sites 2``; two runs then read 919 and 919.
CEILING = 921

#: Outside the gate: the message classes are ROADMAP item 2's to fold, and
#: ``__repr__`` / ``__str__`` are for a person at a debugger.
OUT_OF_SCOPE_FILES = ("src/repro/dnswire/message.py",)
OUT_OF_SCOPE_NAMES = ("__repr__", "__str__")

#: The degrade rules an (a) entry names: each is a promise the code keeps
#: on a path no surface takes, and tier-1 holds it.
DEGRADE_RULES: Dict[str, str] = {
    "input": "an invalid argument, state or configuration raises a typed "
             "error where it enters",
    "wire": "malformed or truncated wire data raises WireFormatError, or "
            "the server answers FORMERR / NOTIMP; an unknown record type or "
            "EDNS option travels as opaque octets (RFC 3597, RFC 6891); any "
            "wire label has a presentation form (docs/DETERMINISM.md, 6)",
    "missing": "a lookup that finds nothing raises KeyError or returns "
               "None / NXDOMAIN / NODATA, never a made-up value; a document "
               "or row of another kind is skipped",
    "network": "a lost, refused or failed exchange ends in a status the "
               "caller handles (timeout, SERVFAIL, REFUSED, 504, a drop), "
               "never a hang",
    "degenerate": "an empty or degenerate input (no samples, one item, one "
                  "site, zero error radius, Zipf s = 1, sampling rate 0 or "
                  "1) takes its exact branch instead of dividing by zero or "
                  "rounding past a bound",
    "clamp": "a value outside a fixed range clamps to the nearest edge, or "
             "is left out (an object larger than the whole cache is never "
             "stored)",
    "gate": "a gate reports what fails it: a claim breached or without "
            "data; a clean run never takes these paths",
    "usage": "a CLI usage error or unreadable input prints to stderr and "
             "exits 2",
    "output": "an artifact file the CLI cannot write is named on stderr, "
              "and the run's exit status stays its own",
    "noop": "repeating a finished step (ending an ended span, killing a "
            "dead pod, publishing an unchanged RRset) changes nothing",
    "type": "comparing with a value of another type returns NotImplemented, "
            "so == is False",
    "trial": "a trial that raises becomes a TrialFailure the run reports by "
             "its label; a worker that dies fails the sweep",
}

_RESOLVER = "DESIGN.md §3 Resolver stack: "
_CDN = "DESIGN.md §3 CDN: "
_MEC = "DESIGN.md §3 MEC platform: "
_CORE = "DESIGN.md §3 Core contribution: "
_WIRE = "DESIGN.md §3 DNS wire protocol: "
_ZONE = "DESIGN.md §3 Zone data: "
_SIM = "DESIGN.md §3 Event simulator: "
_MOBILE = "DESIGN.md §3 Mobile network: "
_EXPERIMENTS = "DESIGN.md §3 Experiments: "

#: The one exemption table.  Why a test-only def, or a parameter only tests
#: set, stays: ``file::qualname`` or ``file::qualname(param)`` -> (class,
#: reason).  An (a) reason is a key of DEGRADE_RULES; a (b) reason cites
#: its DESIGN.md row and quotes the row's words for the mechanism
#: (:func:`mechanism`); a (c) reason names the bound or input a test
#: lowers, drives past or feeds.  An entry covers the defs nested in it; a
#: test-only line inside a ``raise`` needs none.  Why a def keeps findings
#: of a static-analysis rule: ``file::qualname[RULE]`` -> (the exact count
#: of them, reason).
CLASSES: Dict[str, Tuple[Union[str, int], str]] = {
    # -- cdn ---------------------------------------------------------------
    "src/repro/cdn/allocation.py::HashRing": (
        "b", _CDN + "consistent hashing — an empty ring, or one with no "
        "member the predicate accepts, picks nothing"),
    "src/repro/cdn/cache_server.py::CacheServer._on_request": (
        "a", "network"),
    "src/repro/cdn/cache_server.py::CacheServer._serve": ("a", "network"),
    "src/repro/cdn/cache_server.py::CacheServer._fill_from_parent": (
        "a", "network"),
    "src/repro/cdn/cache_server.py::CacheServer.admit": ("a", "clamp"),
    "src/repro/cdn/cache_server.py::CacheStats.hit_ratio": (
        "b", _CDN + "cache servers with hit/miss accounting and origin "
        "fill — the hit ratio a cache reports"),
    "src/repro/cdn/content.py::ContentCatalog.by_url": ("a", "missing"),
    "src/repro/cdn/content.py::ZipfRankStream._integral": (
        "a", "degenerate"),
    "src/repro/cdn/content.py::ZipfRankStream.next_rank": (
        "a", "degenerate"),
    "src/repro/cdn/content.py::ZipfRankStream._next_rank_logarithmic": (
        "a", "degenerate"),
    "src/repro/cdn/geo.py::GeoIpDatabase.lookup": ("a", "missing"),
    "src/repro/cdn/httpsim.py::_parse_response": ("a", "network"),
    "src/repro/cdn/providers.py::DomainDeployment.weights_for": (
        "a", "input"),
    "src/repro/cdn/providers.py::DomainDeployment.pool_for_ip": (
        "a", "missing"),
    "src/repro/cdn/router.py::TrafficRouter": (
        "b", _CDN + "C-DNS traffic router — coverage zones, SERVFAIL when "
        "no healthy cache covers the client, REFUSED outside its domain"),
    # -- cli -----------------------------------------------------------------
    "src/repro/cli.py::_cmd_dig": (
        "b", _RESOLVER + "stub resolver = the `dig` analog — `repro dig` is "
        "the dig the paper measured with"),
    "src/repro/cli.py::_run_dig": (
        "b", _RESOLVER + "stub resolver = the `dig` analog — `repro dig` is "
        "the dig the paper measured with"),
    "src/repro/cli.py::_run_experiment": ("a", "trial"),
    "src/repro/cli.py::_export_telemetry": ("a", "output"),
    # -- control / core ------------------------------------------------------
    "src/repro/control/monitor.py::StalenessMonitor.mean_staleness_ms": (
        "a", "degenerate"),
    "src/repro/control/registry.py::ZoneRegistry.update": ("a", "noop"),
    "src/repro/core/meccdn.py::MecCdnSite.publish_domain": (
        "b", _CORE + "End-to-end MEC-CDN assembly — another CDN customer's "
        "domain onboarded at the site (paper §5)"),
    # -- dnswire -------------------------------------------------------------
    "src/repro/dnswire/edns.py::ClientSubnet": (
        "b", _WIRE + "EDNS0 + ECS (RFC 7871) — IPv6 subnets and the client "
        "network a subnet names"),
    "src/repro/dnswire/edns.py::Edns.__eq__": ("a", "type"),
    "src/repro/dnswire/edns.py::Edns.options_from_wire": ("a", "wire"),
    "src/repro/dnswire/edns.py::OpaqueOption": ("a", "wire"),
    "src/repro/dnswire/edns.py::ExtendedDnsError.from_wire": (
        "b", _WIRE + "EDNS0 OPT — the RFC 8914 Stale Answer option a "
        "serve-stale reply carries"),
    "src/repro/dnswire/name.py::Name.__eq__": ("a", "type"),
    "src/repro/dnswire/name.py::Name.__reduce__": (
        "b", _WIRE + "domain names — a Name sent to a pool worker rebuilds "
        "its per-process hash"),
    "src/repro/dnswire/name.py::Name.is_root": ("a", "wire"),
    "src/repro/dnswire/name.py::Name.to_text": ("a", "wire"),
    "src/repro/dnswire/name.py::_text_to_labels": ("a", "input"),
    "src/repro/dnswire/rdata.py::Rdata.__eq__": ("a", "type"),
    "src/repro/dnswire/rdata.py::parse_rdata": ("a", "wire"),
    "src/repro/dnswire/rdata.py::GenericRdata": ("a", "wire"),
    "src/repro/dnswire/rdata.py::_SingleName": (
        "b", _WIRE + "typed rdata — NS, CNAME and PTR written to and read "
        "from bytes"),
    "src/repro/dnswire/rdata.py::_SingleName.to_text": (
        "b", _RESOLVER + "stub resolver = the `dig` analog — `repro dig "
        "--verbose` prints the response in presentation form"),
    "src/repro/dnswire/rdata.py::SOA.from_wire": (
        "b", _WIRE + "typed rdata — an SOA read from bytes"),
    "src/repro/dnswire/rdata.py::SOA.to_text": (
        "b", _RESOLVER + "stub resolver = the `dig` analog — `repro dig "
        "--verbose` prints the response in presentation form"),
    "src/repro/dnswire/wire.py::WireReader": ("a", "wire"),
    "src/repro/dnswire/wire.py::WireReader.read_name": (
        "c", "_NAME_MEMO_MAX, which a test drives past (the truncated "
        "spelling beside it follows rule wire)"),
    "src/repro/dnswire/zone.py::Zone.add": ("a", "input"),
    "src/repro/dnswire/zone.py::Zone.lookup": (
        "b", _ZONE + "exact-match answers and empty non-terminals — "
        "out-of-zone names"),
    "src/repro/dnswire/zone.py::Zone._answer_from_node": (
        "b", _ZONE + "exact-match answers — ANY, NODATA"),
    "src/repro/dnswire/zone.py::Zone._has_descendants": (
        "b", _ZONE + "exact-match answers and empty non-terminals"),
    "src/repro/dnswire/zone.py::Zone._soa_authority": (
        "b", _RESOLVER + "TTL-aware positive/negative cache — the SOA a "
        "negative answer carries"),
    # -- experiments ---------------------------------------------------------
    "src/repro/experiments/envelope_sweep.py::_crossover": ("a", "missing"),
    "src/repro/experiments/report.py::format_bar": ("a", "clamp"),
    # -- measure -------------------------------------------------------------
    "src/repro/measure/histogram.py::LatencyHistogram.add": ("a", "clamp"),
    "src/repro/measure/histogram.py::LatencyHistogram._bin_index": (
        "a", "clamp"),
    "src/repro/measure/histogram.py::LatencyHistogram.quantile": (
        "a", "input, clamp"),
    "src/repro/measure/histogram.py::LatencyHistogram.summary": (
        "a", "degenerate"),
    "src/repro/measure/loadgen.py::LoadGenerator.run": (
        "a", "input, degenerate"),
    "src/repro/measure/runner.py::measure_deployment_queries": (
        "a", "network"),
    "src/repro/measure/stats.py::trimmed": ("a", "degenerate"),
    # -- mec -----------------------------------------------------------------
    "src/repro/mec/cluster.py::Orchestrator.kill_pod": ("a", "noop"),
    "src/repro/mec/cluster.py::Orchestrator.resolve_service_name": (
        "b", _MEC + "CoreDNS analog with plugin chain incl. kubernetes — "
        "service names resolve to cluster IPs"),
    "src/repro/mec/coredns.py::KubernetesPlugin.handle": (
        "b", _MEC + "CoreDNS analog with plugin chain incl. kubernetes"),
    "src/repro/mec/coredns.py::StubDomainPlugin": (
        "b", _MEC + "stub-domain upstream (the paper's §4 configuration)"),
    "src/repro/mec/coredns.py::CoreDnsServer.__init__": (
        "b", _MEC + "stub-domain upstream (the paper's §4 configuration) — "
        "the default forward"),
    "src/repro/mec/coredns.py::CoreDnsServer.add_stub_domain": (
        "b", _MEC + "stub-domain upstream (the paper's §4 configuration)"),
    "src/repro/mec/ingress.py::DosMitigation.evaluate": (
        "b", _MEC + "ingress-load monitor with threshold fallback — the "
        "managed UEs switched back when the load falls"),
    "src/repro/mec/namespaces.py::SplitNamespacePlugin.handle": (
        "b", _MEC + "split public/internal DNS namespaces — internal "
        "clients see both; the IGNORE policy answers nothing"),
    # -- mobile --------------------------------------------------------------
    "src/repro/mobile/ran.py::BaseStation.attach": (
        "b", _MOBILE + "X2-style handoff that re-targets the UE's DNS — the "
        "MEC DNS a base station pushes to an attaching UE"),
    # -- netsim --------------------------------------------------------------
    "src/repro/netsim/engine.py::SimFuture.add_done_callback": (
        "b", _SIM + "process callbacks — a callback added to a resolved "
        "future runs on the next tick"),
    "src/repro/netsim/engine.py::Simulator._drain": (
        "c", "until, which tests set inside a run's event horizon"),
    "src/repro/netsim/engine.py::Simulator.run": (
        "c", "until, which tests set past a run's last event"),
    "src/repro/netsim/engine.py::_Process._step": ("a", "input"),
    "src/repro/netsim/latency.py::LatencyModel.__add__": (
        "b", _SIM + "latency distributions (constant/uniform/normal/"
        "lognormal/gamma/empirical/shifted)"),
    "src/repro/netsim/latency.py::Uniform": (
        "b", _SIM + "latency distributions (uniform)"),
    "src/repro/netsim/latency.py::Normal": (
        "b", _SIM + "latency distributions (normal)"),
    "src/repro/netsim/latency.py::Gamma": (
        "b", _SIM + "latency distributions (gamma)"),
    "src/repro/netsim/latency.py::Empirical": (
        "b", _SIM + "latency distributions (empirical)"),
    "src/repro/netsim/latency.py::Compound": (
        "b", _SIM + "latency distributions (shifted: a sum of models)"),
    "src/repro/netsim/network.py::Network": ("a", "input"),
    "src/repro/netsim/network.py::Network._walk": ("a", "network"),
    "src/repro/netsim/network.py::Network._routes_from": (
        "b", _SIM + "topology with shortest-path routing (a lazy "
        "per-source Dijkstra) — a settled host's stale heap entry"),
    # -- profile -------------------------------------------------------------
    "src/repro/profile/criticalpath.py::_stage_for": (
        "b", _RESOLVER + "plugin-style handler chain and the chain server "
        "behind every L-DNS — the stage of an L-DNS's upstream exchange, "
        "and a client span's"),
    "src/repro/profile/criticalpath.py::trace_segments": (
        "a", "degenerate"),
    "src/repro/profile/runner.py::run_profile_cli": ("a", "trial"),
    "src/repro/profile/runner.py::run_slo_cli": ("a", "usage, gate"),
    "src/repro/profile/runner.py::run_tail_cli": ("a", "usage"),
    "src/repro/profile/slo.py::_aggregate": ("a", "gate"),
    "src/repro/profile/slo.py::burn_rates": ("a", "gate"),
    "src/repro/profile/slo.py::burn_rates.burn": ("a", "degenerate"),
    # -- resolver ------------------------------------------------------------
    "src/repro/resolver/authoritative.py::AuthoritativeServer.handle_query": (
        "b", _RESOLVER + "authoritative server over zones (one "
        "authoritative answer per query) — NXDOMAIN, NODATA and REFUSED "
        "answers"),
    "src/repro/resolver/authoritative.py::AuthoritativeServer._handle_ixfr": (
        "b", _RESOLVER + "IXFR from the primary's journal with AXFR-style "
        "fallback — NOTAUTH for a zone it does not serve, a secondary "
        "already current, a server without a journal"),
    "src/repro/resolver/cache.py::DnsCache._evict_if_needed": (
        "c", "max_entries, which tests set to a few entries"),
    "src/repro/resolver/cache.py::DnsCache.get": (
        "b", _RESOLVER + "TTL-aware positive/negative cache"),
    "src/repro/resolver/cache.py::DnsCache.put_negative": (
        "b", _RESOLVER + "TTL-aware positive/negative cache"),
    "src/repro/resolver/cache.py::DnsCache.put_records": ("a", "wire"),
    "src/repro/resolver/cache.py::_NegativeEntry": (
        "b", _RESOLVER + "TTL-aware positive/negative cache"),
    "src/repro/resolver/cache.py::negative_ttl": (
        "b", _RESOLVER + "TTL-aware positive/negative cache (RFC 2308 §5)"),
    "src/repro/resolver/chain.py::CachePlugin._store": (
        "b", _RESOLVER + "TTL-aware positive/negative cache — the cache "
        "plugin's NXDOMAIN and NODATA entries"),
    "src/repro/resolver/chain.py::PluginChain.run": (
        "b", _RESOLVER + "plugin-style handler chain — a chain that runs "
        "out of plugins answers REFUSED"),
    "src/repro/resolver/exchange.py::exchange": ("a", "wire"),
    "src/repro/resolver/server.py::DnsServer._on_datagram": ("a", "wire"),
    "src/repro/resolver/server.py::DnsServer._send_error_for_garbage": (
        "a", "wire"),
    "src/repro/resolver/server.py::DnsServer._admit": (
        "b", _RESOLVER + "finite-capacity service model (workers + "
        "backlog) — a query shed at a full queue"),
    "src/repro/resolver/stub.py::StubResolver._query_impl": (
        "b", _RESOLVER + "stub resolver = the `dig` analog, the one owner "
        "of the retry schedule — malformed replies and SERVFAIL retried"),
    "src/repro/resolver/xfr.py::ZoneDelta.new_serial": (
        "b", _RESOLVER + "IXFR from the primary's journal with AXFR-style "
        "fallback"),
    "src/repro/resolver/xfr.py::apply_ixfr": ("a", "input"),
    "src/repro/resolver/xfr.py::SecondaryZone._transfer_ixfr": (
        "a", "network"),
    "src/repro/resolver/xfr.py::SecondaryZone": (
        "b", _RESOLVER + "secondary zones that poll serials and transfer "
        "incrementally — stopping the refresh loop"),
    # -- runtime -------------------------------------------------------------
    "src/repro/runtime/executor.py::ExperimentRun.failure_report": (
        "a", "trial"),
    "src/repro/runtime/executor.py::TrialFailure.describe": ("a", "trial"),
    "src/repro/runtime/executor.py::_run_chunk": ("a", "trial"),
    "src/repro/runtime/executor.py::_run_pool": ("a", "trial"),
    "src/repro/runtime/experiment.py::Experiment.run_serial": (
        "b", _EXPERIMENTS + "One module per artifact (14), each declaring "
        "one `EXPERIMENT` — its trial plan and merge run in-process, the "
        "programmatic entry point"),
    "src/repro/runtime/registry.py::ExperimentRegistry": (
        "a", "input, missing"),
    "src/repro/runtime/spec.py::TrialSpec.label": ("a", "trial"),
    # -- telemetry -----------------------------------------------------------
    "src/repro/telemetry/metrics.py::BucketCell.quantile": ("a", "clamp"),
    "src/repro/telemetry/sampling.py::HeadSampler.keep_id": (
        "a", "degenerate"),
    "src/repro/telemetry/sampling.py::TailReservoir.offer": (
        "c", "capacity, which tests set to 0"),
    "src/repro/telemetry/timeseries.py::TimeSeries._prune": (
        "c", "max_windows, which tests set below the run's windows"),
    "src/repro/telemetry/trace.py::Tracer.end": ("a", "noop"),
    "src/repro/telemetry/trace.py::Tracer._store": (
        "c", "max_spans, which tests set to a few spans"),
    # -- workload ------------------------------------------------------------
    "src/repro/workload/engine.py::DistrictStats.load_imbalance": (
        "a", "degenerate"),
    "src/repro/workload/engine.py::merge_stats": ("a", "degenerate"),
    # -- parameters only tests set -------------------------------------------
    # Tests are not callers (tests/test_surface_census.py): a defaulted
    # parameter no code outside tests/ sets is a constant, unless it is one
    # of these.
    "src/repro/cdn/allocation.py::HashRing.__init__(vnodes)": (
        "b", _CDN + "consistent hashing — virtual nodes per member (Huang "
        "et al., PAPERS.md)"),
    "src/repro/cdn/allocation.py::ConsistentAllocator.__init__(epsilon)": (
        "b", _CDN + "consistent hashing — the bounded-load allocator's load "
        "bound, (1 + epsilon) x the mean (Huang et al., PAPERS.md)"),
    "src/repro/cli.py::main(argv)": (
        "c", "argv, which tests feed in place of sys.argv"),
    "src/repro/core/deployments.py::build_testbed(profile)": (
        "b", _MOBILE + "Access-technology latency profiles — the 5G NR "
        "testbed of X-5G"),
    "src/repro/core/meccdn.py::MecCdnSite.__init__(service_cidr)": (
        "b", _CORE + "End-to-end MEC-CDN assembly — a second site's own "
        "service range (X-MOBILITY's two sites)"),
    "src/repro/core/meccdn.py::MecCdnSite.__init__(pod_cidr)": (
        "b", _CORE + "End-to-end MEC-CDN assembly — a second site's own "
        "pod range (X-MOBILITY's two sites)"),
    "src/repro/core/meccdn.py::MecCdnSite.__init__(upstream_ldns)": (
        "b", _MEC + "stub-domain upstream (the paper's §4 configuration) — "
        "the default forward to the provider L-DNS"),
    "src/repro/dnswire/message.py::Flags.__init__(tc)": (
        "b", _WIRE + "full message codec — a header flag bit"),
    "src/repro/dnswire/message.py::Flags.__init__(ad)": (
        "b", _WIRE + "full message codec — a header flag bit"),
    "src/repro/dnswire/message.py::Flags.__init__(cd)": (
        "b", _WIRE + "full message codec — a header flag bit"),
    "src/repro/dnswire/message.py::Message.__init__(opcode)": (
        "b", _WIRE + "full message codec — the header opcode"),
    "src/repro/dnswire/rdata.py::GenericRdata.__init__(generic_rtype)": (
        "b", _WIRE + "typed rdata — any other type as opaque rdata (RFC "
        "3597)"),
    "src/repro/mec/cluster.py::Orchestrator.register_node(capacity)": (
        "c", "a node's pod capacity, which tests lower to fill a cluster"),
    "src/repro/mec/namespaces.py::SplitNamespacePlugin.__init__(policy)": (
        "b", _MEC + "split public/internal DNS namespaces — the IGNORE "
        "policy, the §3 ignore-then-fall-back workaround"),
    "src/repro/mobile/core.py::EvolvedPacketCore.add_base_station"
    "(mec_dns)": (
        "b", _MOBILE + "X2-style handoff that re-targets the UE's DNS — the "
        "MEC DNS a base station hands its UEs"),
    "src/repro/resolver/cache.py::DnsCache.__init__(max_entries)": (
        "c", "max_entries, which tests set to a few entries"),
    "src/repro/telemetry/timeseries.py::TimeSeries.__init__(max_windows)": (
        "c", "max_windows, which tests set below the run's windows"),
    "src/repro/telemetry/timeseries.py::TimeSeries.__init__"
    "(max_annotations)": (
        "c", "max_annotations, which tests set below the run's "
        "annotations"),
    # -- static-analysis findings the design needs ---------------------------
    # The clean-tree test (tests/check/test_runner.py) holds the findings
    # on src/repro, by def and rule, to exactly these counts.
    "src/repro/dnswire/message.py::cached_wire[RACE001]": (
        2, "a pure content-keyed memo: a key fully determines its bytes, so "
        "a hit, a miss or an eviction never changes an output, and each "
        "worker forks its own copy"),
    "src/repro/dnswire/wire.py::WireReader.read_name[RACE001]": (
        2, "a pure content-keyed memo like cached_wire's: a spelling fully "
        "determines its Name"),
    "src/repro/runtime/executor.py::_run_chunk[DET001]": (
        2, "the perf_counter pair that times a chunk: its wall time is "
        "operator diagnostics under the artifact's meta, never result "
        "material"),
    "src/repro/runtime/executor.py::get_worker_pool[RACE001]": (
        2, "parent-process-only pool bookkeeping: workers never dispatch "
        "trials, and the call graph reaches it only through its "
        "any-same-named-method `.run` edge"),
    "src/repro/runtime/executor.py::shutdown_worker_pool[RACE001]": (
        2, "parent-process-only pool teardown, as get_worker_pool"),
    "src/repro/telemetry/__init__.py::set_default[RACE001]": (
        1, "a deliberate per-trial facade swap; capture restores it before "
        "results merge"),
}

#: Each CI ``repro`` command (.github/workflows/ci.yml), as arguments to
#: ``python -m repro.cli``; run in a scratch directory.
SURFACES: List[List[str]] = [
    ["experiment", "all", "--jobs", "2", "--trials", "6", "--queries", "8",
     "--rounds", "4"],
    ["experiment", "all"],
    ["dig", "--count", "5"],
    ["dig", "--verbose", "--ecs"],
    ["deployments"],
    ["experiment", "churn", "--jobs", "2",
     "--metrics-out", "churn-metrics.json"],
    ["experiment", "churn", "--jobs", "1"],
    ["experiment", "population", "--jobs", "2", "--target-queries", "6000",
     "--catalog", "20000", "--cache-capacity", "500"],
    *[["experiment", "population", "--allocation", policy,
       "--target-queries", "6000", "--catalog", "20000",
       "--cache-capacity", "500", "--jobs", jobs]
      for policy in ("content", "client", "client-bounded")
      for jobs in ("1", "2")],
    *[["experiment", "population", "--sites", sites,
       "--target-queries", "6000", "--catalog", "20000",
       "--cache-capacity", "500", "--jobs", jobs]
      for sites in ("1", "2") for jobs in ("1", "2")],
    *[["experiment", "population", "--districts", "2", "--target-queries",
       "6000", "--metrics-out", f"population-telemetry-jobs{jobs}.json",
       "--trace-sample", "0.05", "--window-ms", "300000", "--jobs", jobs]
      for jobs in ("1", "2")],
    ["slo", "population-telemetry-jobs2.json"],
    ["tail", "population-telemetry-jobs2.json", "--top", "5"],
    ["profile", "figure5", "--out-dir", "profile-out"],
    ["slo", "profile-out/figure5-budget.json"],
    ["experiment", "figure5", "--queries", "12",
     "--metrics-out", "figure5-metrics.json",
     "--trace-out", "figure5-trace.json"],
]

#: The surfaces that print the paper's artifacts and export nothing else;
#: a line only the other surfaces run is tooling-only.  Each is in
#: ``SURFACES``, and runs once, into its own directory.
ARTIFACT_SURFACES: List[List[str]] = [
    ["experiment", "all", "--jobs", "2", "--trials", "6", "--queries", "8",
     "--rounds", "4"],
    ["experiment", "all"],
    ["experiment", "churn", "--jobs", "1"],
    ["experiment", "population", "--jobs", "2", "--target-queries", "6000",
     "--catalog", "20000", "--cache-capacity", "500"],
    *[["experiment", "population", "--allocation", policy,
       "--target-queries", "6000", "--catalog", "20000",
       "--cache-capacity", "500", "--jobs", jobs]
      for policy in ("content", "client", "client-bounded")
      for jobs in ("1", "2")],
    *[["experiment", "population", "--sites", sites,
       "--target-queries", "6000", "--catalog", "20000",
       "--cache-capacity", "500", "--jobs", jobs]
      for sites in ("1", "2") for jobs in ("1", "2")],
]

#: ``bench/run.py`` replaces ``PYTHONPATH`` for its children, which would
#: drop the hook, so its children run directly: each workload measured
#: and traced once, then the layer drivers — all with a zero time budget,
#: so the work they do, and the lines it runs, does not depend on speed.
BENCH_WORKLOADS = ("figure5_scaled", "capacity_openloop", "churn_seeds",
                   "population_serial", "population_sampled",
                   "population_grid")

#: The ``sitecustomize`` the census writes; ``{out}`` is where each process
#: appends its lines, ``{src}`` which files it keeps lines of.
HOOK = '''\
import atexit, os, sys

def _census(out, src):
    monitoring = sys.monitoring
    sink = [None, None]  # (pid, line-buffered file): a fork gets its own

    def line(code, lineno):
        if code.co_filename.startswith(src):
            if sink[0] != os.getpid():
                sink[0] = os.getpid()
                sink[1] = open(os.path.join(out, f"{{sink[0]}}.lines"), "a",
                               buffering=1)
            # Written at once: a pool worker that is terminated runs no
            # exit hook, and its lines must still count.
            sink[1].write(f"{{code.co_filename}}\\t{{lineno}}\\n")
        return monitoring.DISABLE

    monitoring.use_tool_id(monitoring.COVERAGE_ID, "line-census")
    monitoring.register_callback(monitoring.COVERAGE_ID,
                                 monitoring.events.LINE, line)
    monitoring.set_events(monitoring.COVERAGE_ID, monitoring.events.LINE)
    # Stop before teardown: which suspended generators the collector
    # closes at exit (and which ``except`` lines that runs) varies by run.
    atexit.register(monitoring.set_events, monitoring.COVERAGE_ID, 0)

_census({out!r}, {src!r})
del _census
'''

Lines = Set[Tuple[str, int]]


def code_objects(code: CodeType) -> Iterator[CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from code_objects(const)


def executable(path: Path) -> Set[int]:
    code = compile(path.read_text("utf-8"), str(path), "exec")
    return {line for each in code_objects(code)
            for _, _, line in each.co_lines() if line}  # 0: module RESUME


def mechanism(reason: str) -> str:
    """The mechanism a (b) reason quotes: the text after its row name's
    ``: `` and before the first `` — `` or `` (``."""
    quoted = reason.partition(": ")[2]
    for end in (" — ", " ("):
        quoted = quoted.partition(end)[0]
    return quoted


def table_errors() -> List[str]:
    """Every ``CLASSES`` entry that names no def / class (or, keyed
    ``qualname(param)``, no parameter of one), or whose reason does not
    fit its class or count; tier-1 checks this without a census run."""
    errors: List[str] = []
    defined: Dict[str, Dict[str, Set[str]]] = {}
    design = " ".join((ROOT / "DESIGN.md").read_text("utf-8").split())
    for key, (kind, reason) in sorted(CLASSES.items()):
        file, _, qualname = key.partition("::")
        qualname, _, rule = qualname.rstrip("]").partition("[")
        qualname, _, param = qualname.rstrip(")").partition("(")
        if file not in defined:
            path = ROOT / file
            defined[file] = ({found.qualname: found.parameters
                              for found in index.load(path).defs}
                             if path.is_file() else {})
        if qualname not in defined[file]:
            errors.append(f"{key}: no such def / class")
        elif param and param not in defined[file][qualname]:
            errors.append(f"{key}: no such parameter")
        if rule:
            if not (isinstance(kind, int) and kind > 0 and reason):
                errors.append(f"{key}: a finding row gives its count and "
                              f"a reason")
        elif kind == "a":
            unknown = [name for name in reason.split(", ")
                       if name not in DEGRADE_RULES]
            if unknown:
                errors.append(f"{key}: unknown degrade rule "
                              f"{', '.join(unknown)}")
        elif kind == "b" and "DESIGN.md" not in reason:
            errors.append(f"{key}: a (b) reason cites its DESIGN.md row")
        elif kind == "b" and (not mechanism(reason)
                              or mechanism(reason) not in design):
            errors.append(f"{key}: a (b) reason quotes its mechanism from "
                          f"DESIGN.md, not {mechanism(reason)!r}")
        elif kind not in ("a", "b", "c"):
            errors.append(f"{key}: class {kind!r} is not a, b or c")
    return errors


def raise_lines(tree: ast.Module) -> Set[int]:
    """Lines inside a ``raise`` statement: class (a) without an entry."""
    return {line for node in ast.walk(tree) if isinstance(node, ast.Raise)
            for line in range(node.lineno,
                              (node.end_lineno or node.lineno) + 1)}


def classify(file: str, qualname: str) -> Optional[str]:
    """The class of the nearest classified scope around a line, or None."""
    parts = qualname.split(".") if qualname else []
    while parts:
        entry = CLASSES.get(f"{file}::{'.'.join(parts)}")
        if entry is not None:
            return entry[0]
        parts.pop()
    return None


def run(argv: List[str], out: Path, cwd: Path, pythonpath: str) -> None:
    """Run ``argv`` under the hook writing to ``out``; fail loudly."""
    out.mkdir(parents=True, exist_ok=True)
    hook_dir = out / "hook"
    hook_dir.mkdir(exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(
        HOOK.format(out=str(out), src=str(SRC) + os.sep), "utf-8")
    # A pinned hash seed makes the counts repeatable: a few tests take a
    # different path with a different set order.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        filter(None, [str(hook_dir), str(ROOT / "src"), pythonpath])))
    print("  $", " ".join(argv[1:]), flush=True)
    done = subprocess.run(argv, cwd=str(cwd), env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        sys.stdout.write(done.stdout[-4000:])
        raise SystemExit(f"line census: {argv[1:]} exited "
                         f"{done.returncode}")


def collect(out: Path) -> Lines:
    lines: Lines = set()
    for dump in out.glob("*.lines"):
        for row in dump.read_text("utf-8").splitlines():
            name, lineno = row.split("\t")
            lines.add((os.path.realpath(name), int(lineno)))
    return lines


def run_surfaces(out: Path, artifacts: Path, work: Path,
                 pythonpath: str) -> None:
    """Run every surface: ``ARTIFACT_SURFACES`` writing to ``artifacts``,
    the rest to ``out``."""
    python = sys.executable
    for args in SURFACES:
        run([python, "-m", "repro.cli", *args],
            artifacts if args in ARTIFACT_SURFACES else out, work, pythonpath)
    child = str(ROOT / "bench" / "child.py")
    for workload in BENCH_WORKLOADS:
        common = [python, child, "--workload", workload, "--seed", "42",
                  "--scale", "0.1", "--budget", "0"]
        run(common, out, ROOT, pythonpath)
        run(common + ["--spans-out", str(work / f"spans-{workload}.json")],
            out, ROOT, pythonpath)
    run([python, str(ROOT / "bench" / "drivers.py"), "--budget", "0"],
        out, ROOT, pythonpath)


def census(artifact: Lines, surface: Lines, tested: Lines) -> Dict:
    """Count every executable line; ``surface`` includes ``artifact``."""
    report: Dict = {"python": sys.version.split()[0], "executable": 0,
                    "not_on_surfaces": 0, "nowhere": 0, "test_only": 0,
                    "by_class": {}, "unclassified": 0, "defs": {},
                    "tooling_only": 0, "tooling_only_defs": {}}
    for path in sorted(SRC.rglob("*.py")):
        module = index.load(path)
        file = module.file
        real = os.path.realpath(path)
        raising = raise_lines(module.tree)
        for line in sorted(executable(path)):
            report["executable"] += 1
            if (real, line) in artifact:
                continue
            qualname = module.enclosing(line)
            if (real, line) in surface:
                report["tooling_only"] += 1
                report["tooling_only_defs"].setdefault(
                    f"{file}::{qualname}", []).append(line)
                continue
            report["not_on_surfaces"] += 1
            if (real, line) not in tested:
                report["nowhere"] += 1
                kind = "nowhere"
            else:
                report["test_only"] += 1
                if (file in OUT_OF_SCOPE_FILES
                        or qualname.rpartition(".")[2] in OUT_OF_SCOPE_NAMES):
                    kind = "out of scope"
                elif line in raising:
                    kind = "a"
                else:
                    kind = classify(file, qualname) or "unclassified"
                report["by_class"][kind] = report["by_class"].get(kind, 0) + 1
                if kind == "unclassified":
                    report["unclassified"] += 1
            row = report["defs"].setdefault(f"{file}::{qualname}", {})
            row.setdefault(kind, []).append(line)
    return report


def ranges(lines: List[int]) -> str:
    spans: List[List[int]] = []
    for line in lines:
        if spans and line - spans[-1][1] <= 2:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--report", type=Path,
                        help="write every counted line, by def, as JSON")
    args = parser.parse_args()
    if sys.version_info < (3, 12):
        raise SystemExit("line census: needs sys.monitoring (Python 3.12+)")
    errors = table_errors()
    if errors:
        raise SystemExit("line census: stale CLASSES entries:\n"
                         + "\n".join(errors))
    pythonpath = os.environ.get("PYTHONPATH", "")
    with tempfile.TemporaryDirectory(prefix="line-census-") as tmp:
        work = Path(tmp)
        (work / "run").mkdir()
        print("surfaces:", flush=True)
        run_surfaces(work / "surfaces", work / "artifacts", work / "run",
                     pythonpath)
        print("tier-1:", flush=True)
        run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "--hypothesis-profile=ci"],
            work / "tests", ROOT, pythonpath)
        artifact = collect(work / "artifacts")
        report = census(artifact, artifact | collect(work / "surfaces"),
                        collect(work / "tests"))

    if args.report:
        args.report.write_text(json.dumps(report, indent=1), "utf-8")
    print(f"\nline census on Python {report['python']}: "
          f"{report['executable']:,} executable lines in src/repro; "
          f"{report['not_on_surfaces']:,} run on no surface: "
          f"{report['test_only']:,} only under tier-1, "
          f"{report['nowhere']:,} nowhere")
    for kind, count in sorted(report["by_class"].items()):
        print(f"  {kind:>14}: {count:,}")
    print(f"{report['tooling_only']:,} run on a surface but on no artifact "
          f"surface (tooling only, not gated)")
    for key, kinds in sorted(report["defs"].items()):
        if "unclassified" in kinds:
            print(f"unclassified: {key}: lines "
                  f"{ranges(kinds['unclassified'])}")
    failed = report["unclassified"] > 0
    if report["not_on_surfaces"] > CEILING:
        print(f"lines not on surfaces {report['not_on_surfaces']:,} are "
              f"above the ceiling {CEILING:,}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
