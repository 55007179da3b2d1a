#!/usr/bin/env python3
"""Which lines of ``src/repro`` only the tests run: the line census.

    python3.12 scripts/line_census.py                    # run and gate
    python3.12 scripts/line_census.py --report out.json  # and keep the lines

Runs every product surface (``SURFACES``: each ``repro`` command CI runs,
the examples and the bench children), then tier-1, each process under a
hook that ``sitecustomize`` loads: a ``sys.monitoring`` LINE callback that
records the location and returns ``DISABLE``, so each location costs one
call per process.  Executable lines are what ``co_lines()`` lists for the
code objects of every ``src/repro`` file.  A line no surface runs is
*test-only* if tier-1 runs it and *nowhere* if nothing does.

Every test-only line must sit in a ``def`` / ``class`` that ``CLASSES``
names (the innermost enclosing one, or any around it), or be out of scope:
``dnswire/message.py`` (ROADMAP item 2) and ``__repr__`` / ``__str__``.
A class says why the lines stay: (a) an error path under one of the
``DEGRADE_RULES``, (b) a mechanism its DESIGN.md row lists, (c) a bound a
test lowers or drives past.  The exit status is 1 if the table names a
def that is gone, a test-only line is unclassified, or the test-only total
is above ``CEILING``.  Needs 3.12 or later, and pytest for tier-1;
``docs/TESTING.md`` says how to read the report and lower the ceiling.
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
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Test-only lines, classified and out of scope included, may not exceed
#: this.  Runs read 1,167-1,168: which pool worker closes a suspended
#: generator (running its ``except`` lines) depends on scheduling, so the
#: ceiling sits two above the largest reading.  Lower it when a change
#: deletes lines; never raise it to fit one.
CEILING = 1170

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
    "gate": "a gate reports what fails it: a static-analysis finding, an "
            "SLO rule breached or without data, a failed shape claim; a "
            "clean run never takes these paths",
    "usage": "a CLI usage error or unreadable input prints to stderr and "
             "exits 2",
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

#: Why a test-only def stays: ``file::qualname`` -> (class, reason).  An
#: (a) reason is a key of DEGRADE_RULES; a (b) reason cites its DESIGN.md
#: row; a (c) reason names the bound a test lowers.  An entry covers the
#: defs nested in it.
CLASSES: Dict[str, Tuple[str, str]] = {
    # -- cdn ---------------------------------------------------------------
    "src/repro/cdn/allocation.py::ConsistentAllocator": (
        "b", _CDN + "consistent hashing — the bounded-load allocator's "
        "eligibility walk and membership change (Huang et al., PAPERS.md)"),
    "src/repro/cdn/allocation.py::HashRing": (
        "b", _CDN + "consistent hashing — the ring's members; an empty "
        "ring picks nothing"),
    "src/repro/cdn/allocation.py::check_allocation": ("a", "input"),
    "src/repro/cdn/cache_server.py::CacheServer.__init__": ("a", "input"),
    "src/repro/cdn/cache_server.py::CacheServer._serve": ("a", "network"),
    "src/repro/cdn/cache_server.py::CacheServer._fill_from_parent": (
        "a", "network"),
    "src/repro/cdn/cache_server.py::CacheServer.admit": ("a", "clamp"),
    "src/repro/cdn/content.py::ContentItem.__init__": ("a", "input"),
    "src/repro/cdn/content.py::ZipfRankStream.__init__": ("a", "input"),
    "src/repro/cdn/content.py::ZipfRankStream._integral": (
        "a", "degenerate"),
    "src/repro/cdn/content.py::ZipfRankStream.next_rank": (
        "a", "degenerate"),
    "src/repro/cdn/content.py::ZipfRankStream._next_rank_logarithmic": (
        "a", "degenerate"),
    "src/repro/cdn/geo.py::GeoIpDatabase.register": ("a", "input"),
    "src/repro/cdn/geo.py::GeoIpDatabase.lookup": ("a", "missing"),
    "src/repro/cdn/health.py::HealthMonitor.__init__": ("a", "input"),
    "src/repro/cdn/health.py::HealthMonitor._account": (
        "b", _CDN + "active health monitor with failure hysteresis — a "
        "cache that answers again is healthy again"),
    "src/repro/cdn/hierarchy.py::CdnTier": (
        "b", _CDN + "edge/mid/far tier hierarchy with miss referral"),
    "src/repro/cdn/hierarchy.py::TieredCdn": (
        "b", _CDN + "edge/mid/far tier hierarchy with miss referral"),
    "src/repro/cdn/httpsim.py::_parse_response": ("a", "network"),
    "src/repro/cdn/policy.py::LfuPolicy.choose_victim": ("a", "degenerate"),
    "src/repro/cdn/providers.py::DomainDeployment.weights_for": (
        "a", "input"),
    "src/repro/cdn/providers.py::DomainDeployment.pool_for_ip": (
        "a", "missing"),
    "src/repro/cdn/router.py::TrafficRouter": (
        "b", _CDN + "C-DNS traffic router — coverage zones with a default "
        "zone, next-tier referral when no cache covers the client, REFUSED "
        "outside its domain"),
    "src/repro/cdn/router.py::referral_marker": (
        "b", _CDN + "next-tier referral markers"),
    "src/repro/cdn/router.py::is_referral": (
        "b", _CDN + "next-tier referral markers"),
    # -- check (the static gate is clean on src/repro) ---------------------
    "src/repro/check/determinism.py::_DeterminismVisitor": ("a", "gate"),
    "src/repro/check/determinism.py::_is_setish": ("a", "gate"),
    "src/repro/check/findings.py::Finding": ("a", "gate"),
    "src/repro/check/hotpath.py::_ModuleHot": ("a", "gate"),
    "src/repro/check/layering.py::analyze": ("a", "gate"),
    "src/repro/check/layering.py::_find_cycles": ("a", "gate"),
    "src/repro/check/races.py::_FunctionRace": ("a", "gate"),
    "src/repro/check/runner.py::Report": ("a", "gate"),
    "src/repro/check/runner.py::run_check": ("a", "usage, gate"),
    "src/repro/check/runner.py::run_cli": ("a", "usage, gate"),
    "src/repro/check/sources.py::SourceTree.finding": ("a", "gate"),
    "src/repro/check/sources.py::load_tree": ("a", "gate"),
    # -- cli -----------------------------------------------------------------
    "src/repro/cli.py::_cmd_dig": (
        "b", "DESIGN.md §2 Real DNS wire traffic (dig, tcpdump): `repro "
        "dig` is the dig the paper measured with"),
    "src/repro/cli.py::_run_dig": (
        "b", "DESIGN.md §2 Real DNS wire traffic (dig, tcpdump): `repro "
        "dig` is the dig the paper measured with"),
    "src/repro/cli.py::_cmd_deployments": (
        "b", "DESIGN.md §3 Core contribution: the six Figure-5 deployment "
        "scenarios, listed for `repro dig --deployment`"),
    # -- control / core ------------------------------------------------------
    "src/repro/control/monitor.py::StalenessMonitor.mean_staleness_ms": (
        "a", "degenerate"),
    "src/repro/control/plane.py::ControlPlane.__init__": ("a", "input"),
    "src/repro/control/plane.py::ControlPlane.add_churn": ("a", "input"),
    "src/repro/control/registry.py::ZoneRegistry.update": ("a", "noop"),
    "src/repro/core/deployments.py::build_testbed": ("a", "input"),
    "src/repro/core/deployments.py::build_custom_cdns_testbed": (
        "a", "input"),
    "src/repro/core/fallback.py::FallbackClient._one_query": (
        "a", "network"),
    "src/repro/core/fallback.py::FallbackClient.race": (
        "b", "DESIGN.md §5 Fallback strategy: multicast to MEC-DNS and the "
        "provider L-DNS"),
    "src/repro/core/meccdn.py::MecCdnSite.__init__": ("a", "input"),
    "src/repro/core/meccdn.py::MecCdnSite.publish_domain": (
        "b", _CORE + "end-to-end MEC-CDN assembly — another CDN customer's "
        "domain onboarded at the site (paper §5)"),
    "src/repro/core/resolution.py::EdgeAwareClient": (
        "b", _CORE + "tier-aware client following C-DNS next-tier "
        "referrals"),
    # -- dnswire -------------------------------------------------------------
    "src/repro/dnswire/edns.py::ClientSubnet": (
        "b", _WIRE + "EDNS0 + ECS (RFC 7871) — IPv6 subnets and the client "
        "network ECS-scoped caching keys on"),
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
    "src/repro/dnswire/name.py::Name._init_from": ("a", "input"),
    "src/repro/dnswire/name.py::Name.parent": ("a", "input"),
    "src/repro/dnswire/name.py::Name.relativize": ("a", "input"),
    "src/repro/dnswire/name.py::Name.to_text": ("a", "wire"),
    "src/repro/dnswire/name.py::_text_to_labels": ("a", "input"),
    "src/repro/dnswire/name.py::_validate_label": ("a", "input"),
    "src/repro/dnswire/rdata.py::Rdata.__eq__": ("a", "type"),
    "src/repro/dnswire/rdata.py::parse_rdata": ("a", "wire"),
    "src/repro/dnswire/rdata.py::A.from_wire": ("a", "wire"),
    "src/repro/dnswire/rdata.py::GenericRdata": ("a", "wire"),
    "src/repro/dnswire/rdata.py::TXT": (
        "b", _WIRE + "typed rdata (TXT), the record the C-DNS next-tier "
        "referral marker travels in"),
    "src/repro/dnswire/rdata.py::A.to_text": (
        "b", "DESIGN.md §2 Real DNS wire traffic (dig, tcpdump): "
        "`repro dig --verbose` prints the response in presentation form"),
    "src/repro/dnswire/rdata.py::_SingleName.to_text": (
        "b", "DESIGN.md §2 Real DNS wire traffic (dig, tcpdump): "
        "`repro dig --verbose` prints the response in presentation form"),
    "src/repro/dnswire/rdata.py::SOA.to_text": (
        "b", "DESIGN.md §2 Real DNS wire traffic (dig, tcpdump): "
        "`repro dig --verbose` prints the response in presentation form"),
    "src/repro/dnswire/wire.py::WireReader": ("a", "wire"),
    "src/repro/dnswire/wire.py::WireReader.read_name": (
        "c", "_NAME_MEMO_MAX, which a test drives past (the truncated "
        "spelling beside it follows rule wire)"),
    "src/repro/dnswire/zone.py::Zone.add": ("a", "input"),
    "src/repro/dnswire/zone.py::Zone.lookup": (
        "b", _ZONE + "wildcard + CNAME semantics — wildcard synthesis, "
        "empty non-terminals, out-of-zone names"),
    "src/repro/dnswire/zone.py::Zone._answer_from_node": (
        "b", _ZONE + "wildcard + CNAME semantics — synthesized owners, ANY, "
        "NODATA"),
    "src/repro/dnswire/zone.py::Zone._find_wildcard": (
        "b", _ZONE + "wildcard + CNAME semantics"),
    "src/repro/dnswire/zone.py::Zone._has_descendants": (
        "b", _ZONE + "wildcard + CNAME semantics — empty non-terminals"),
    "src/repro/dnswire/zone.py::Zone._find_delegation": (
        "b", _RESOLVER + "authoritative server over zones (referrals) — a "
        "query at the zone cut"),
    "src/repro/dnswire/zone.py::Zone._glue_for": (
        "b", _RESOLVER + "authoritative server over zones (referrals) — a "
        "delegation without glue"),
    "src/repro/dnswire/zone.py::Zone._soa_authority": (
        "b", _RESOLVER + "TTL-aware positive/negative cache — the SOA a "
        "negative answer carries"),
    # -- experiments ---------------------------------------------------------
    "src/repro/experiments/access_latency.py::AccessLatencyResult.row": (
        "a", "missing"),
    "src/repro/experiments/churn.py::ChurnResult.row": ("a", "missing"),
    "src/repro/experiments/disaggregation.py::DisaggregationResult.row": (
        "a", "missing"),
    "src/repro/experiments/envelope_sweep.py::_crossover": ("a", "missing"),
    "src/repro/experiments/figure5.py::Figure5Result.row": ("a", "missing"),
    "src/repro/experiments/mislocalization.py::MislocalizationResult.row": (
        "a", "missing"),
    "src/repro/experiments/overload.py::OverloadResult.row": (
        "a", "missing"),
    "src/repro/experiments/population.py::PopulationResult.row": (
        "a", "missing"),
    "src/repro/experiments/population.py::PopulationExperiment._keys": (
        "a", "input"),
    "src/repro/experiments/report.py::format_table": ("a", "input"),
    "src/repro/experiments/report.py::format_bar": ("a", "clamp"),
    "src/repro/experiments/resilience.py::ResilienceResult.row": (
        "a", "missing"),
    # -- faults --------------------------------------------------------------
    "src/repro/faults/burstloss.py::GilbertElliott.__init__": ("a", "input"),
    "src/repro/faults/plan.py::FaultPlan._add": ("a", "input"),
    "src/repro/faults/plan.py::FaultPlan.brownout_host": ("a", "input"),
    "src/repro/faults/plan.py::FaultPlan.burst_loss": (
        "b", "DESIGN.md §3 Measurement: retry behaviour under faults — a "
        "burst-loss fault that ends"),
    "src/repro/faults/plan.py::FaultInjector.install": ("a", "input"),
    "src/repro/faults/plan.py::FaultInjector._apply_burst_off": (
        "b", "DESIGN.md §3 Measurement: retry behaviour under faults — a "
        "burst-loss fault that ends"),
    "src/repro/faults/plan.py::FaultInjector._apply_partition_off": (
        "a", "input"),
    # -- measure -------------------------------------------------------------
    "src/repro/measure/histogram.py::LatencyHistogram.add": ("a", "clamp"),
    "src/repro/measure/histogram.py::LatencyHistogram._bin_index": (
        "a", "clamp"),
    "src/repro/measure/histogram.py::LatencyHistogram.merge": (
        "a", "input"),
    "src/repro/measure/histogram.py::LatencyHistogram.quantile": (
        "a", "input, clamp"),
    "src/repro/measure/histogram.py::LatencyHistogram.summary": (
        "a", "degenerate"),
    "src/repro/measure/loadgen.py::LoadGenerator.run": (
        "a", "input, degenerate"),
    "src/repro/measure/runner.py::measure_deployment_run": ("a", "input"),
    "src/repro/measure/stats.py::summarize": ("a", "degenerate"),
    "src/repro/measure/stats.py::trimmed": ("a", "degenerate"),
    # -- mec -----------------------------------------------------------------
    "src/repro/mec/cluster.py::Node.__init__": ("a", "input"),
    "src/repro/mec/cluster.py::Orchestrator._place": ("a", "input"),
    "src/repro/mec/cluster.py::Orchestrator.create_service": ("a", "input"),
    "src/repro/mec/cluster.py::Orchestrator.scale": ("a", "input"),
    "src/repro/mec/cluster.py::Orchestrator.kill_pod": ("a", "noop"),
    "src/repro/mec/cluster.py::Orchestrator.service": ("a", "missing"),
    "src/repro/mec/cluster.py::Orchestrator.resolve_service_name": (
        "b", _MEC + "CoreDNS analog with plugin chain incl. kubernetes — "
        "service names resolve to cluster IPs"),
    "src/repro/mec/controller.py::ReplicaController.__init__": (
        "a", "input"),
    "src/repro/mec/controller.py::ReplicaController.reconcile_once": (
        "a", "network"),
    "src/repro/mec/coredns.py::KubernetesPlugin.handle": (
        "b", _MEC + "CoreDNS analog with plugin chain incl. kubernetes"),
    "src/repro/mec/coredns.py::CachePlugin.handle": (
        "b", _RESOLVER + "TTL-aware positive/negative cache — the CoreDNS "
        "cache plugin's NXDOMAIN entries"),
    "src/repro/mec/coredns.py::StubDomainPlugin": (
        "b", _MEC + "stub-domain upstream (the paper's §4 configuration)"),
    "src/repro/mec/coredns.py::ForwardPlugin": (
        "b", _MEC + "stub-domain upstream (the paper's §4 configuration) — "
        "the default forward"),
    "src/repro/mec/coredns.py::CoreDnsServer.__init__": (
        "b", _MEC + "stub-domain upstream (the paper's §4 configuration) — "
        "the default forward"),
    "src/repro/mec/coredns.py::CoreDnsServer.add_stub_domain": (
        "b", _MEC + "stub-domain upstream (the paper's §4 configuration)"),
    "src/repro/mec/ingress.py::IngressMonitor.__init__": ("a", "input"),
    "src/repro/mec/ipreuse.py::PublicIpPlan": (
        "b", "DESIGN.md §5 Public IP reuse: public IPs needed with and "
        "without the shared-cluster-IP design"),
    "src/repro/mec/plugins_extra.py::RewritePlugin": (
        "b", "DESIGN.md §2 Kubernetes + CoreDNS: the CoreDNS-analog plugin "
        "chain (rewrite)"),
    "src/repro/mec/plugins_extra.py::LoadBalancePlugin": (
        "b", "DESIGN.md §2 Kubernetes + CoreDNS: the CoreDNS-analog plugin "
        "chain (loadbalance)"),
    "src/repro/mec/namespaces.py::SplitNamespacePlugin.handle": (
        "b", _MEC + "split public/internal DNS namespaces — internal "
        "clients see both; the IGNORE policy answers nothing"),
    # -- mobile --------------------------------------------------------------
    "src/repro/mobile/handoff.py::HandoffController.handoff": (
        "a", "input"),
    "src/repro/mobile/nat.py::NatMiddlebox.__init__": ("a", "input"),
    # -- netsim --------------------------------------------------------------
    "src/repro/netsim/engine.py::SimFuture.result": ("a", "input"),
    "src/repro/netsim/engine.py::SimFuture.add_done_callback": (
        "b", _SIM + "process callbacks — a callback added to a resolved "
        "future runs on the next tick"),
    "src/repro/netsim/engine.py::_Process._step": ("a", "input"),
    "src/repro/netsim/engine.py::Simulator.call_at": ("a", "input"),
    "src/repro/netsim/engine.py::Simulator.call_after": ("a", "input"),
    "src/repro/netsim/engine.py::Simulator._drain": (
        "c", "max_events, the runaway-loop guard, which tests set low"),
    "src/repro/netsim/engine.py::Simulator.first_success": ("a", "input"),
    "src/repro/netsim/engine.py::Simulator.run_until_resolved": (
        "a", "input"),
    "src/repro/netsim/latency.py::LatencyModel.__add__": (
        "b", _SIM + "latency distributions (constant/uniform/normal/"
        "lognormal/gamma/empirical/shifted)"),
    "src/repro/netsim/latency.py::Constant.__init__": ("a", "input"),
    "src/repro/netsim/latency.py::Uniform": (
        "b", _SIM + "latency distributions (uniform)"),
    "src/repro/netsim/latency.py::Normal": (
        "b", _SIM + "latency distributions (normal)"),
    "src/repro/netsim/latency.py::lognormal_from_median_p95": (
        "a", "input"),
    "src/repro/netsim/latency.py::Gamma": (
        "b", _SIM + "latency distributions (gamma)"),
    "src/repro/netsim/latency.py::Empirical": (
        "b", _SIM + "latency distributions (empirical)"),
    "src/repro/netsim/latency.py::Compound": (
        "b", _SIM + "latency distributions (shifted: a sum of models)"),
    "src/repro/netsim/link.py::Link.__init__": ("a", "input"),
    "src/repro/netsim/link.py::Link.sample_delay": (
        "b", _SIM + "links — random loss and serialization delay"),
    "src/repro/netsim/network.py::Network": ("a", "input"),
    "src/repro/netsim/network.py::Network._walk": ("a", "network"),
    "src/repro/netsim/network.py::Network._routes_from": (
        "b", _SIM + "topology with shortest-path routing (a lazy "
        "per-source Dijkstra) — a settled host's stale heap entry"),
    "src/repro/netsim/network.py::Network.add_tap": (
        "b", _SIM + "tcpdump-analog capture of every host"),
    "src/repro/netsim/network.py::Network.remove_tap": (
        "b", _SIM + "tcpdump-analog capture of every host"),
    "src/repro/netsim/network.py::Network._emit": (
        "b", _SIM + "tcpdump-analog capture of every host"),
    "src/repro/netsim/node.py::Host": ("a", "input"),
    "src/repro/netsim/socket.py::UdpSocket": ("a", "input"),
    "src/repro/netsim/stream.py::StreamChannel._reliable_exchange": (
        "a", "network"),
    "src/repro/netsim/stream.py::StreamChannel.exchange": ("a", "input"),
    "src/repro/netsim/trace.py::PacketTrace._observe": (
        "b", _SIM + "tcpdump-analog capture — an event filter"),
    # -- profile -------------------------------------------------------------
    "src/repro/profile/budget.py::BudgetReport.row": ("a", "missing"),
    "src/repro/profile/criticalpath.py::_stage_for": (
        "b", _RESOLVER + "the stages of truncation→TCP retry, the "
        "forwarder's upstream exchange and the plugin chain"),
    "src/repro/profile/criticalpath.py::trace_segments": (
        "a", "degenerate"),
    "src/repro/profile/profiler.py::render_profile": (
        "c", "the row limit, which tests set below the row count"),
    "src/repro/profile/runner.py::run_slo_cli": ("a", "usage, gate"),
    "src/repro/profile/runner.py::run_tail_cli": ("a", "usage"),
    "src/repro/profile/slo.py::_parse_point": ("a", "input"),
    "src/repro/profile/slo.py::_parse_window": ("a", "input"),
    "src/repro/profile/slo.py::_parse_burnrate": ("a", "input"),
    "src/repro/profile/slo.py::_check_op": ("a", "input"),
    "src/repro/profile/slo.py::_parse_threshold": ("a", "input"),
    "src/repro/profile/slo.py::_budget_samples": ("a", "missing"),
    "src/repro/profile/slo.py::_timeseries_docs": ("a", "missing"),
    "src/repro/profile/slo.py::_check_window_rule": ("a", "gate"),
    "src/repro/profile/slo.py::_check_burnrate_rule": ("a", "gate"),
    "src/repro/profile/slo.py::_check_point_rule": ("a", "gate"),
    # -- resolver ------------------------------------------------------------
    "src/repro/resolver/authoritative.py::AuthoritativeServer.handle_query": (
        "b", _RESOLVER + "authoritative server over zones (referrals, "
        "CNAME, wildcards, answer rotation) — NXDOMAIN, NODATA and REFUSED "
        "answers"),
    "src/repro/resolver/authoritative.py::AuthoritativeServer._finish_response": (
        "b", _RESOLVER + "authoritative server over zones (ECS scope)"),
    "src/repro/resolver/authoritative.py::AuthoritativeServer._handle_axfr": (
        "b", _RESOLVER + "AXFR/IXFR with change journal — NOTAUTH for a "
        "zone it does not serve"),
    "src/repro/resolver/authoritative.py::AuthoritativeServer._handle_ixfr": (
        "b", _RESOLVER + "AXFR/IXFR with change journal — a secondary "
        "already current"),
    "src/repro/resolver/cache.py::DnsCache.__init__": ("a", "input"),
    "src/repro/resolver/cache.py::DnsCache._evict_if_needed": (
        "c", "max_entries, which tests set to a few entries"),
    "src/repro/resolver/cache.py::DnsCache.get": (
        "b", _RESOLVER + "TTL-aware positive/negative cache"),
    "src/repro/resolver/cache.py::DnsCache.put_negative": (
        "b", _RESOLVER + "TTL-aware positive/negative cache"),
    "src/repro/resolver/cache.py::DnsCache.put_records": ("a", "wire"),
    "src/repro/resolver/cache.py::DnsCache.peek_addresses": (
        "b", _RESOLVER + "iterative recursive resolver — cached NS "
        "addresses it starts from"),
    "src/repro/resolver/cache.py::_NegativeEntry": (
        "b", _RESOLVER + "TTL-aware positive/negative cache"),
    "src/repro/resolver/cache.py::negative_ttl": (
        "b", _RESOLVER + "TTL-aware positive/negative cache (RFC 2308 §5)"),
    "src/repro/resolver/chain.py::PluginChain.run": (
        "b", _RESOLVER + "plugin-style handler chain — a chain that runs "
        "out of plugins answers REFUSED"),
    "src/repro/resolver/exchange.py::exchange": ("a", "wire"),
    "src/repro/resolver/forwarder.py::ForwardingResolver.handle_query": (
        "b", _RESOLVER + "forwarding resolver over the TTL-aware "
        "positive/negative cache — cached NXDOMAIN, serve-stale, SERVFAIL "
        "when every upstream fails"),
    "src/repro/resolver/forwarder.py::ForwardingResolver._cache_response": (
        "b", _RESOLVER + "TTL-aware positive/negative cache"),
    "src/repro/resolver/recursive.py::RecursiveResolver": (
        "b", _RESOLVER + "iterative recursive resolver with ECS-scoped "
        "caching"),
    "src/repro/resolver/recursive.py::_is_glue": (
        "b", _RESOLVER + "iterative recursive resolver — glue under a "
        "referral"),
    "src/repro/resolver/retry.py::RetryBudget": (
        "b", _RESOLVER + "the stub's retry schedule (budgets)"),
    "src/repro/resolver/retry.py::RetryPolicy.__init__": ("a", "input"),
    "src/repro/resolver/retry.py::RetryPolicy.timeout_for": ("a", "input"),
    "src/repro/resolver/retry.py::RetryPolicy.may_retry": (
        "b", _RESOLVER + "the stub's retry schedule (budgets)"),
    "src/repro/resolver/server.py::DnsServer.__init__": ("a", "input"),
    "src/repro/resolver/server.py::DnsServer._on_datagram": ("a", "wire"),
    "src/repro/resolver/server.py::DnsServer._send_error_for_garbage": (
        "a", "wire"),
    "src/repro/resolver/server.py::DnsServer._produce_response": (
        "a", "network"),
    "src/repro/resolver/server.py::DnsServer._admit": (
        "b", _RESOLVER + "finite-capacity service model (workers + "
        "backlog) — a query shed at a full queue"),
    "src/repro/resolver/stub.py::StubResolver._query_impl": (
        "b", _RESOLVER + "stub resolver, the one owner of the retry "
        "schedule — budgets, malformed replies and SERVFAIL retried"),
    "src/repro/resolver/xfr.py::ZoneDelta.new_serial": (
        "b", _RESOLVER + "AXFR/IXFR with change journal"),
    "src/repro/resolver/xfr.py::diff_zones": ("a", "input"),
    "src/repro/resolver/xfr.py::ZoneJournal.__init__": ("a", "input"),
    "src/repro/resolver/xfr.py::apply_ixfr": ("a", "input"),
    "src/repro/resolver/xfr.py::axfr_response_records": ("a", "input"),
    "src/repro/resolver/xfr.py::zone_from_axfr": ("a", "input"),
    "src/repro/resolver/xfr.py::SecondaryZone._transfer_ixfr": (
        "a", "network"),
    "src/repro/resolver/xfr.py::SecondaryZone.stop": (
        "b", _RESOLVER + "secondary zones that poll serials"),
    # -- runtime -------------------------------------------------------------
    "src/repro/runtime/executor.py::TrialFailure.describe": ("a", "trial"),
    "src/repro/runtime/executor.py::_run_chunk": ("a", "trial"),
    "src/repro/runtime/executor.py::_run_pool": ("a", "trial"),
    "src/repro/runtime/executor.py::TrialExecutor.__init__": ("a", "input"),
    "src/repro/runtime/experiment.py::Experiment.resolve_params": (
        "a", "input"),
    "src/repro/runtime/registry.py::ExperimentRegistry": (
        "a", "input, missing"),
    "src/repro/runtime/spec.py::TrialSpec.value": ("a", "missing"),
    "src/repro/runtime/spec.py::TrialSpec.label": ("a", "trial"),
    # -- telemetry -----------------------------------------------------------
    "src/repro/telemetry/metrics.py::Counter.inc": ("a", "input"),
    "src/repro/telemetry/metrics.py::percentile": ("a", "input"),
    "src/repro/telemetry/metrics.py::BucketCell.merge": ("a", "input"),
    "src/repro/telemetry/metrics.py::BucketCell.quantile": ("a", "clamp"),
    "src/repro/telemetry/metrics.py::MetricsRegistry": ("a", "input"),
    "src/repro/telemetry/sampling.py::HeadSampler.keep_id": (
        "a", "degenerate"),
    "src/repro/telemetry/sampling.py::TailReservoir.__init__": (
        "a", "input"),
    "src/repro/telemetry/sampling.py::TailReservoir.offer": (
        "c", "capacity, which tests set to 0"),
    "src/repro/telemetry/timeseries.py::TimeSeries.__init__": (
        "a", "input"),
    "src/repro/telemetry/timeseries.py::TimeSeries.merge_from": (
        "a", "input"),
    "src/repro/telemetry/timeseries.py::TimeSeries._prune": (
        "c", "max_windows, which tests set below the run's windows"),
    "src/repro/telemetry/trace.py::Tracer.end": ("a", "noop"),
    "src/repro/telemetry/trace.py::Tracer._store": (
        "c", "max_spans, which tests set to a few spans"),
    # -- workload ------------------------------------------------------------
    "src/repro/workload/arrivals.py::DiurnalProfile.__init__": (
        "a", "input"),
    "src/repro/workload/arrivals.py::NhppArrivals": ("a", "input"),
    "src/repro/workload/caches.py::RankLru.__init__": ("a", "input"),
    "src/repro/workload/engine.py::DistrictStats.load_imbalance": (
        "a", "degenerate"),
    "src/repro/workload/engine.py::merge_stats": ("a", "degenerate"),
    "src/repro/workload/engine.py::_Router.select": (
        "b", _CDN + "consistent hashing — the client-keyed ring of the "
        "`--allocation client` policy"),
    "src/repro/workload/mobility.py::MobilityModel.__init__": (
        "a", "input"),
    "src/repro/workload/mobility.py::MobilityModel.place_session": (
        "a", "degenerate"),
    "src/repro/workload/population.py::Population": ("a", "input"),
    "src/repro/workload/sessions.py::SessionModel.__init__": ("a", "input"),
}

#: Each CI ``repro`` command (.github/workflows/ci.yml), as arguments to
#: ``python -m repro.cli``; run in a scratch directory.
SURFACES: List[List[str]] = [
    ["check", str(SRC), "--out", "repro-check-report.json"],
    ["experiment", "all", "--jobs", "2", "--trials", "6", "--queries", "8",
     "--rounds", "4"],
    ["experiment", "all"],
    ["experiment", "churn", "--jobs", "2",
     "--metrics-out", "churn-metrics.json"],
    ["experiment", "churn", "--jobs", "1"],
    ["experiment", "resilience", "--jobs", "2",
     "--metrics-out", "resilience-metrics.json"],
    ["experiment", "resilience", "--jobs", "1"],
    ["experiment", "population", "--jobs", "2", "--target-queries", "6000",
     "--catalog", "20000", "--cache-capacity", "500"],
    *[["experiment", "population", "--allocation", "client-bounded",
       "--target-queries", "6000", "--catalog", "20000",
       "--cache-capacity", "500", "--jobs", jobs] for jobs in ("1", "2")],
    *[["experiment", "population", "--districts", "2", "--target-queries",
       "6000", "--metrics-out", f"population-telemetry-jobs{jobs}.json",
       "--trace-sample", "0.05", "--window-ms", "300000", "--jobs", jobs]
      for jobs in ("1", "2")],
    ["slo", str(ROOT / "slo" / "population.slo"),
     "--input", "population-telemetry-jobs2.json",
     "--out", "population-slo.json"],
    ["tail", "population-telemetry-jobs2.json", "--top", "5"],
    ["profile", "figure5", "--out-dir", "profile-out"],
    ["slo", str(ROOT / "slo" / "figure5.slo"),
     "--input", "profile-out/figure5-budget.json",
     "--out", "profile-out/figure5-slo.json"],
    ["experiment", "figure5", "--queries", "12",
     "--metrics-out", "figure5-metrics.json",
     "--trace-out", "figure5-trace.json"],
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


def scopes(tree: ast.Module) -> List[Tuple[int, int, str]]:
    """``(first, last, qualname)`` of every def / class, outermost first;
    qualnames are dotted through functions too (``outer.inner``)."""
    found: List[Tuple[int, int, str]] = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualname = f"{owner}.{child.name}" if owner else child.name
                first = min([child.lineno] + [decorator.lineno for decorator
                                              in child.decorator_list])
                found.append((first, child.end_lineno or child.lineno,
                              qualname))
                visit(child, qualname)
            else:
                visit(child, owner)
    visit(tree, "")
    return found


def qualnames(path: Path) -> Set[str]:
    return {name for _, _, name in scopes(ast.parse(path.read_text("utf-8")))}


def table_errors() -> List[str]:
    """Every ``CLASSES`` entry that names no def / class, or whose reason
    does not fit its class; tier-1 checks this without a census run."""
    errors: List[str] = []
    defined: Dict[str, Set[str]] = {}
    for key, (kind, reason) in sorted(CLASSES.items()):
        file, _, qualname = key.partition("::")
        if file not in defined:
            path = ROOT / file
            defined[file] = qualnames(path) if path.is_file() else set()
        if qualname not in defined[file]:
            errors.append(f"{key}: no such def / class")
        if kind == "a":
            unknown = [rule for rule in reason.split(", ")
                       if rule not in DEGRADE_RULES]
            if unknown:
                errors.append(f"{key}: unknown degrade rule "
                              f"{', '.join(unknown)}")
        elif kind == "b" and "DESIGN.md" not in reason:
            errors.append(f"{key}: a (b) reason cites its DESIGN.md row")
        elif kind not in ("a", "b", "c"):
            errors.append(f"{key}: class {kind!r} is not a, b or c")
    return errors


def enclosing(spans: List[Tuple[int, int, str]], line: int) -> str:
    """The innermost def / class around ``line`` ('' at module level)."""
    inside = [(first, name) for first, last, name in spans
              if first <= line <= last]
    return max(inside)[1] if inside else ""


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


def run_surfaces(out: Path, work: Path, pythonpath: str) -> None:
    python = sys.executable
    for args in SURFACES:
        run([python, "-m", "repro.cli", *args], out, work, pythonpath)
    for example in sorted((ROOT / "examples").glob("*.py")):
        run([python, str(example)], out, work, pythonpath)
    child = str(ROOT / "bench" / "child.py")
    for workload in BENCH_WORKLOADS:
        common = [python, child, "--workload", workload, "--seed", "42",
                  "--scale", "0.1", "--budget", "0"]
        run(common, out, ROOT, pythonpath)
        run(common + ["--spans-out", str(work / f"spans-{workload}.json")],
            out, ROOT, pythonpath)
    run([python, str(ROOT / "bench" / "drivers.py"), "--budget", "0"],
        out, ROOT, pythonpath)


def census(surface: Lines, tested: Lines) -> Dict:
    report: Dict = {"python": sys.version.split()[0], "executable": 0,
                    "not_on_surfaces": 0, "nowhere": 0, "test_only": 0,
                    "by_class": {}, "unclassified": 0, "defs": {}}
    for path in sorted(SRC.rglob("*.py")):
        file = path.relative_to(ROOT).as_posix()
        real = os.path.realpath(path)
        spans = scopes(ast.parse(path.read_text("utf-8")))
        for line in sorted(executable(path)):
            report["executable"] += 1
            if (real, line) in surface:
                continue
            report["not_on_surfaces"] += 1
            qualname = enclosing(spans, line)
            if (real, line) not in tested:
                report["nowhere"] += 1
                kind = "nowhere"
            else:
                report["test_only"] += 1
                if (file in OUT_OF_SCOPE_FILES
                        or qualname.rpartition(".")[2] in OUT_OF_SCOPE_NAMES):
                    kind = "out of scope"
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
        run_surfaces(work / "surfaces", work / "run", pythonpath)
        print("tier-1:", flush=True)
        run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "--hypothesis-profile=ci"],
            work / "tests", ROOT, pythonpath)
        report = census(collect(work / "surfaces"), collect(work / "tests"))

    if args.report:
        args.report.write_text(json.dumps(report, indent=1), "utf-8")
    print(f"\nline census on Python {report['python']}: "
          f"{report['executable']:,} executable lines in src/repro; "
          f"{report['not_on_surfaces']:,} run on no surface: "
          f"{report['test_only']:,} only under tier-1, "
          f"{report['nowhere']:,} nowhere")
    for kind, count in sorted(report["by_class"].items()):
        print(f"  {kind:>14}: {count:,}")
    for key, kinds in sorted(report["defs"].items()):
        if "unclassified" in kinds:
            print(f"unclassified: {key}: lines "
                  f"{ranges(kinds['unclassified'])}")
    failed = report["unclassified"] > 0
    if report["test_only"] > CEILING:
        print(f"test-only lines {report['test_only']:,} are above the "
              f"ceiling {CEILING:,}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
