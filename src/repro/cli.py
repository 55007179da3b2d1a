"""Command-line interface for the MEC-CDN reproduction.

Subcommands:

* ``experiment <artifact>`` — regenerate a paper artifact through the
  experiment registry (``table1``, ``figure5``, ``churn``, ...)
  or ``all``.  ``--jobs N`` shards each artifact's trial plan over a
  process pool; serial and sharded runs print byte-identical output.
* ``dig`` — run dig-style queries for the testbed's content name
  against a chosen Figure 5 deployment and print each result plus the
  summary.
* ``deployments`` — list the six evaluated DNS deployments.
* ``profile <artifact>`` — run one artifact under the latency-budget
  profiler (:mod:`repro.profile`): per-deployment budget report and
  collapsed-stack flamegraph input.
* ``slo <artifact.json>`` — check the latency bounds
  (:mod:`repro.profile.slo`) of a budget or telemetry artifact as claim
  rows; exits 1 on a breach, 2 on an unreadable artifact.
* ``tail <artifact.json>`` — print the tail-latency exemplars a
  telemetry artifact retained (slowest queries with per-stage
  attribution); ``--trace-out`` reconstructs them for Perfetto.

The artifact list and every experiment flag (``--trials``,
``--queries``, ``--seed``, ``--attack-qps``, ...) come out of the
:class:`~repro.runtime.ExperimentRegistry` — artifacts declare their
parameters, the CLI just renders them; there is no per-artifact
dispatch chain to keep in lockstep.

Usage examples::

    python -m repro.cli experiment figure5 --queries 40
    python -m repro.cli experiment all --jobs 4
    python -m repro.cli dig --deployment mec-ldns-mec-cdns --count 5
    python -m repro.cli deployments
    python -m repro.cli profile figure5 --out-dir out
    python -m repro.cli slo out/figure5-budget.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.deployments import (
    DEPLOYMENT_KEYS,
    DEPLOYMENT_LABELS,
    build_testbed,
)
from repro.measure.runner import measure_deployment_queries
from repro.measure.stats import summarize

_registry = None


def _get_registry():
    """The built-in experiment registry (imported lazily, built once)."""
    global _registry
    if _registry is None:
        from repro.experiments.registry import builtin_registry
        _registry = builtin_registry()
    return _registry


def _run_experiment(name: str, args: argparse.Namespace,
                    executor_meta: Optional[dict] = None) -> int:
    """Run one registered artifact; returns 0 unless a trial crashed."""
    from repro.runtime import TrialExecutor
    experiment = _get_registry().get(name)
    overrides = {param.name: getattr(args, param.name)
                 for param in experiment.params if param.cli}
    run = TrialExecutor(jobs=args.jobs).run(experiment, overrides)
    if executor_meta is not None and run.executor_stats is not None:
        executor_meta[name] = run.executor_stats.to_dict()
    if run.failures:
        print(f"error: {len(run.failures)} of {len(run.outcomes)} trials "
              f"failed for {name}:", file=sys.stderr)
        for failure in run.failures:
            print(f"  {failure.describe()}", file=sys.stderr)
        print(run.failures[0].traceback, file=sys.stderr)
        return 1
    print(experiment.render_result(run.result))
    if experiment.claims(run.result):
        violations = experiment.check_shape(run.result)
        print(f"shape claims: {'ALL HOLD' if not violations else violations}")
    return 0


def _maybe_install_telemetry(args: argparse.Namespace):
    """Install ambient telemetry when ``--trace-out``/``--metrics-out`` ask.

    Returns the installed :class:`repro.telemetry.Telemetry`, or ``None``
    when neither flag was given (the zero-cost default).  The sampling
    flags (``--trace-sample``, ``--window-ms``, ``--tail-exemplars``)
    shape the facade; on their own they do not turn capture on.
    """
    if not (args.trace_out or args.metrics_out):
        return None
    from repro import telemetry
    tel = telemetry.Telemetry(trace_sample=args.trace_sample,
                              window_ms=args.window_ms,
                              tail_capacity=args.tail_exemplars)
    telemetry.set_default(tel)
    return tel


def _uninstall_telemetry(tel) -> None:
    """Clear the ambient facade :func:`_maybe_install_telemetry` set."""
    if tel is not None:
        from repro import telemetry
        telemetry.clear_default()


def _export_telemetry(tel, args: argparse.Namespace,
                      meta: Optional[dict] = None) -> None:
    """Write the requested artifacts of a run that finished.

    Called only when no exception escaped the run: a sweep that raised
    (a worker died, say) writes no artifact.  ``--metrics-out`` writes the
    JSON artifact (metrics + span roll-ups + time-series + tail exemplars,
    with any ``meta`` — e.g. executor chunk stats — kept out of the
    byte-compared payload).
    """
    from repro.telemetry import exporters
    if args.trace_out:
        try:
            exporters.write_chrome_trace(tel.tracer.finished, args.trace_out)
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace_out}: {exc}",
                  file=sys.stderr)
        else:
            print(f";; wrote {len(tel.tracer.finished)} spans to "
                  f"{args.trace_out} (open in about:tracing or Perfetto)",
                  file=sys.stderr)
    if args.metrics_out:
        try:
            exporters.write_json_artifact(tel.metrics, args.metrics_out,
                                          spans=tel.tracer.finished,
                                          meta=meta,
                                          timeseries=tel.timeseries,
                                          tail=tel.tail)
        except OSError as exc:
            print(f"error: cannot write metrics to {args.metrics_out}: {exc}",
                  file=sys.stderr)
        else:
            print(f";; wrote {len(tel.metrics)} metric instruments and "
                  f"{len(tel.tail)} tail exemplars to {args.metrics_out}",
                  file=sys.stderr)


def _cmd_experiment(args: argparse.Namespace) -> int:
    tel = _maybe_install_telemetry(args)
    executor_meta: dict = {}
    status = 0
    try:
        names = (_get_registry().names() if args.artifact == "all"
                 else [args.artifact])
        for index, name in enumerate(names):
            if index:
                print()
            status = _run_experiment(name, args, executor_meta) or status
    finally:
        _uninstall_telemetry(tel)
    if tel is not None:
        _export_telemetry(
            tel, args,
            meta={"executor": executor_meta} if executor_meta else None)
    return status


def _cmd_dig(args: argparse.Namespace) -> int:
    tel = _maybe_install_telemetry(args)
    try:
        status = _run_dig(args)
    finally:
        _uninstall_telemetry(tel)
    if tel is not None:
        _export_telemetry(tel, args)
    return status


def _run_dig(args: argparse.Namespace) -> int:
    testbed = build_testbed(args.deployment, seed=args.seed, ecs=args.ecs)
    if args.verbose:
        stub = testbed.ue.stub()
        result = testbed.sim.run_until_resolved(
            testbed.sim.spawn(stub.query(testbed.query_name)))
        print(result.response.to_text())
        print(f"\n;; Query time: {result.query_time_ms:.0f} msec")
        print(f";; SERVER: {result.server}")
        return 0
    measurements = measure_deployment_queries(testbed, args.count)
    for index, m in enumerate(measurements, 1):
        print(f"[{index:2d}] {m.status:8s} {','.join(m.addresses):18s} "
              f"{m.latency_ms:7.2f} ms "
              f"(wireless {m.wireless_ms:.2f} / resolver {m.resolver_ms:.2f})")
    stats = summarize([m.latency_ms for m in measurements])
    print(f"\n;; {DEPLOYMENT_LABELS[args.deployment]}: {stats}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.profile import runner as profile_runner
    return profile_runner.run_profile_cli(args)


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.profile import runner as profile_runner
    return profile_runner.run_slo_cli(args)


def _cmd_tail(args: argparse.Namespace) -> int:
    from repro.profile import runner as profile_runner
    return profile_runner.run_tail_cli(args)


def _cmd_deployments(args: argparse.Namespace) -> int:
    for key in DEPLOYMENT_KEYS:
        print(f"{key:22s} {DEPLOYMENT_LABELS[key]}")
    return 0


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags (``experiment`` and ``dig``)."""
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write a Chrome trace_event JSON of every "
                             "query's spans (open in about:tracing/Perfetto)")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write collected metrics as a JSON artifact "
                             "with time-series and tail exemplars")
    parser.add_argument("--trace-sample", type=float, default=1.0,
                        metavar="RATE",
                        help="deterministic head-sampling rate for traces "
                             "in [0, 1] (default: 1.0 = keep all; "
                             "sampling changes no simulation results)")
    parser.add_argument("--window-ms", type=float, default=1000.0,
                        metavar="MS",
                        help="simulated-time window width for the "
                             "streaming time-series (default: 1000)")
    parser.add_argument("--tail-exemplars", type=int, default=32,
                        metavar="N",
                        help="slowest-query exemplars to retain "
                             "(default: 32; 0 disables tail capture)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro-mec-cdn",
        description="Reproduction of 'DNS Does Not Suffice for MEC-CDN' "
                    "(HotNets 2020)")
    sub = parser.add_subparsers(dest="command", required=True)

    registry = _get_registry()
    exp = sub.add_parser("experiment", help="regenerate a paper artifact")
    exp.add_argument("artifact", choices=tuple(registry.names()) + ("all",))
    registry.add_cli_arguments(exp)
    exp.add_argument("--jobs", type=int, default=1,
                     help="worker processes per artifact (1 = in-process "
                          "serial; output is identical either way)")
    _add_telemetry_arguments(exp)
    exp.set_defaults(handler=_cmd_experiment)

    dig = sub.add_parser("dig", help="query a Figure 5 deployment")
    dig.add_argument("--deployment", choices=DEPLOYMENT_KEYS,
                     default="mec-ldns-mec-cdns")
    dig.add_argument("--count", type=int, default=5)
    dig.add_argument("--seed", type=int, default=0)
    dig.add_argument("--ecs", action="store_true",
                     help="enable EDNS Client Subnet at L-DNS and C-DNS")
    dig.add_argument("--verbose", action="store_true",
                     help="print one full dig-style response instead of "
                          "the latency series")
    _add_telemetry_arguments(dig)
    dig.set_defaults(handler=_cmd_dig)

    dep = sub.add_parser("deployments",
                         help="list the evaluated DNS deployments")
    dep.set_defaults(handler=_cmd_deployments)

    from repro.profile.runner import add_profile_arguments, add_slo_arguments
    prof = sub.add_parser(
        "profile",
        help="profile a paper artifact: latency budget, flamegraph "
             "stacks, hottest functions")
    prof.add_argument("artifact", choices=tuple(registry.names()))
    registry.add_cli_arguments(prof)
    add_profile_arguments(prof)
    prof.set_defaults(handler=_cmd_profile)

    slo = sub.add_parser(
        "slo",
        help="check the latency bounds of a budget or telemetry artifact "
             "(exits nonzero on breach)")
    add_slo_arguments(slo)
    slo.set_defaults(handler=_cmd_slo)

    from repro.profile.runner import add_tail_arguments
    tail = sub.add_parser(
        "tail",
        help="print a telemetry artifact's tail-latency exemplars "
             "(slowest queries with per-stage attribution)")
    add_tail_arguments(tail)
    tail.set_defaults(handler=_cmd_tail)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
