"""CLI glue for ``repro profile``, ``repro slo``, and ``repro tail``.

``add_*_arguments`` installs the flags on a subparser, ``run_*_cli``
executes a parsed invocation and returns the exit status (0 ok, 1
breach/failure, 2 usage error).  The heavyweight imports (experiments, the harness) happen lazily so
``repro slo``/``repro tail`` on an existing artifact stay cheap.
"""

from __future__ import annotations

import argparse
import json
import sys


def add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags for ``repro profile`` (the experiment name is added by the
    caller via the registry, like ``repro experiment``)."""
    parser.add_argument("--out-dir", metavar="DIR", default=".",
                        help="directory for <name>-budget.json "
                             "(default: .)")


def run_profile_cli(args: argparse.Namespace) -> int:
    """Execute a parsed ``repro profile`` invocation."""
    from repro.profile import harness
    from repro.experiments.registry import builtin_registry
    experiment = builtin_registry().get(args.artifact)
    overrides = {param.name: getattr(args, param.name)
                 for param in experiment.params if param.cli}
    result = harness.run_profile(args.artifact, overrides,
                                 out_dir=args.out_dir)
    if result.run.failures:
        print(result.run.failure_report(), file=sys.stderr)
        return 1
    print(harness.render_summary(result))
    return 0


def add_slo_arguments(parser: argparse.ArgumentParser) -> None:
    """The one argument of ``repro slo``."""
    parser.add_argument("artifact", metavar="ARTIFACT.json",
                        help="a repro-budget-v1 document (repro profile) "
                             "or a repro-telemetry-v1 artifact "
                             "(--metrics-out)")


def run_slo_cli(args: argparse.Namespace) -> int:
    """Execute a parsed ``repro slo`` invocation: one PASS/FAIL line per
    claim row of the artifact's format."""
    from repro.profile.slo import CLAIM_ROWS
    try:
        with open(args.artifact, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load artifact {args.artifact}: {exc}",
              file=sys.stderr)
        return 2
    rows = (CLAIM_ROWS.get(document.get("format"))
            if isinstance(document, dict) else None)
    if rows is None:
        print(f"error: {args.artifact} is neither of "
              f"{' nor '.join(CLAIM_ROWS)}", file=sys.stderr)
        return 2
    claims = rows(document)
    width = max(len(claim.name) for claim in claims)
    failed = 0
    for claim in claims:
        holds = claim.holds()
        failed += not holds
        print(f"[{'PASS' if holds else 'FAIL'}] {claim.name:{width}s} "
              f"{claim.value:9.3f} {claim.op} {claim.bound:g}")
    print(f"slo: {'BREACH' if failed else 'OK'} — {len(claims)} claims, "
          f"{failed} failing")
    return 1 if failed else 0


def add_tail_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags for ``repro tail``."""
    parser.add_argument("artifact", metavar="ARTIFACT.json",
                        help="repro-telemetry-v1 artifact with an "
                             "'exemplars' section (written by "
                             "repro experiment ... --metrics-out)")
    parser.add_argument("--top", type=int, default=0,
                        help="exemplars to print (default: all retained)")


def run_tail_cli(args: argparse.Namespace) -> int:
    """Execute a parsed ``repro tail`` invocation."""
    from repro.telemetry.sampling import Exemplar
    try:
        with open(args.artifact, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load artifact {args.artifact}: {exc}",
              file=sys.stderr)
        return 2
    if not isinstance(document, dict) or "exemplars" not in document:
        print(f"error: {args.artifact} has no 'exemplars' section (rerun "
              f"the experiment with --metrics-out and tail capture on)",
              file=sys.stderr)
        return 2
    try:
        exemplars = [Exemplar.from_dict(entry)
                     for entry in document["exemplars"]]
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed exemplar in {args.artifact}: {exc}",
              file=sys.stderr)
        return 2
    exemplars.sort(key=Exemplar.sort_key)
    shown = exemplars[:args.top] if args.top > 0 else exemplars
    print(f"{len(exemplars)} tail exemplars in {args.artifact} "
          f"(slowest first):")
    for rank, exemplar in enumerate(shown, 1):
        attrs = dict(exemplar.attrs)
        context = " ".join(f"{key}={value}"
                           for key, value in sorted(attrs.items()))
        print(f"\n#{rank:<3d} {exemplar.total_ms:9.2f} ms  "
              f"t={exemplar.t_ms:.1f}  {exemplar.key}")
        if context:
            print(f"     {context}")
        for stage, ms in exemplar.stages:
            share = (100.0 * ms / exemplar.total_ms
                     if exemplar.total_ms else 0.0)
            print(f"     {stage:<14s} {ms:9.2f} ms  {share:5.1f}%")
    return 0

