"""CLI glue for ``repro profile``, ``repro slo``, and ``repro tail``.

Mirrors :mod:`repro.check.runner`: ``add_*_arguments`` installs the
flags on a subparser, ``run_*_cli`` executes a parsed invocation and
returns the exit status (0 ok, 1 breach/failure, 2 usage error).  The
heavyweight imports (experiments, the harness) happen lazily so
``repro slo``/``repro tail`` on an existing artifact stay cheap.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List


def add_profile_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags for ``repro profile`` (the experiment name is added by the
    caller via the registry, like ``repro experiment``)."""
    parser.add_argument("--out-dir", metavar="DIR", default=".",
                        help="directory for <name>-budget.json and "
                             "<name>-profile.folded (default: .)")
    parser.add_argument("--top", type=int, default=15,
                        help="rows to show in the profile tables "
                             "(default: 15)")


def run_profile_cli(args: argparse.Namespace) -> int:
    """Execute a parsed ``repro profile`` invocation."""
    from repro.profile import harness
    from repro.experiments.registry import builtin_registry
    experiment = builtin_registry().get(args.artifact)
    overrides = {param.name: getattr(args, param.name)
                 for param in experiment.params if param.cli}
    result = harness.run_profile(args.artifact, overrides,
                                 out_dir=args.out_dir, top=args.top)
    if result.run.failures:
        print(f"error: {len(result.run.failures)} of "
              f"{len(result.run.outcomes)} trials failed:", file=sys.stderr)
        for failure in result.run.failures:
            print(f"  {failure.describe()}", file=sys.stderr)
        return 1
    print(harness.render_summary(result, top=args.top))
    return 0


def add_slo_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags for ``repro slo``."""
    parser.add_argument("rules", metavar="RULES.slo",
                        help="SLO rule file "
                             "(<scope> <agg> <metric> <op> <threshold>)")
    parser.add_argument("--input", metavar="PATH", action="append",
                        dest="inputs", required=True,
                        help="artifact to evaluate against: a "
                             "repro-budget-v1 or repro-telemetry-v1 JSON "
                             "document (repeatable)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="stdout format (default: text)")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the repro-slo-v1 verdict JSON "
                             "to PATH (the CI artifact)")


def run_slo_cli(args: argparse.Namespace) -> int:
    """Execute a parsed ``repro slo`` invocation."""
    from repro.profile.slo import SloParseError, evaluate_slo, parse_slo_text
    try:
        with open(args.rules, "r", encoding="utf-8") as handle:
            rules = parse_slo_text(handle.read())
    except OSError as exc:
        print(f"error: cannot read rules {args.rules}: {exc}",
              file=sys.stderr)
        return 2
    except SloParseError as exc:
        print(f"error: {args.rules}: {exc}", file=sys.stderr)
        return 2
    if not rules:
        print(f"error: {args.rules} contains no rules", file=sys.stderr)
        return 2
    documents: List[Dict[str, Any]] = []
    for path in args.inputs:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot load artifact {path}: {exc}",
                  file=sys.stderr)
            return 2
        if not isinstance(document, dict):
            print(f"error: {path} is not a JSON object", file=sys.stderr)
            return 2
        documents.append(document)
    verdict = evaluate_slo(rules, documents)
    if args.format == "json":
        print(json.dumps(verdict.to_dict(), indent=2, sort_keys=True))
    else:
        print(verdict.render_text())
    if args.out:
        try:
            verdict.write(args.out)
        except OSError as exc:
            print(f"error: cannot write verdict to {args.out}: {exc}",
                  file=sys.stderr)
            return 2
    return 0 if verdict.ok else 1


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

