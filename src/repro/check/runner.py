"""``repro check`` — run the analyzers, report, gate.

Orchestrates the four analyzers over a source tree and renders the
report as human text or machine JSON (the CI artifact).  Exit status: 0
when there are no findings, 1 when there are, 2 on usage errors — so the
command doubles as a merge gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.check import determinism, hotpath, layering, races
from repro.check.findings import Finding
from repro.check.sources import SourceTree, load_tree

REPORT_VERSION = 1

ANALYZERS: Dict[str, Callable[[SourceTree], List[Finding]]] = {
    determinism.ANALYZER_NAME: determinism.analyze,
    layering.ANALYZER_NAME: layering.analyze,
    races.ANALYZER_NAME: races.analyze,
    hotpath.ANALYZER_NAME: hotpath.analyze,
}

#: analyzer name -> the rule ids it owns (drives ``--only`` selection).
ANALYZER_RULES: Dict[str, List[str]] = {
    determinism.ANALYZER_NAME: sorted(determinism.RULES),
    layering.ANALYZER_NAME: sorted(layering.RULES),
    races.ANALYZER_NAME: sorted(races.RULES),
    hotpath.ANALYZER_NAME: sorted(hotpath.RULES),
}

#: rule id -> one-line description, across all analyzers.
ALL_RULES: Dict[str, str] = {
    "GEN001": "file does not parse",
    **determinism.RULES, **layering.RULES, **races.RULES, **hotpath.RULES,
}

DEFAULT_PATHS = ("src/repro",)


class Report:
    """The outcome of one ``repro check`` run."""

    def __init__(self, findings: List[Finding], analyzers: List[str],
                 scanned: int) -> None:
        #: Unsuppressed findings, sorted by location.
        self.findings = sorted(findings, key=Finding.sort_key)
        self.analyzers = analyzers
        self.scanned = scanned

    @property
    def ok(self) -> bool:
        """True when no unsuppressed findings remain."""
        return not self.findings

    def counts_by_rule(self) -> Dict[str, int]:
        """Finding counts keyed by rule id."""
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        """The machine-readable report (uploaded as a CI artifact)."""
        return {
            "version": REPORT_VERSION,
            "analyzers": self.analyzers,
            "files_scanned": self.scanned,
            "summary": self.counts_by_rule(),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def render_json(self) -> str:
        """The report as pretty-printed JSON."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render_text(self) -> str:
        """The report as human-readable lines plus a verdict line."""
        lines = [finding.render() for finding in self.findings]
        counts = self.counts_by_rule()
        summary = ", ".join(f"{count} {rule}"
                            for rule, count in sorted(counts.items()))
        verdict = ("clean" if self.ok
                   else f"{len(self.findings)} finding"
                        f"{'s' if len(self.findings) != 1 else ''}"
                        f" ({summary})")
        lines.append(f"repro check: {verdict}; {self.scanned} files via "
                     f"{'/'.join(self.analyzers)}")
        return "\n".join(lines) + "\n"


def run_check(paths: Sequence[str] = DEFAULT_PATHS,
              only: Optional[Sequence[str]] = None,
              include_suppressed: bool = False) -> Report:
    """Run the analyzers over ``paths``.

    ``only`` restricts the report to the given rule ids and runs just
    the analyzers owning them.  ``include_suppressed`` ignores inline
    ``# repro: allow[...]`` comments (inventory runs).
    """
    names = list(ANALYZERS)
    if only:
        unknown_rules = [rule for rule in only if rule not in ALL_RULES]
        if unknown_rules:
            raise ValueError(
                f"unknown rule(s): {', '.join(unknown_rules)} "
                f"(see --list-rules)")
        wanted = set(only)
        names = [name for name in names
                 if wanted.intersection(ANALYZER_RULES[name])]
    tree = load_tree(list(paths))
    tree.include_suppressed = include_suppressed
    findings: List[Finding] = list(tree.errors)
    for name in names:
        findings.extend(ANALYZERS[name](tree))
    if only:
        findings = [finding for finding in findings
                    if finding.rule in set(only)]
    return Report(findings, names, len(tree))


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro check`` flags."""
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories to analyse "
                             "(default: src/repro)")
    parser.add_argument("--only", action="append", metavar="RULE[,RULE...]",
                        help="report only these rule ids (repeatable, "
                             "comma-separated); analyzers not owning any "
                             "selected rule are skipped")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="stdout format (default: text)")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the JSON report to PATH "
                             "(the CI artifact)")
    parser.add_argument("--include-suppressed", action="store_true",
                        help="ignore inline '# repro: allow[...]' "
                             "comments (inventory runs)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")


def run_cli(args: argparse.Namespace) -> int:
    """Execute a parsed ``repro check`` invocation."""
    if args.list_rules:
        for rule, description in sorted(ALL_RULES.items()):
            print(f"{rule}  {description}")
        return 0
    only: List[str] = []
    for chunk in args.only or []:
        only.extend(rule.strip() for rule in chunk.split(",")
                    if rule.strip())
    try:
        report = run_check(args.paths, only=only or None,
                           include_suppressed=args.include_suppressed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render_json() if args.format == "json"
                     else report.render_text())
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(report.render_json())
        except OSError as exc:
            print(f"error: cannot write report to {args.out}: {exc}",
                  file=sys.stderr)
            return 2
    return 0 if report.ok else 1

