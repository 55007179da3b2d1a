"""Declarative latency SLOs evaluated over run artifacts.

An ``.slo`` file is a list of one-line rules.  The second token picks
the rule kind; the original point-in-run form has an aggregation
there::

    # scope       agg  metric              op  threshold-ms
    mec-ldns-mec-cdns p99 resolve_ms       <   20
    mec-ldns-mec-cdns mean stage.radio_ms  <   15
    *                 p50 resolve_ms       <   120

* **scope** — a deployment key, or ``*`` to pool every deployment;
* **agg** — ``min``/``max``/``mean``/``p50``/``p90``/``p95``/``p99``;
* **metric** — ``resolve_ms`` (end-to-end resolution latency) or
  ``stage.<name>_ms`` (one critical-path stage, see
  :data:`repro.profile.criticalpath.STAGES`);
* **op** — ``<``, ``<=``, ``>``, ``>=`` (``>`` rules let a budget
  assert that, e.g., the WAN deployment really is over budget — a
  reproduction claim, not just a performance wish);
* **threshold** — milliseconds.

Two windowed forms evaluate against the ``repro-timeseries-v1``
document embedded as the ``timeseries`` section of the telemetry
artifact:

``<scope> window <agg> <metric> <op> <threshold>``
    The point-rule check applied to **every** window the series
    covers.  ``metric`` is ``dns_ms``/``total_ms`` (the population
    engine's windowed series) or a raw ``repro_*`` latency series
    name.  Missing-data semantics are strict *per window*: any window
    inside the covered range with zero samples FAILS the rule —
    "nothing measured for a second" is an outage signal, not a free
    pass.  (``min`` is not available: windows carry histograms.)

``<scope> burnrate <bad>/<total> <fires|quiet> budget=F factor=X fast=N slow=M [clear=K]``
    Multi-window, multi-burn-rate alerting (the SRE workbook shape)
    over two counter series.  The error ratio ``bad/total`` is read
    over a *fast* trailing window (``N`` windows) and a *slow* one
    (``M`` windows); the alert fires in any window where **both**
    burn rates reach ``X`` times the error ``budget``.  ``fires``
    asserts the alert fires at least once (and, with ``clear=K``,
    that it is quiet again for the last ``K`` windows of the run) —
    the reproduction claim that churn *does* burn the SLO and
    recovers; ``quiet`` asserts it never fires.  Bare series names
    resolve against the control-plane (``repro_control_*``) then the
    workload (``repro_workload_*``) families.

Point rules are evaluated against the ``repro-budget-v1`` documents
``repro profile`` writes (raw samples — any quantile computes exactly).

A rule that cannot be evaluated — no matching deployment, no samples,
an empty window — **fails**: a gate that silently passes on missing
data is worse than no gate.  ``repro slo`` renders the verdict as text
or a ``repro-slo-v1`` JSON document and exits 1 on any breach.
"""

from __future__ import annotations

import json
from functools import reduce
from operator import add
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Tuple, Union)

from repro.telemetry.metrics import BucketCell, percentile


#: Window-rule metric shorthands onto engine time-series names.
_SERIES_METRICS = {"dns_ms": "repro_workload_dns_ms",
                   "total_ms": "repro_workload_total_ms"}

#: Families bare burn-rate counter names resolve against, in order.
_COUNTER_FAMILIES = ("repro_control_", "repro_workload_")

_OPS: Dict[str, Callable[[float, float], bool]] = {
    "<": lambda value, bound: value < bound,
    "<=": lambda value, bound: value <= bound,
    ">": lambda value, bound: value > bound,
    ">=": lambda value, bound: value >= bound,
}

_AGGS = ("min", "max", "mean", "p50", "p90", "p95", "p99")

#: The percentile each order-statistic aggregation reads.
_PERCENTS = {"min": 0.0, "max": 100.0, "p50": 50.0, "p90": 90.0,
             "p95": 95.0, "p99": 99.0}


class SloParseError(ValueError):
    """A malformed rule line (message carries the line number)."""


class SloRule(NamedTuple):
    """One parsed point-in-run SLO line."""

    scope: str
    agg: str
    metric: str
    op: str
    threshold: float
    source: str

    def describe(self) -> str:
        """The rule re-rendered in canonical ``.slo`` line form."""
        return (f"{self.scope} {self.agg} {self.metric} "
                f"{self.op} {self.threshold:g}")

    def fields(self) -> Dict[str, Any]:
        """Kind-specific keys for the verdict document."""
        return {"agg": self.agg, "metric": self.metric,
                "op": self.op, "threshold": self.threshold}


class WindowRule(NamedTuple):
    """A point rule applied to every time-series window."""

    scope: str
    agg: str
    metric: str
    op: str
    threshold: float
    source: str

    def describe(self) -> str:
        """The rule re-rendered in canonical ``.slo`` line form."""
        return (f"{self.scope} window {self.agg} {self.metric} "
                f"{self.op} {self.threshold:g}")

    def fields(self) -> Dict[str, Any]:
        """Kind-specific keys for the verdict document."""
        return {"kind": "window", "agg": self.agg, "metric": self.metric,
                "op": self.op, "threshold": self.threshold}


class BurnRateRule(NamedTuple):
    """A multi-window burn-rate alert assertion over counter series."""

    scope: str
    bad: str
    total: str
    #: ``fires`` asserts the alert triggers; ``quiet`` that it never does.
    mode: str
    #: Error budget as a ratio (0.05 = five percent may be bad).
    budget: float
    #: Burn multiple that trips the alert (both windows must reach it).
    factor: float
    #: Fast/slow trailing lookback, in windows.
    fast: int
    slow: int
    #: With ``fires``: windows at the end of the run that must be quiet
    #: (0 = no recovery requirement).
    clear: int
    source: str

    def describe(self) -> str:
        """The rule re-rendered in canonical ``.slo`` line form."""
        tail = f" clear={self.clear}" if self.clear else ""
        return (f"{self.scope} burnrate {self.bad}/{self.total} "
                f"{self.mode} budget={self.budget:g} "
                f"factor={self.factor:g} fast={self.fast} "
                f"slow={self.slow}{tail}")

    def fields(self) -> Dict[str, Any]:
        """Kind-specific keys for the verdict document."""
        return {"kind": "burnrate", "bad": self.bad, "total": self.total,
                "mode": self.mode, "budget": self.budget,
                "factor": self.factor, "fast": self.fast,
                "slow": self.slow, "clear": self.clear}


#: Anything ``parse_slo_text`` can produce.
AnySloRule = Union[SloRule, WindowRule, BurnRateRule]


class SloCheck(NamedTuple):
    """One rule's outcome against the supplied artifacts."""

    rule: AnySloRule
    #: Observed aggregate; ``None`` when no data matched the rule.
    value: Optional[float]
    ok: bool
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        """One check of the ``repro-slo-v1`` document."""
        out: Dict[str, Any] = {"rule": self.rule.describe(),
                               "scope": self.rule.scope,
                               "value": self.value, "ok": self.ok,
                               "detail": self.detail}
        out.update(self.rule.fields())
        return out


class SloVerdict(NamedTuple):
    """Every rule's outcome; the gate passes only when all do."""

    checks: List[SloCheck]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_dict(self) -> Dict[str, Any]:
        """The machine-readable ``repro-slo-v1`` verdict document."""
        return {"format": "repro-slo-v1", "ok": self.ok,
                "checks": [check.to_dict() for check in self.checks]}

    def render_text(self) -> str:
        """Human-readable PASS/FAIL lines plus the verdict summary."""
        lines = []
        for check in self.checks:
            mark = "PASS" if check.ok else "FAIL"
            shown = ("n/a" if check.value is None
                     else f"{check.value:.3f}")
            lines.append(f"[{mark}] {check.rule.describe():48s} "
                         f"observed {shown} ({check.detail})")
        verdict = "OK" if self.ok else "BREACH"
        failed = sum(1 for check in self.checks if not check.ok)
        lines.append(f"slo: {verdict} — {len(self.checks)} rules, "
                     f"{failed} failing")
        return "\n".join(lines)

    def write(self, path: str) -> None:
        """Serialize :meth:`to_dict` as stable JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def parse_slo_text(text: str) -> List[AnySloRule]:
    """Parse the ``.slo`` rule format; raises :class:`SloParseError`.

    The token after the scope dispatches the rule kind: ``window`` and
    ``burnrate`` introduce the time-series forms; anything else must be
    an aggregation and parses as a point rule.
    """
    rules: List[AnySloRule] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) >= 2 and parts[1] == "window":
            rules.append(_parse_window(line_no, raw, line, parts))
        elif len(parts) >= 2 and parts[1] == "burnrate":
            rules.append(_parse_burnrate(line_no, raw, line, parts))
        else:
            rules.append(_parse_point(line_no, raw, line, parts))
    return rules


def _parse_point(line_no: int, raw: str, line: str,
                 parts: List[str]) -> SloRule:
    if len(parts) != 5:
        raise SloParseError(
            f"line {line_no}: expected "
            f"'<scope> <agg> <metric> <op> <threshold>', got {raw!r}")
    scope, agg, metric, op, threshold_text = parts
    if agg not in _AGGS:
        raise SloParseError(
            f"line {line_no}: unknown aggregation {agg!r} "
            f"(use one of {', '.join(_AGGS)})")
    _check_op(line_no, op)
    if not (metric == "resolve_ms"
            or (metric.startswith("stage.") and metric.endswith("_ms"))):
        raise SloParseError(
            f"line {line_no}: unknown metric {metric!r} (use "
            f"'resolve_ms' or 'stage.<name>_ms')")
    return SloRule(scope=scope, agg=agg, metric=metric, op=op,
                   threshold=_parse_threshold(line_no, threshold_text),
                   source=line)


def _parse_window(line_no: int, raw: str, line: str,
                  parts: List[str]) -> WindowRule:
    if len(parts) != 6:
        raise SloParseError(
            f"line {line_no}: expected '<scope> window <agg> <metric> "
            f"<op> <threshold>', got {raw!r}")
    scope, _, agg, metric, op, threshold_text = parts
    if agg not in _AGGS or agg == "min":
        raise SloParseError(
            f"line {line_no}: unknown window aggregation {agg!r} (use "
            f"one of {', '.join(a for a in _AGGS if a != 'min')}; "
            f"windows carry histograms, so 'min' cannot be answered)")
    _check_op(line_no, op)
    if metric not in _SERIES_METRICS and not metric.startswith("repro_"):
        raise SloParseError(
            f"line {line_no}: unknown window metric {metric!r} (use "
            f"{', '.join(sorted(_SERIES_METRICS))} or a raw repro_* "
            f"series name)")
    return WindowRule(scope=scope, agg=agg, metric=metric, op=op,
                      threshold=_parse_threshold(line_no, threshold_text),
                      source=line)


def _parse_burnrate(line_no: int, raw: str, line: str,
                    parts: List[str]) -> BurnRateRule:
    usage = ("'<scope> burnrate <bad>/<total> <fires|quiet> budget=F "
             "factor=X fast=N slow=M [clear=K]'")
    if len(parts) < 4:
        raise SloParseError(
            f"line {line_no}: expected {usage}, got {raw!r}")
    scope, _, ratio, mode = parts[:4]
    if ratio.count("/") != 1:
        raise SloParseError(
            f"line {line_no}: burn-rate ratio must be '<bad>/<total>', "
            f"got {ratio!r}")
    bad, total = ratio.split("/")
    if not bad or not total:
        raise SloParseError(
            f"line {line_no}: burn-rate ratio must be '<bad>/<total>', "
            f"got {ratio!r}")
    if mode not in ("fires", "quiet"):
        raise SloParseError(
            f"line {line_no}: burn-rate mode must be 'fires' or "
            f"'quiet', got {mode!r}")
    options: Dict[str, str] = {}
    for token in parts[4:]:
        if "=" not in token:
            raise SloParseError(
                f"line {line_no}: expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        if key not in ("budget", "factor", "fast", "slow", "clear"):
            raise SloParseError(
                f"line {line_no}: unknown burn-rate option {key!r}")
        if key in options:
            raise SloParseError(
                f"line {line_no}: duplicate burn-rate option {key!r}")
        options[key] = value
    for required in ("budget", "factor", "fast", "slow"):
        if required not in options:
            raise SloParseError(
                f"line {line_no}: burn-rate rule is missing "
                f"'{required}=' ({usage})")
    try:
        budget = float(options["budget"])
        factor = float(options["factor"])
        fast = int(options["fast"])
        slow = int(options["slow"])
        clear = int(options.get("clear", "0"))
    except ValueError as error:
        raise SloParseError(
            f"line {line_no}: bad burn-rate option value") from error
    if not 0.0 < budget <= 1.0:
        raise SloParseError(
            f"line {line_no}: budget must be in (0, 1], got {budget:g}")
    if factor <= 0.0:
        raise SloParseError(
            f"line {line_no}: factor must be > 0, got {factor:g}")
    if fast < 1 or slow < fast:
        raise SloParseError(
            f"line {line_no}: need 1 <= fast <= slow, got "
            f"fast={fast} slow={slow}")
    if clear < 0:
        raise SloParseError(
            f"line {line_no}: clear must be >= 0, got {clear}")
    return BurnRateRule(scope=scope, bad=bad, total=total, mode=mode,
                        budget=budget, factor=factor, fast=fast,
                        slow=slow, clear=clear, source=line)


def _check_op(line_no: int, op: str) -> None:
    if op not in _OPS:
        raise SloParseError(
            f"line {line_no}: unknown operator {op!r} "
            f"(use one of {', '.join(_OPS)})")


def _parse_threshold(line_no: int, text: str) -> float:
    try:
        return float(text)
    except ValueError as error:
        raise SloParseError(
            f"line {line_no}: bad threshold {text!r}") from error


def _aggregate(samples: List[float], agg: str) -> float:
    if agg == "mean":
        return reduce(add, samples, 0) / len(samples)
    return percentile(samples, _PERCENTS[agg])


def _budget_samples(rule: SloRule,
                    documents: List[Dict[str, Any]]) -> List[float]:
    """Raw samples matching the rule across all budget documents."""
    samples: List[float] = []
    for document in documents:
        if document.get("format") != "repro-budget-v1":
            continue
        for row in document.get("rows", []):
            if rule.scope != "*" and row.get("deployment") != rule.scope:
                continue
            if rule.metric == "resolve_ms":
                samples.extend(row.get("resolve_ms", {}).get("samples", []))
            else:
                stage = rule.metric[len("stage."):-len("_ms")]
                entry = row.get("stages", {}).get(stage)
                if entry is not None:
                    samples.extend(entry.get("samples", []))
    return samples


def _estimate(cell: BucketCell, agg: str) -> float:
    """The rule's aggregate as a bucketed cell answers it (no ``min``:
    window rules reject it at parse time)."""
    if agg == "mean":
        return cell.total / cell.count
    return cell.quantile(_PERCENTS[agg])


def _timeseries_docs(documents: List[Dict[str, Any]]
                     ) -> List[Dict[str, Any]]:
    """Every ``repro-timeseries-v1`` document the artifacts embed."""
    found: List[Dict[str, Any]] = []
    for document in documents:
        embedded = document.get("timeseries")
        if (isinstance(embedded, dict)
                and embedded.get("format") == "repro-timeseries-v1"):
            found.append(embedded)
    return found


def _scope_matches(scope: str, labels: Dict[str, Any]) -> bool:
    return scope == "*" or str(labels.get("deployment", "")) == scope


def _merged_series(documents: List[Dict[str, Any]], name: str,
                   kind: str, scope: str) -> Dict[int, Any]:
    """Window-wise merge of every matching series across documents.

    Counter windows merge to a float, latency windows to a
    :class:`~repro.telemetry.metrics.BucketCell`.
    """
    merged: Dict[int, Any] = {}
    for document in _timeseries_docs(documents):
        for series in document.get("series", []):
            if series.get("name") != name or series.get("kind") != kind:
                continue
            if not _scope_matches(scope, series.get("labels", {})):
                continue
            for window in series.get("windows", []):
                index = int(window["index"])
                if kind == "counter":
                    merged[index] = (merged.get(index, 0.0)
                                     + float(window.get("value", 0.0)))
                    continue
                cell = merged.get(index)
                if cell is None:
                    cell = merged[index] = BucketCell()
                cell.merge(BucketCell.from_sparse(
                    ((float(bound), int(count))
                     for bound, count in window.get("buckets", [])),
                    int(window.get("count", 0)),
                    float(window.get("sum", 0.0))))
    return merged


def _check_window_rule(rule: WindowRule,
                       documents: List[Dict[str, Any]]) -> SloCheck:
    name = _SERIES_METRICS.get(rule.metric, rule.metric)
    merged = _merged_series(documents, name, "latency", rule.scope)
    if not merged:
        return SloCheck(rule=rule, value=None, ok=False,
                        detail="no matching data")
    first, last = min(merged), max(merged)
    compare = _OPS[rule.op]
    #: For upper-bound rules the worst window is the slowest; for
    #: reproduction (lower-bound) rules it is the fastest.
    bigger_is_worse = rule.op in ("<", "<=")
    worst: Optional[float] = None
    worst_window: Optional[int] = None
    failures: List[str] = []
    for index in range(first, last + 1):
        cell = merged.get(index)
        if cell is None or not cell.count:
            # Strict per-window missing-data semantics: a covered-range
            # window with zero samples is an outage, not a free pass.
            failures.append(f"window {index} has no samples")
            continue
        value = _estimate(cell, rule.agg)
        if (worst is None
                or (value > worst if bigger_is_worse else value < worst)):
            worst, worst_window = value, index
        if not compare(value, rule.threshold):
            failures.append(f"window {index}: {value:.3f}")
    windows = last - first + 1
    if failures:
        shown = "; ".join(failures[:3])
        if len(failures) > 3:
            shown += f"; +{len(failures) - 3} more"
        return SloCheck(rule=rule, value=worst, ok=False,
                        detail=f"{windows} windows; {shown}")
    return SloCheck(rule=rule, value=worst, ok=True,
                    detail=(f"{windows} windows, worst at "
                            f"window {worst_window}"))


def _resolve_counter(token: str, documents: List[Dict[str, Any]],
                     scope: str) -> Tuple[str, Dict[int, float]]:
    """Resolve a burn-rate counter name and merge its windows.

    Bare names try the control-plane family first, then the workload
    family; the first family with matching data wins.  Fully-qualified
    ``repro_*`` names skip resolution.
    """
    candidates = ([token] if token.startswith("repro_")
                  else [family + token for family in _COUNTER_FAMILIES])
    for name in candidates:
        merged = _merged_series(documents, name, "counter", scope)
        if merged:
            return name, merged
    return candidates[0], {}


def _check_burnrate_rule(rule: BurnRateRule,
                         documents: List[Dict[str, Any]]) -> SloCheck:
    _, total_wins = _resolve_counter(rule.total, documents, rule.scope)
    if not total_wins:
        return SloCheck(rule=rule, value=None, ok=False,
                        detail="no matching data")
    _, bad_wins = _resolve_counter(rule.bad, documents, rule.scope)
    first, last = min(total_wins), max(total_wins)
    if bad_wins:
        first, last = min(first, min(bad_wins)), max(last, max(bad_wins))

    def trailing(window: int, span: int,
                 cells: Dict[int, float]) -> float:
        return reduce(add, [cells[index] for index
                            in range(window - span + 1, window + 1)
                            if index in cells], 0)

    fired: List[int] = []
    peak = 0.0
    for index in range(first, last + 1):
        burns: List[float] = []
        for span in (rule.fast, rule.slow):
            total = trailing(index, span, total_wins)
            bad = trailing(index, span, bad_wins)
            burns.append((bad / total) / rule.budget if total else 0.0)
        peak = max(peak, burns[0])
        if all(burn >= rule.factor for burn in burns):
            fired.append(index)

    windows = last - first + 1
    if rule.mode == "quiet":
        if fired:
            return SloCheck(
                rule=rule, value=peak, ok=False,
                detail=(f"alert fired in {len(fired)}/{windows} windows "
                        f"(first at window {fired[0]})"))
        return SloCheck(rule=rule, value=peak, ok=True,
                        detail=f"quiet across {windows} windows")
    # mode == "fires": the alert must trigger, and with clear=K the
    # last K windows must be quiet again (the burn recovered).
    if not fired:
        return SloCheck(rule=rule, value=peak, ok=False,
                        detail=(f"alert never fired across {windows} "
                                f"windows (peak fast burn {peak:.2f}x)"))
    detail = (f"fired in {len(fired)}/{windows} windows "
              f"(window {fired[0]}..{fired[-1]}, "
              f"peak fast burn {peak:.2f}x)")
    if rule.clear:
        dirty = [index for index in fired if index > last - rule.clear]
        if dirty:
            return SloCheck(
                rule=rule, value=peak, ok=False,
                detail=(detail + f"; still firing at window {dirty[-1]} "
                        f"inside the final {rule.clear}-window "
                        f"clear period"))
        detail += f"; clear for the final {rule.clear} windows"
    return SloCheck(rule=rule, value=peak, ok=True, detail=detail)


def _check_point_rule(rule: SloRule,
                      documents: List[Dict[str, Any]]) -> SloCheck:
    samples = _budget_samples(rule, documents)
    if not samples:
        return SloCheck(rule=rule, value=None, ok=False,
                        detail="no matching data")
    value = _aggregate(samples, rule.agg)
    return SloCheck(rule=rule, value=value, ok=_OPS[rule.op](value,
                                                            rule.threshold),
                    detail=f"{len(samples)} samples")


def evaluate_slo(rules: Iterable[AnySloRule],
                 documents: List[Dict[str, Any]]) -> SloVerdict:
    """Check every rule against the loaded artifact documents."""
    checks: List[SloCheck] = []
    for rule in rules:
        if isinstance(rule, WindowRule):
            checks.append(_check_window_rule(rule, documents))
        elif isinstance(rule, BurnRateRule):
            checks.append(_check_burnrate_rule(rule, documents))
        else:
            checks.append(_check_point_rule(rule, documents))
    return SloVerdict(checks=checks)
