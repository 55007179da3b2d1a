"""Static analysis for the repo's determinism and architecture invariants.

The simulator's headline guarantee — byte-identical deterministic replay,
with telemetry on or off — is enforced at runtime by digest assertions,
but those only fire long after a hazard is merged.  This package checks
the invariants *statically*, at review time, with four analyzers:

* :mod:`repro.check.determinism` — an AST linter that forbids wall-clock
  and entropy sources, module-level ``random`` draws, unseeded or hidden
  default RNGs, and set-iteration order escaping into behaviour (``DET``
  rules);
* :mod:`repro.check.layering` — an import-contract checker that parses
  the dependency graph and enforces the architecture DAG: ``dnswire`` is
  stdlib-only, ``netsim`` never imports the protocol layers, and
  ``telemetry`` stays a leaf that observes without being imported *by*
  nothing / importing the scheduler (``ARCH`` rules);
* :mod:`repro.check.races` — a call-graph pass rooted at the executor's
  worker entry points: writes to module/class state and process-
  dependent values in worker-reachable code (``RACE`` rules);
* :mod:`repro.check.hotpath` — closures allocated per scheduled event
  in the hot modules (``HOT002``).

A pass, or a rule that needs its own machinery, stays only while it has
a finding on the real tree that was fixed or justified in place;
``docs/DETERMINISM.md`` records the evidence.

Run it as ``repro check`` (a subcommand of :mod:`repro.cli`); see
:mod:`repro.check.runner` for the entry point and ``docs/DETERMINISM.md``
for the rule catalogue.

The package imports nothing first-party outside itself, so the CI job
can run it without the simulator or its third-party dependencies.
"""

from repro.check.findings import Finding
from repro.check.runner import Report, run_check

__all__ = ["Finding", "Report", "run_check"]
