"""What a process pays before it simulates anything: imports and memory.

``src/repro`` has no runtime dependency (the analyzer's rule ARCH003,
``tests/static/layering.py``, says so statically); these run the claim in a fresh interpreter, where a lazy
or transitive third-party import would also show, and put a ceiling on
the resident memory of a population run, and on what sampled telemetry
adds to it, so neither an import, a model structure nor a per-query
telemetry buffer can add MiB unseen (ROADMAP item 6).

They also pin what one artifact costs to import: the experiment registry
imports the one artifact asked for, and a package ``__init__`` imports
no sibling module, so a fresh ``builtin_registry().get(name)`` compiles
only what that artifact runs (docs/PERFORMANCE.md, "Start-up").  Every
check here runs in a child interpreter that sees only ``src``, so the
file needs nothing but pytest (CI runs it with ``--noconftest`` on a
bare interpreter).
"""

import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_child(code):
    """Run ``code`` in a fresh interpreter that sees only ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_cli_loads_only_the_stdlib_and_repro():
    # Site start-up may import what it likes; count what the CLI adds.
    loaded = run_child(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro.cli\n"
        "print(*sorted({name.split('.')[0]\n"
        "               for name in set(sys.modules) - before}))\n").split()
    assert "repro" in loaded
    foreign = [name for name in loaded
               if name != "repro" and name not in sys.stdlib_module_names]
    assert foreign == []


#: Prints the interpreter's own peak resident set.  VmHWM, not
#: ``ru_maxrss``: Linux folds the forking process's peak into a child's
#: ``ru_maxrss`` across exec, so under pytest both readings below would be
#: pytest's own size; VmHWM belongs to the new address space alone.
PEAK_MIB = ("for line in open('/proc/self/status'):\n"
            "    if line.startswith('VmHWM:'):\n"
            "        print(int(line.split()[1]) / 1024)\n")

#: MiB a 10^5-query population run may peak above a bare interpreter.
#: Measured 16 at the commit that dropped networkx, 31 at its parent;
#: 9.4 on 3.11.7, 12.3 on 3.12.1 and 12.0 on 3.13.0 once the kernel drew
#: in-line (11.5 on 3.10.13).  Set close above those readings, so a
#: table that grew with the catalog would fail it.
POPULATION_RSS_CEILING_MIB = 14.0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from Linux procfs")
def test_population_run_stays_under_its_rss_ceiling():
    bare = float(run_child(PEAK_MIB))
    peak = float(run_child(
        "from repro.experiments.population import EXPERIMENT\n"
        "EXPERIMENT.run_serial(target_queries=100_000,\n"
        "                      deployment='mec-ldns-mec-cdns')\n" + PEAK_MIB))
    assert peak - bare <= POPULATION_RSS_CEILING_MIB, (bare, peak)


#: The same 10^5-query run through the executor, the CLI's path: each
#: trial captures into its own facade, merged into the session after.
EXECUTOR_RUN = (
    "from repro.experiments.population import EXPERIMENT\n"
    "from repro.runtime.executor import TrialExecutor\n"
    "run = TrialExecutor().run(EXPERIMENT, {\n"
    "    'target_queries': 100_000, 'deployment': 'mec-ldns-mec-cdns'})\n"
    "assert not run.failures\n")

#: The sampled capture of CI's population smoke and the bench's
#: ``population_sampled``.
SAMPLED_TELEMETRY = (
    "from repro import telemetry\n"
    "telemetry.set_default(telemetry.Telemetry(\n"
    "    trace_sample=0.05, window_ms=60000.0, tail_capacity=32))\n")

#: MiB sampled telemetry may add to that run's peak.  Measured 2.5 on
#: 3.11.7, 3.12.1 and 3.13.0 once the observer binned latencies as they
#: arrived and the merge adopted trial spans; 6.7-6.9 when it kept every
#: value until its district closed and copied every span.
SAMPLED_TELEMETRY_CEILING_MIB = 4.0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from Linux procfs")
def test_sampled_telemetry_stays_under_its_rss_ceiling():
    plain = float(run_child(EXECUTOR_RUN + PEAK_MIB))
    sampled = float(run_child(SAMPLED_TELEMETRY + EXECUTOR_RUN + PEAK_MIB))
    assert sampled - plain <= SAMPLED_TELEMETRY_CEILING_MIB, (plain, sampled)


#: Artifact name -> ``repro.*`` modules a fresh interpreter holds after
#: ``builtin_registry().get(name)``.  Taken at the change that made the
#: registry lazy and emptied the package ``__init__``s; before it, every
#: artifact loaded all 106.  Lower a ceiling when an artifact sheds
#: imports; raising one needs a reason in CHANGES.md.
MODULE_CEILINGS = {
    "table1": 22, "table2": 16, "figure2": 52, "figure3": 50,
    "figure5": 61, "ecs": 61, "mislocalization": 50, "disaggregation": 32,
    "envelope-sweep": 61, "overload": 48, "access-latency": 62,
    "capacity": 41, "churn": 73, "population": 70,
}

#: Packages of the packet-level MEC-CDN stack, which ``capacity`` (two
#: hosts, one authoritative server) has no use for.
STACK_PACKAGES = ("repro.core", "repro.cdn", "repro.mec", "repro.mobile",
                  "repro.control", "repro.workload")


def child_json(code):
    """Run ``code`` after importing the registry; it prints one JSON value."""
    return json.loads(run_child(
        "import json, sys\n"
        "from repro.experiments.registry import builtin_registry\n"
        + code))


@functools.lru_cache(maxsize=None)
def loaded_after_get(name):
    """Every module a fresh ``builtin_registry().get(name)`` leaves loaded."""
    return frozenset(child_json(f"builtin_registry().get({name!r})\n"
                                "print(json.dumps(sorted(sys.modules)))\n"))


def repro_modules(loaded):
    return sorted(name for name in loaded
                  if name == "repro" or name.startswith("repro."))


def test_the_ceilings_cover_every_artifact():
    assert list(MODULE_CEILINGS) == child_json(
        "print(json.dumps(builtin_registry().names()))\n")


def test_registry_names_import_no_artifact():
    loaded = child_json("builtin_registry().names()\n"
                        "print(json.dumps(sorted(sys.modules)))\n")
    assert [name for name in loaded
            if name.startswith("repro.experiments.")
            and name != "repro.experiments.registry"] == []


def test_capacity_loads_none_of_the_mec_cdn_stack():
    stack = [name for name in repro_modules(loaded_after_get("capacity"))
             if name.startswith(STACK_PACKAGES)]
    assert stack == []


@pytest.mark.parametrize("name", ["figure5", "churn"])
def test_an_artifact_loads_no_other_artifact_and_no_workload(name):
    loaded = repro_modules(loaded_after_get(name))
    own = "repro.experiments." + name
    others = [module for module in loaded
              if module.startswith("repro.experiments.")
              and module not in (own, "repro.experiments.registry",
                                 "repro.experiments.report")]
    assert others == []
    assert [module for module in loaded
            if module.startswith("repro.workload")] == []


@pytest.mark.parametrize("name", list(MODULE_CEILINGS))
def test_an_artifact_imports_no_exporter_and_no_process_pool(name):
    unneeded = {"repro.telemetry.exporters", "multiprocessing",
                "concurrent.futures"}
    assert sorted(unneeded & loaded_after_get(name)) == []


@pytest.mark.parametrize("name", list(MODULE_CEILINGS))
def test_an_artifact_stays_under_its_module_ceiling(name):
    count = len(repro_modules(loaded_after_get(name)))
    assert count <= MODULE_CEILINGS[name], count
