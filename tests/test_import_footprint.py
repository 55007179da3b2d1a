"""What a process pays before it simulates anything: imports and memory.

``src/repro`` has no runtime dependency (``repro check`` rule ARCH003 says
so statically); these run the claim in a fresh interpreter, where a lazy
or transitive third-party import would also show, and put a ceiling on
the resident memory of a population run so neither an import nor a model
structure can add tens of MiB unseen (ROADMAP item 6).
"""

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


@pytest.mark.skipif(not hasattr(sys, "stdlib_module_names"),
                    reason="needs sys.stdlib_module_names (3.10+)")
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
#: Measured 16 at the commit that dropped networkx, 31 at its parent.
POPULATION_RSS_CEILING_MIB = 24.0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from Linux procfs")
def test_population_run_stays_under_its_rss_ceiling():
    bare = float(run_child(PEAK_MIB))
    peak = float(run_child(
        "from repro.experiments.population import EXPERIMENT\n"
        "EXPERIMENT.run_serial(target_queries=100_000,\n"
        "                      deployment='mec-ldns-mec-cdns')\n" + PEAK_MIB))
    assert peak - bare <= POPULATION_RSS_CEILING_MIB, (bare, peak)
