"""Count tripwire: the Python calls one lookup makes into ``repro`` code.

Beside ``test_decode_counts.py``: wall clock on a shared box spreads too
widely to hold a packet-path speed-up, but a call count carries no
noise.  For each of the six Figure 5 deployments, a fresh interpreter
runs ``measure_deployment_queries(build_testbed(key, seed=0), 200)`` (a
warmup lookup and 200 measured ones) under the stdlib's cProfile and
counts the calls into code objects under ``src/repro``.  A fresh process
per census keeps process-wide memos (the wire and name memos, the
address parsers' caches) from carrying over between tests; the six
deployments run in one order in it, so each pin is exact.

cProfile counts every resumption of a generator as a call, and each
interpreter version inlines and counts a little differently, so the pins
are per Python minor version.  A change that moves a count re-pins it
here and quotes the move in CHANGES.md.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.deployments import DEPLOYMENT_KEYS

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Measured lookups per deployment, plus the one warmup lookup.
QUERIES = 200
LOOKUPS = QUERIES + 1

#: Run in the child: ``{deployment: calls into repro code}`` as JSON.
CENSUS = f"""
import cProfile, json, os, pstats
import repro
from repro.core.deployments import DEPLOYMENT_KEYS, build_testbed
from repro.measure.runner import measure_deployment_queries

package = os.path.dirname(repro.__file__) + os.sep
counts = {{}}
for key in DEPLOYMENT_KEYS:
    testbed = build_testbed(key, seed=0)
    profile = cProfile.Profile()
    profile.enable()
    measure_deployment_queries(testbed, {QUERIES})
    profile.disable()
    counts[key] = sum(
        calls for (filename, _, _), (_, calls, _, _, _)
        in pstats.Stats(profile).stats.items()
        if filename.startswith(package))
print(json.dumps(counts))
"""

#: Calls into repro code over the 201 lookups, per deployment, in
#: ``DEPLOYMENT_KEYS`` order.  Per lookup on 3.10 and 3.11: MEC/MEC
#: 237.3, MEC/LAN 245.3, MEC/WAN 251.3, LAN 113.2, Google and
#: Cloudflare 119.2.
_UP_TO_3_11 = (47688, 49298, 50509, 22746, 23957, 23957)

#: Python minor version -> deployment -> pinned calls.
PINNED = {
    (3, 10): dict(zip(DEPLOYMENT_KEYS, _UP_TO_3_11)),
    (3, 11): dict(zip(DEPLOYMENT_KEYS, _UP_TO_3_11)),
    (3, 12): dict(zip(DEPLOYMENT_KEYS,
                      (46885, 48495, 49706, 22144, 23355, 23355))),
    (3, 13): dict(zip(DEPLOYMENT_KEYS,
                      (46684, 48294, 49505, 22144, 23355, 23355))),
}


@pytest.fixture(scope="module")
def counts():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", CENSUS], env=env,
                          timeout=300, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("key", DEPLOYMENT_KEYS)
def test_calls_per_lookup_are_pinned(key, counts):
    pins = PINNED.get(sys.version_info[:2])
    if pins is None:
        pytest.skip(f"no call-count pin for Python {sys.version}")
    assert counts[key] == pins[key], (
        f"{key}: {counts[key] / LOOKUPS:.1f} calls per lookup, pinned "
        f"{pins[key] / LOOKUPS:.1f}")
