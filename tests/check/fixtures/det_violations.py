"""Fixture: one known violation per DET rule.

This file is *parsed* by the determinism analyzer in tests — it is never
imported or executed, and it must keep exactly the violations the tests
assert (one per rule, two of DET002).
"""

import os
import random
import time
import uuid


def wall_clock():
    return time.time()  # DET001


def entropy_sources():
    return os.urandom(8) + uuid.uuid4().bytes  # DET002 twice


def module_level_draw():
    return random.random()  # DET003


def unseeded_stream():
    return random.Random()  # DET004


def hidden_default(rng=None):
    rng = rng or random.Random(0)  # DET005
    return rng.random()


def set_order_escape(items):
    return list(set(items))  # DET006

