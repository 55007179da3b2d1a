"""Suite-wide pytest configuration.

Registers the hypothesis profile CI selects with
``--hypothesis-profile=ci``: derandomized, so a property that fails
there fails on the same example for whoever replays the commit.  A
plain local run keeps hypothesis's default (random) profile, which is
what finds new counterexamples.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
