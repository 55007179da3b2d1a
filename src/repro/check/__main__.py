"""``python -m repro.check`` — the static-analysis gate, standalone.

Needs nothing beyond the stdlib, so CI can run it without installing
the simulator's dependencies.
"""

from repro.check.runner import main

if __name__ == "__main__":
    raise SystemExit(main())
