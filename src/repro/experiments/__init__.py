"""Paper artifact regeneration: one module per table/figure.

Each module declares one :class:`~repro.runtime.Experiment` as its
``EXPERIMENT``; :func:`repro.experiments.registry.builtin_registry`
lists all of them in publication order.  Run one with
``EXPERIMENT.run_serial(**overrides)`` or ``python -m repro.cli
experiment <name>``; the result's ``render()`` prints the
paper-comparable rows/series.
"""
