"""Deterministic fault injection for the simulated testbed.

Build a :class:`FaultPlan` (crashes, brownouts, burst loss, partitions),
then :func:`inject` it into a live network; the returned
:class:`FaultInjector` records the fired timeline for reproducibility
checks.  See :mod:`repro.faults.plan` for the event model and
:mod:`repro.faults.burstloss` for the Gilbert–Elliott loss chain.
"""
