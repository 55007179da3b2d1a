"""Measurement harness: dig-style drivers and paper-style statistics.

* :mod:`repro.measure.stats` — summary statistics with the paper's
  8th-92nd percentile trimming (Figure 2's method).
* :mod:`repro.measure.runner` — repeated-query drivers that split each
  lookup into wireless vs. resolver time using a P-GW packet trace,
  reproducing the paper's dig + tcpdump methodology (Figure 5).
* :mod:`repro.measure.histogram` — streaming, mergeable log-binned
  latency aggregation for population-scale runs, where per-sample
  retention (the :class:`SummaryStats` way) would not fit in memory.
"""
