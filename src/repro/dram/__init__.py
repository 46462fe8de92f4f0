"""DRAM substrate: geometry, timing, banks, power and three simulation tiers.

Every tier takes the open-adaptive page policy as ``max_hits`` (16 per
Table 1, ``1`` closed page, ``None`` open page):

* :mod:`repro.dram.memory_system` -- a detailed event-driven model with
  per-bank row-buffer state, an FR-FCFS queue, the tREFW refresh window
  and mitigation hooks.  Exact; used by abl-tracker, Table 5's security
  replays, tests and examples.
* :mod:`repro.dram.fast_model` -- a vectorized (numpy) single-pass trace
  analyzer producing the same aggregate statistics (activations, row
  buffer hits, per-row activation histograms) for multi-million access
  traces.  Used by the experiment harness.
* :mod:`repro.dram.protocol` -- a command-level DDR4 engine that checks
  the other two against the full timing constraint set.
"""
