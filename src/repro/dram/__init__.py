"""DRAM substrate: geometry, timing, banks, scheduling, power.

Two simulation tiers share this package:

* :mod:`repro.dram.memory_system` -- a detailed event-driven model with
  per-bank row-buffer state, FR-FCFS scheduling, and the open-adaptive
  page policy.  Exact, used by tests and examples.
* :mod:`repro.dram.fast_model` -- a vectorized (numpy) single-pass trace
  analyzer producing the same aggregate statistics (activations, row
  buffer hits, per-row activation histograms) for multi-million access
  traces.  Used by the experiment harness.
"""
