"""Workload generators.

The paper evaluates 18 SPEC CPU2017 rate workloads, 16 four-way mixes,
the STREAM suite, and the illustrative stream/stride/random kernels of
Figure 4.  SPEC traces are proprietary, so :mod:`repro.workloads.spec`
provides synthetic generators calibrated per workload to the published
first-order statistics (Table 2: MPKI, unique rows touched, hot-row
counts; Table 3: active lines per hot row) -- see DESIGN.md for the
substitution rationale.
"""
