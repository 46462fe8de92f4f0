"""Experiment harness: one runner per table/figure of the paper.

Each experiment module registers a runner with
:mod:`repro.experiments.registry`, which imports the modules on the
first lookup; ``python -m repro.experiments run <id>`` (or the
``rubix-experiment`` console script) executes it and prints the same
rows/series the paper reports.  See DESIGN.md for the experiment index.
"""
