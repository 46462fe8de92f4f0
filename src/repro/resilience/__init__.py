"""Resilient campaign execution: isolation, invariant checks, journals.

Long sweep campaigns are the product surface of this reproduction; this
package keeps them alive.  :class:`~repro.resilience.executor.ResilientExecutor`
tries each cell once in isolation, turning any failure into a tidy error
record, and :func:`~repro.resilience.executor.check_result_invariants`
flags or rejects impossible results;
:class:`~repro.resilience.journal.CheckpointJournal` persists completed
cells so interrupted sweeps resume where they stopped, and
:mod:`~repro.resilience.faults` injects deterministic faults into the
simulator a campaign drives, so tests, the CI crash/resume smoke and the
benchmark's own tests can prove every failure mode is detected rather
than silently absorbed.
"""
