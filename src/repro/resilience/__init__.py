"""Resilient campaign execution: isolation, retries, budgets, journals.

Long sweep campaigns are the product surface of this reproduction; this
package keeps them alive.  :class:`~repro.resilience.executor.ResilientExecutor`
runs each cell in isolation with retry/backoff and budget enforcement,
:class:`~repro.resilience.journal.CheckpointJournal` persists completed
cells so interrupted sweeps resume where they stopped, and
:mod:`~repro.resilience.faults` injects deterministic faults so tests can
prove every failure mode is detected rather than silently absorbed.
"""
