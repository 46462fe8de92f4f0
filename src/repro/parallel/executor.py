"""Process-pool campaign execution engine.

A campaign grid is thousands of independent ``(trace, mapping, scheme,
t_rh)`` cells; this module fans them out over a ``multiprocessing``
worker pool:

* the parent partitions the grid into :class:`CellTask` descriptors --
  names and numbers only, a few hundred bytes each; no trace or
  simulator ever crosses the process boundary;
* each worker rebuilds the campaign once (from its picklable
  constructor payload), then reuses a per-process simulator, trace
  cache, and :class:`~repro.resilience.executor.ResilientExecutor`
  across every cell it is handed -- so each cell still runs inside the
  same fault boundary as a serial sweep;
* with a ``stats_cache_dir``, workers share one disk-persistent,
  content-keyed window-statistics cache, so two workers given the same
  (trace, mapping) analysis reuse rather than recompute it;
* completions stream back to the parent in *completion order*
  (:meth:`ParallelExecutor.stream`), which journals them immediately --
  a killed run resumes from its checkpoint exactly like a serial one --
  while :meth:`ParallelExecutor.run` reassembles the deterministic
  grid ordering for the returned records.

A worker process dying hard (OOM kill, segfault) surfaces as
:class:`concurrent.futures.process.BrokenProcessPool` in the parent
after the already-completed cells were journaled; ``resume_from=`` the
same journal finishes the grid.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Union

from repro.obs.metrics import diff_snapshots
from repro.obs.profile import PROFILER
from repro.obs.runtime import (
    METRICS,
    TRACER,
    apply_config,
    export_config,
    heartbeat,
    telemetry_dir,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.campaign import Campaign, MappingSpec


@dataclass(frozen=True)
class CellTask:
    """One grid cell, in shipping form (picklable, tiny).

    ``trace`` is the submitting side's trace context as a compact
    ``"trace_id:span_id"`` token (:meth:`Tracer.current_context`); a
    worker attaches it before executing, so the cell's spans join the
    submitter's trace no matter which process runs it.
    Empty when telemetry is off or the submitter held no span.
    """

    index: int  #: Position in the campaign's deterministic cell order.
    key: str  #: Canonical journal/retry key.
    workload: str
    spec: "MappingSpec"
    scheme: str
    t_rh: int
    trace: str = ""  #: Trace context token ("" = none).


@dataclass(frozen=True)
class CellCompletion:
    """One finished cell, streamed back in completion order.

    ``duration_s``/``worker_id`` feed the checkpoint journal's timing
    metadata; ``telemetry`` carries the cell's metric *delta* snapshot
    back to the parent (None when telemetry is disabled).  All three
    default to their empty values so existing constructors keep working.
    """

    index: int
    key: str
    record: dict
    duration_s: float = 0.0
    worker_id: str = ""
    telemetry: Optional[dict] = None


# ---------------------------------------------------------------------------
# Worker-side state.  One campaign + simulator + fault boundary per
# process, built once by the pool initializer and reused across cells;
# module-level so both fork and spawn start methods find it.
# ---------------------------------------------------------------------------
_WORKER: dict = {}


def _init_worker(
    payload: dict,
    stats_cache_dir: Optional[str],
    obs_config: Optional[dict] = None,
) -> None:
    """Rebuild the campaign, its simulator, and a fault boundary."""
    from repro.experiments.campaign import Campaign
    from repro.experiments.common import get_simulator
    from repro.resilience.executor import ResilientExecutor

    if obs_config is not None:
        # Forked workers inherit the parent's registry contents; spawn
        # starts clean.  Both ship per-cell *deltas* back, so inherited
        # contents never double-count in the parent's merge.
        apply_config(obs_config)
    if PROFILER.enabled:
        # A forked worker inherits the flag but not the sampler thread.
        PROFILER.enable()
    campaign = Campaign(**payload)
    sim = get_simulator(campaign.config)
    if stats_cache_dir:
        sim.stats_cache.persist_to(stats_cache_dir)
    _WORKER.update(campaign=campaign, sim=sim, executor=ResilientExecutor())


def _run_task(task: CellTask) -> CellCompletion:
    """Run one cell through :meth:`Campaign.execute_cell`, the same
    per-cell code path a serial run takes."""
    telemetry = METRICS.enabled
    worker_id = f"p{os.getpid()}"
    if telemetry:
        heartbeat(worker_id)
    before = METRICS.snapshot() if telemetry else None
    started = time.perf_counter()
    # Adopt the submitter's trace context (a no-op for an empty token):
    # the cell's campaign.cell span and everything under it join the
    # submitting process's trace rather than rooting a local one.
    with TRACER.attach(task.trace):
        record = _WORKER["campaign"].execute_cell(
            _WORKER["sim"],
            _WORKER["executor"],
            task.workload,
            task.spec,
            task.scheme,
            task.t_rh,
        )
    duration = time.perf_counter() - started
    delta = diff_snapshots(METRICS.snapshot(), before) if telemetry else None
    if PROFILER.enabled and telemetry_dir() is not None:
        # Workers exit without running atexit hooks; flush per cell.
        PROFILER.write(telemetry_dir())
    return CellCompletion(
        index=task.index,
        key=task.key,
        record=record,
        duration_s=duration,
        worker_id=worker_id,
        telemetry=delta,
    )


class ParallelExecutor:
    """Dispatches campaign cells to a process pool.

    Args:
        workers: Pool size (capped at the number of pending cells).
        stats_cache_dir: Directory for the shared disk-persistent
            window-statistics cache (None = per-process memory only).
        mp_context: Multiprocessing start method ('fork', 'spawn',
            'forkserver'); None uses the platform default.
    """

    def __init__(
        self,
        workers: int,
        *,
        stats_cache_dir: Optional[Union[str, Path]] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.stats_cache_dir = str(stats_cache_dir) if stats_cache_dir else None
        self.mp_context = mp_context

    # ------------------------------------------------------------------
    def tasks(self, campaign: "Campaign", *, skip: Iterable[str] = ()) -> List[CellTask]:
        """The grid as dispatchable tasks, minus already-completed keys."""
        skip = set(skip)
        tasks: List[CellTask] = []
        for index, (workload, spec, scheme, t_rh) in enumerate(campaign.cells()):
            key = campaign.cell_key(workload, spec, scheme, t_rh)
            if key in skip:
                continue
            tasks.append(CellTask(index, key, workload, spec, scheme, t_rh))
        return tasks

    def stream(
        self, campaign: "Campaign", *, skip: Iterable[str] = ()
    ) -> Iterator[CellCompletion]:
        """Yield cell completions as workers finish them (unordered).

        The caller owns ordering and journaling; :meth:`run` wraps this
        with both.  Raises ``BrokenProcessPool`` if a worker dies hard --
        after every completion received so far has been yielded.
        """
        pending = self.tasks(campaign, skip=skip)
        if not pending:
            return
        telemetry = METRICS.enabled
        if telemetry:
            # Stamp each task with the caller's trace context so worker
            # cell spans attach under the span driving this stream.
            trace = TRACER.current_context()
            if trace:
                pending = [replace(task, trace=trace) for task in pending]
        context = (
            multiprocessing.get_context(self.mp_context) if self.mp_context else None
        )
        n_workers = min(self.workers, len(pending))
        if telemetry:
            METRICS.set_gauge("parallel.workers", n_workers)
            METRICS.set_gauge("parallel.queue_depth", len(pending))
        with ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(
                campaign.parallel_payload(),
                self.stats_cache_dir,
                export_config() if telemetry else None,
            ),
        ) as pool:
            futures = [pool.submit(_run_task, task) for task in pending]
            done = 0
            for future in as_completed(futures):
                completion = future.result()
                if telemetry:
                    done += 1
                    if completion.telemetry:
                        METRICS.merge(completion.telemetry)
                    METRICS.inc("parallel.completions")
                    METRICS.set_gauge("parallel.queue_depth", len(pending) - done)
                yield completion

    def run(
        self,
        campaign: "Campaign",
        *,
        journal=None,
        resume_from=None,
    ) -> List[dict]:
        """Execute the grid; returns records in deterministic cell order.

        Journal semantics match :meth:`Campaign.run`: completions are
        checkpointed by the parent as they arrive (in completion order;
        resume keys on cells, not order), and ``resume_from`` replays
        finished cells without re-dispatching them.
        """
        checkpoint, completed = campaign._checkpoint(journal, resume_from)
        cells = list(campaign.cells())
        records: List[Optional[dict]] = [None] * len(cells)
        for index, cell in enumerate(cells):
            key = campaign.cell_key(*cell)
            if key in completed:
                records[index] = completed[key]
        for completion in self.stream(campaign, skip=completed):
            records[completion.index] = completion.record
            campaign.cells_executed += 1
            if checkpoint is not None:
                checkpoint.append(
                    completion.key,
                    completion.record,
                    duration_s=completion.duration_s or None,
                    worker_id=completion.worker_id or None,
                )
        return records


__all__ = ["CellTask", "CellCompletion", "ParallelExecutor"]
