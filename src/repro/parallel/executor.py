"""Process-pool campaign execution engine.

A campaign grid is thousands of independent ``(trace, mapping, scheme,
t_rh)`` cells; this module fans them out over a ``multiprocessing``
worker pool:

* the parent partitions the grid into :class:`CellTask` descriptors --
  names and numbers only, a few hundred bytes each; no trace or
  simulator ever crosses the process boundary;
* each worker rebuilds the campaign once (from its picklable
  constructor payload), then reuses a per-process simulator and trace
  cache across every cell it is handed; each cell runs through
  :meth:`~repro.experiments.campaign.Campaign.execute_cell`, so it is
  tried once inside the same fault boundary as in a serial sweep;
* with a ``stats_cache_dir``, workers share one disk-persistent,
  content-keyed window-statistics cache, so two workers given the same
  (trace, mapping) analysis reuse rather than recompute it;
* with telemetry on, the pool initializer applies the parent's
  :func:`~repro.obs.runtime.export_config` (switch, directory, run id),
  so worker spans land in ``events-<run>-<pid>.jsonl`` files of the
  parent's run, and each cell ships its metric delta back for the
  parent to merge;
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
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Union

from repro.obs.metrics import diff_snapshots
from repro.obs.runtime import METRICS, TRACER, apply_config, export_config

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.campaign import Campaign, MappingSpec


@dataclass(frozen=True)
class CellTask:
    """One grid cell, in shipping form (picklable, tiny)."""

    index: int  #: Position in the campaign's deterministic cell order.
    key: str  #: Canonical journal key.
    workload: str
    spec: "MappingSpec"
    scheme: str
    t_rh: int


@dataclass(frozen=True)
class CellCompletion:
    """One finished cell, streamed back in completion order.

    ``duration_s``/``worker_id`` feed the checkpoint journal's timing
    metadata; ``telemetry`` carries the cell's metric *delta* snapshot
    back to the parent (None when telemetry is disabled).
    """

    index: int
    key: str
    record: dict
    duration_s: float
    worker_id: str
    telemetry: Optional[dict]


# ---------------------------------------------------------------------------
# Worker-side state.  One campaign + simulator per process, built once by the pool initializer and reused across cells;
# module-level so both fork and spawn start methods find it.
# ---------------------------------------------------------------------------
_WORKER: dict = {}


def _init_worker(
    payload: dict,
    stats_cache_dir: Optional[str],
    obs_config: Optional[dict] = None,
) -> None:
    """Rebuild the campaign and its simulator."""
    from repro.experiments.campaign import Campaign
    from repro.experiments.common import get_simulator

    # A forked worker inherits the open span frames of the thread that
    # forked it; drop them so each cell roots its own trace at
    # campaign.cell, as in a spawned worker.
    TRACER.clear()
    if obs_config is not None:
        # Forked workers inherit the parent's registry contents; spawn
        # starts clean.  Both ship per-cell *deltas* back, so inherited
        # contents never double-count in the parent's merge.
        apply_config(obs_config)
    campaign = Campaign(**payload)
    sim = get_simulator(campaign.config)
    if stats_cache_dir:
        sim.stats_cache.persist_to(stats_cache_dir)
    _WORKER.update(campaign=campaign, sim=sim)


def _run_task(task: CellTask) -> CellCompletion:
    """Run one cell through :meth:`Campaign.execute_cell`, the same
    per-cell code path a serial run takes."""
    telemetry = METRICS.enabled
    worker_id = f"p{os.getpid()}"
    before = METRICS.snapshot() if telemetry else None
    started = time.perf_counter()
    record = _WORKER["campaign"].execute_cell(
        _WORKER["sim"],
        task.workload,
        task.spec,
        task.scheme,
        task.t_rh,
    )
    duration = time.perf_counter() - started
    delta = diff_snapshots(METRICS.snapshot(), before) if telemetry else None
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
        context = (
            multiprocessing.get_context(self.mp_context) if self.mp_context else None
        )
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(pending)),
            mp_context=context,
            initializer=_init_worker,
            initargs=(
                campaign.parallel_payload(),
                self.stats_cache_dir,
                export_config() if telemetry else None,
            ),
        ) as pool:
            futures = [pool.submit(_run_task, task) for task in pending]
            for future in as_completed(futures):
                completion = future.result()
                if telemetry:
                    METRICS.merge(completion.telemetry)
                    METRICS.inc("parallel.completions")
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
                    duration_s=completion.duration_s,
                    worker_id=completion.worker_id,
                )
        return records


__all__ = ["CellTask", "CellCompletion", "ParallelExecutor"]
