"""Process-pool source of campaign cell completions.

A campaign grid is thousands of independent ``(trace, mapping, scheme,
t_rh)`` cells; :func:`run_on_pool` fans the pending ones out over a
``multiprocessing`` worker pool for ``Campaign.run(workers=N)``:

* each task is a cell's grid index and coordinates -- names and numbers
  only, a few hundred bytes; no trace or simulator ever crosses the
  process boundary;
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
* completions come back in *completion order*, in the shape the
  in-process source yields; ``Campaign.run``'s one loop puts them in
  grid order and journals each as it arrives.

A worker process dying hard (OOM kill, segfault) surfaces as
:class:`concurrent.futures.process.BrokenProcessPool` in the parent
once every completion received before the death is journaled;
``resume_from=`` the same journal finishes the grid.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Tuple, Union

from repro.obs.metrics import diff_snapshots
from repro.obs.runtime import METRICS, TRACER, apply_config, export_config

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.experiments.campaign import Campaign


# Worker-side state: one campaign + simulator per process, built once by
# the pool initializer; module-level so fork and spawn workers find it.
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


def _run_task(index: int, cell: tuple) -> tuple:
    """Run one cell through :meth:`Campaign.execute_cell`, the same
    per-cell code path an in-process run takes.

    Returns ``(index, record, duration_s, worker_id, delta)``; ``delta``
    is the cell's metric delta snapshot (None when telemetry is off).
    """
    telemetry = METRICS.enabled
    before = METRICS.snapshot() if telemetry else None
    started = time.perf_counter()
    record = _WORKER["campaign"].execute_cell(_WORKER["sim"], *cell)
    duration = time.perf_counter() - started
    delta = diff_snapshots(METRICS.snapshot(), before) if telemetry else None
    return index, record, duration, f"p{os.getpid()}", delta


def run_on_pool(
    campaign: "Campaign",
    pending: Sequence[Tuple[int, tuple]],
    workers: int,
    *,
    stats_cache_dir: Optional[Union[str, Path]] = None,
    mp_context: Optional[str] = None,
) -> Iterator[Tuple[int, dict, float, str]]:
    """Run ``pending`` ``(index, cell)`` pairs on a pool of ``workers``.

    Yields ``(index, record, duration_s, worker_id)`` as workers finish
    cells, after merging each cell's metric delta.  Raises
    ``BrokenProcessPool`` if a worker dies hard.
    """
    if not pending:
        return
    telemetry = METRICS.enabled
    context = multiprocessing.get_context(mp_context) if mp_context else None
    with ProcessPoolExecutor(
        max_workers=min(workers, len(pending)),
        mp_context=context,
        initializer=_init_worker,
        initargs=(
            campaign.parallel_payload(),
            str(stats_cache_dir) if stats_cache_dir else None,
            export_config() if telemetry else None,
        ),
    ) as pool:
        futures = [pool.submit(_run_task, index, cell) for index, cell in pending]
        for future in as_completed(futures):
            index, record, duration, worker_id, delta = future.result()
            if telemetry:
                METRICS.merge(delta)
                METRICS.inc("parallel.completions")
            yield index, record, duration, worker_id


__all__ = ["run_on_pool"]
