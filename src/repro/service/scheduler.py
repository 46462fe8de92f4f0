"""Fault-tolerant campaign service: leased scheduling over worker processes.

:class:`CampaignService` promotes the campaign engine from "one process
pool on one box" to a long-lived scheduler that serves many concurrent
submissions:

* **submissions** (:meth:`CampaignService.submit`) decompose a
  :class:`Campaign` into content-keyed cell states; overlapping tenant
  grids *dedupe* -- a cell digest runs once, its record fans out to
  every waiting submission;
* **admission control** bounds the pending-cell queue; a submission
  that would overflow it fails fast with
  :class:`~repro.errors.ServiceSaturated`, never unbounded memory;
* **leases**: every dispatched cell carries a lease with a heartbeat
  deadline (:mod:`repro.service.lease`).  A worker that crashes, hangs,
  or is SIGKILLed misses its heartbeats; the lease expires and the cell
  is re-dispatched with deterministic backoff from the existing
  :class:`~repro.resilience.executor.RetryPolicy` -- under the
  *infrastructure* retry budget, separate from simulation retries;
* **exactly-once commitment**: completions are idempotent.  The first
  delivery of a cell's record is committed to the
  :class:`~repro.resilience.journal.CheckpointJournal` (stamped with
  lease/attempt/epoch metadata); duplicated or stale-lease deliveries
  are dropped, safe because every attempt of a cell computes the same
  deterministic record;
* **recovery**: dead workers are detected twice over (closed result
  channel -> immediate; silent hang -> lease expiry) and respawned up
  to a restart budget, and a scheduler restarted on the same journal
  resumes without recomputing committed cells.

The scheduler itself is a single asyncio task -- all state mutation
happens on the event loop, so there are no locks around the lease table
or cell map.  A reader thread multiplexes every worker's result pipe
into the loop's inbox via ``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Deque, Dict, List, Optional, Union

from repro.errors import (
    ServiceSaturated,
    ServiceStopped,
    WorkerLostError,
    error_record,
)
from repro.obs.manifest import RunManifest
from repro.obs.runtime import METRICS, TRACER, export_config, get_logger
from repro.parallel.cache import STATS_CACHE_ENV
from repro.parallel.executor import CellTask
from repro.resilience.executor import RetryPolicy
from repro.resilience.journal import CheckpointJournal
from repro.service.chaos import ChaosSpec, CompletionGate
from repro.service.lease import Lease, LeaseTable
from repro.service.protocol import (
    CellAssignment,
    CompletionMsg,
    GoodbyeMsg,
    HeartbeatMsg,
    ShutdownMsg,
    cell_digest,
    payload_digest,
)
from repro.service.worker import service_worker_main

log = get_logger("service")


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for one :class:`CampaignService`.

    Attributes:
        workers: Worker-process pool size.
        lease_timeout_s: Heartbeat deadline; a lease silent this long is
            expired and its cell re-dispatched.
        heartbeat_interval_s: How often workers renew their lease; must
            be below ``lease_timeout_s``, or a healthy worker's lease
            expires between two beats.
        tick_s: Scheduler housekeeping cadence (expiry scan, dispatch).
        max_pending_cells: Admission-control ceiling on not-yet-committed
            cells across all submissions.
        max_worker_restarts: Total replacement workers the service may
            spawn before declaring itself starved.
        retry: Backoff/budget policy for *infrastructure* re-dispatches
            (``max_infra_attempts`` bounds dispatches per cell;
            ``delay_s`` spaces them deterministically).
        mp_context: Multiprocessing start method ('fork', 'spawn', ...);
            None uses the platform default.
        stats_cache_dir: Shared content-keyed stats-cache directory for
            workers; defaults to ``REPRO_STATS_CACHE`` when set.
    """

    workers: int = 2
    lease_timeout_s: float = 5.0
    heartbeat_interval_s: float = 0.5
    tick_s: float = 0.05
    max_pending_cells: int = 4096
    max_worker_restarts: int = 16
    retry: RetryPolicy = RetryPolicy(backoff_base_s=0.02)
    mp_context: Optional[str] = None
    stats_cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.lease_timeout_s <= 0 or self.heartbeat_interval_s <= 0:
            raise ValueError("lease timeout and heartbeat interval must be positive")
        if self.heartbeat_interval_s >= self.lease_timeout_s:
            raise ValueError(
                f"heartbeat interval ({self.heartbeat_interval_s}s) must be"
                f" below the lease timeout ({self.lease_timeout_s}s)"
            )
        if self.max_pending_cells < 1:
            raise ValueError("max_pending_cells must be >= 1")


@dataclass
class _CellState:
    """Scheduler-side state of one content-keyed cell."""

    digest: str
    key: str
    task: CellTask
    payload: dict
    payload_key: str
    status: str = "pending"  # "pending" | "leased" | "committed"
    record: Optional[dict] = None
    attempts: int = 0  #: Dispatches so far (infrastructure budget).
    epoch: int = 0  #: Requeue generation (bumped on every expiry).
    not_before: float = 0.0  #: Earliest re-dispatch time (backoff).
    lease: Optional[Lease] = None
    waiters: List["SubmissionHandle"] = field(default_factory=list)


@dataclass
class _Worker:
    """Scheduler-side handle on one worker process and its Pipe pair."""

    worker_id: str
    process: multiprocessing.Process
    task_conn: mp_connection.Connection
    result_conn: mp_connection.Connection
    state: str = "idle"  # "idle" | "busy" | "suspect" | "dead"
    current_lease: Optional[str] = None


class SubmissionHandle:
    """One tenant's submitted campaign; await :meth:`result` for records."""

    def __init__(self, submission_id: str, tenant: str, digests: List[str]) -> None:
        self.submission_id = submission_id
        self.tenant = tenant
        #: Cell digests in the campaign's deterministic cell order.
        self.digests = digests
        self.remaining = set(digests)
        self._event = asyncio.Event()
        self._records: Optional[List[dict]] = None
        self._error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    async def result(self) -> List[dict]:
        """The campaign's tidy records, one per cell, in cell order.

        Raises :class:`~repro.errors.ServiceStopped` if the service was
        hard-stopped before this submission finished.
        """
        await self._event.wait()
        if self._error is not None:
            raise self._error
        assert self._records is not None
        return self._records


class CampaignService:
    """Asyncio campaign scheduler over a pool of leased worker processes.

    Args:
        config: Scheduling/lease/backpressure knobs.
        journal: Path (or instance) of the durable commit log.  An
            existing journal is *resumed* by default -- its committed
            cells are served from the log without recompute; pass
            ``resume=False`` to start it over.
        chaos: Optional seeded failure-injection schedule (tests/CI).
        manifest: Optional run manifest; every spawned worker's identity
            is recorded in its ``workers`` list.

    Use as an async context manager::

        async with CampaignService(config, journal=path) as service:
            handle = await service.submit(campaign, tenant="alice")
            records = await handle.result()

    or drive synchronously via :func:`run_service`.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        journal: Optional[Union[str, Path, CheckpointJournal]] = None,
        chaos: Optional[ChaosSpec] = None,
        manifest: Optional[RunManifest] = None,
        resume: bool = True,
    ) -> None:
        self.config = config or ServiceConfig()
        if journal is None or isinstance(journal, CheckpointJournal):
            self.journal = journal
        else:
            self.journal = CheckpointJournal(journal)
        if self.journal is not None and not resume:
            self.journal.reset()
        self.chaos = chaos
        self.manifest = manifest
        self._clock = time.monotonic
        self._leases = LeaseTable(self.config.lease_timeout_s, clock=self._clock)
        self._gate = CompletionGate(chaos) if chaos else None
        self._cells: Dict[str, _CellState] = {}
        self._pending: Deque[str] = deque()
        self._workers: Dict[str, _Worker] = {}
        self._handles: List[SubmissionHandle] = []
        self._worker_seq = itertools.count()
        self._submission_seq = itertools.count()
        self._restarts = 0
        self._started = False
        self._draining = False
        self._stop_loop = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._inbox: Optional[asyncio.Queue] = None
        self._loop_task: Optional[asyncio.Task] = None
        self._reader_stop = threading.Event()
        self._reader: Optional[threading.Thread] = None
        self._conn_lock = threading.Lock()
        self._committed_log: Dict[str, dict] = {}
        if self.journal is not None:
            self._committed_log = dict(self.journal.completed())
        self._mp = (
            multiprocessing.get_context(self.config.mp_context)
            if self.config.mp_context
            else multiprocessing.get_context()
        )
        self._stats_cache_dir = self.config.stats_cache_dir or os.environ.get(
            STATS_CACHE_ENV
        ) or None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "CampaignService":
        """Spawn workers, start the reader thread and scheduler loop."""
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self._loop = asyncio.get_running_loop()
        self._inbox = asyncio.Queue()
        for _ in range(self.config.workers):
            self._spawn_worker()
        self._reader = threading.Thread(target=self._read_results, daemon=True)
        self._reader.start()
        self._loop_task = asyncio.create_task(self._run())
        log.info(
            "service.started",
            message=f"[service up: {self.config.workers} workers,"
            f" lease timeout {self.config.lease_timeout_s}s]",
            workers=self.config.workers,
        )
        return self

    async def __aenter__(self) -> "CampaignService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            await self.drain()
        else:
            await self.stop()

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight work, then stop.

        Stops admitting new submissions, waits for every accepted
        submission to resolve (all its cells committed to the journal --
        the in-flight checkpoint), then shuts workers down cleanly.  A
        scheduler restarted on the same journal afterwards serves the
        committed cells byte-identically without recompute.
        """
        self._draining = True
        for handle in list(self._handles):
            await handle._event.wait()
        await self._shutdown(graceful=True)

    async def stop(self) -> None:
        """Hard shutdown: terminate workers now; fail unresolved handles."""
        self._draining = True
        await self._shutdown(graceful=False)
        for handle in self._handles:
            if not handle.done:
                handle._error = ServiceStopped(
                    "service stopped before submission completed",
                    submission=handle.submission_id,
                    remaining_cells=len(handle.remaining),
                )
                handle._event.set()

    async def _shutdown(self, *, graceful: bool) -> None:
        self._stop_loop = True
        if self._loop_task is not None:
            try:
                await self._loop_task
            except Exception:
                pass  # already surfaced through the handles' errors
            self._loop_task = None
        self._reader_stop.set()
        if self._reader is not None:
            self._reader.join(timeout=2.0)
            self._reader = None
        for worker in self._workers.values():
            if worker.state == "dead":
                continue
            if graceful:
                try:
                    worker.task_conn.send(ShutdownMsg())
                except (OSError, ValueError):
                    pass
        for worker in self._workers.values():
            if worker.state == "dead":
                continue
            worker.process.join(timeout=2.0 if graceful else 0.2)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            self._close_worker(worker)
        if METRICS.enabled:
            METRICS.set_gauge("service.workers", 0)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, campaign, tenant: str = "default") -> SubmissionHandle:
        """Admit one campaign; returns a handle to await its records.

        Cells already committed (by an earlier submission, an earlier
        *run* via the resumed journal, or an overlapping tenant) are
        served from the commit log; only genuinely new cell digests
        enter the dispatch queue.

        Raises:
            ServiceSaturated: Admitting this campaign's new cells would
                exceed ``max_pending_cells`` (or the service is
                draining).
        """
        if not self._started:
            raise RuntimeError("service not started; use 'async with' or start()")
        if self._draining:
            raise ServiceSaturated("service is draining; not accepting submissions")
        payload = campaign.parallel_payload()
        payload_key = payload_digest(payload)
        with TRACER.span("service.submit", cells=campaign.size(), tenant=tenant):
            # Every cell this submission creates ships the submit span's
            # context; worker-side campaign.cell spans then parent under
            # it.  A cell deduped across tenants keeps its *first*
            # submitter's trace.
            trace_ctx = TRACER.current_context() or ""
            plan = []  # (digest, key, coords) in deterministic cell order
            new_digests = set()
            for workload, spec, scheme, t_rh in campaign.cells():
                key = campaign.cell_key(workload, spec, scheme, t_rh)
                digest = cell_digest(payload, key)
                plan.append((digest, key, (workload, spec, scheme, t_rh)))
                if digest not in self._cells and digest not in self._committed_log:
                    new_digests.add(digest)
            backlog = sum(
                1 for c in self._cells.values() if c.status != "committed"
            )
            if backlog + len(new_digests) > self.config.max_pending_cells:
                METRICS.inc("service.submissions", result="saturated")
                raise ServiceSaturated(
                    "admission queue is full",
                    pending_cells=backlog,
                    new_cells=len(new_digests),
                    limit=self.config.max_pending_cells,
                    tenant=tenant,
                )
            handle = SubmissionHandle(
                f"s{next(self._submission_seq)}", tenant, [d for d, _, _ in plan]
            )
            for digest, key, (workload, spec, scheme, t_rh) in plan:
                cell = self._cells.get(digest)
                if cell is None:
                    cell = _CellState(
                        digest=digest,
                        key=key,
                        task=CellTask(
                            0, key, workload, spec, scheme, t_rh, trace=trace_ctx
                        ),
                        payload=payload,
                        payload_key=payload_key,
                    )
                    self._cells[digest] = cell
                    if digest in self._committed_log:
                        cell.status = "committed"
                        cell.record = self._committed_log[digest]
                        METRICS.inc("service.cells", result="resumed")
                    else:
                        self._pending.append(digest)
                        METRICS.inc("service.cells", result="new")
                else:
                    METRICS.inc("service.cells", result="deduped")
                if cell.status == "committed":
                    handle.remaining.discard(digest)
                else:
                    cell.waiters.append(handle)
            self._handles.append(handle)
            METRICS.inc("service.submissions", result="accepted")
            if not handle.remaining:
                self._finish_handle(handle)
            self._dispatch()
        log.info(
            "service.submitted",
            message=f"[{tenant}/{handle.submission_id}: {len(plan)} cells,"
            f" {len(new_digests)} new]",
            tenant=tenant,
            cells=len(plan),
            new=len(new_digests),
        )
        return handle

    # ------------------------------------------------------------------
    # Scheduler loop (single asyncio task; owns all mutable state)
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        assert self._inbox is not None
        try:
            while not self._stop_loop:
                try:
                    item = await asyncio.wait_for(
                        self._inbox.get(), timeout=self.config.tick_s
                    )
                except asyncio.TimeoutError:
                    item = None
                while True:
                    if item is not None:
                        self._handle_item(item)
                    if self._inbox.empty():
                        break
                    item = self._inbox.get_nowait()
                self._expire_leases()
                self._reap_workers()
                if self._gate is not None:
                    for held in self._gate.flush_due():
                        self._on_completion(*held)
                self._check_starvation()
                self._dispatch()
        except Exception as error:
            # A scheduler bug (or a failed journal write) must not leave
            # submitters awaiting handles forever: fail them loudly.
            log.error(
                "service.loop_failed",
                message=f"[scheduler loop died: {error}]",
                error=str(error),
            )
            for handle in self._handles:
                if not handle.done:
                    handle._error = ServiceStopped(
                        "scheduler loop failed", cause=str(error)
                    )
                    handle._event.set()
            raise

    def _handle_item(self, item) -> None:
        kind, worker_id, message = item
        if kind == "closed":
            self._worker_lost(worker_id, "channel-closed")
            return
        if isinstance(message, HeartbeatMsg):
            if self._leases.renew(message.lease_id):
                METRICS.inc("service.heartbeats")
            return
        if isinstance(message, CompletionMsg):
            if self._gate is not None:
                for delivered in self._gate.intercept((worker_id, message)):
                    self._on_completion(*delivered)
            else:
                self._on_completion(worker_id, message)
            return
        if isinstance(message, GoodbyeMsg):
            worker = self._workers.get(worker_id)
            if worker is not None and worker.state != "dead":
                worker.state = "dead"

    # -- completions ----------------------------------------------------
    def _on_completion(self, worker_id: str, message: CompletionMsg) -> None:
        worker = self._workers.get(worker_id)
        if worker is not None and worker.current_lease == message.lease_id:
            worker.current_lease = None
            if worker.state in ("busy", "suspect"):
                worker.state = "idle"
        self._leases.release(message.lease_id)
        cell = self._cells.get(message.digest)
        if cell is None or cell.status == "committed":
            # Duplicate delivery or stale attempt of an already-committed
            # cell: drop.  Deterministic cells make this always safe.
            METRICS.inc("service.completions", result="duplicate")
            return
        self._commit(
            cell,
            message.record,
            worker_id=worker_id,
            duration_s=message.duration_s,
            attempt=message.attempt,
            epoch=message.epoch,
            lease_id=message.lease_id,
            telemetry=message.telemetry,
        )

    def _commit(
        self,
        cell: _CellState,
        record: dict,
        *,
        worker_id: Optional[str],
        attempt: int,
        epoch: int,
        lease_id: Optional[str],
        duration_s: float = 0.0,
        telemetry: Optional[dict] = None,
    ) -> None:
        """Exactly-once commitment point for one cell."""
        if telemetry:
            METRICS.merge(telemetry)
        cell.status = "committed"
        cell.record = record
        cell.lease = None
        self._committed_log[cell.digest] = record
        if self.journal is not None:
            self.journal.append(
                cell.digest,
                record,
                duration_s=duration_s or None,
                worker_id=worker_id,
                attempt=attempt,
                epoch=epoch,
                lease_id=lease_id,
            )
        METRICS.inc("service.completions", result="committed")
        waiters, cell.waiters = cell.waiters, []
        for handle in waiters:
            handle.remaining.discard(cell.digest)
            if not handle.remaining and not handle.done:
                self._finish_handle(handle)

    def _finish_handle(self, handle: SubmissionHandle) -> None:
        handle._records = [self._cells[d].record for d in handle.digests]
        handle._event.set()

    # -- failure detection & recovery -----------------------------------
    def _expire_leases(self) -> None:
        for lease in self._leases.expire_due():
            METRICS.inc("service.lease_expiries")
            log.warning(
                "service.lease_expired",
                message=f"[lease {lease.lease_id} ({lease.key}) on"
                f" {lease.worker_id} missed its heartbeat deadline]",
                worker=lease.worker_id,
                key=lease.key,
            )
            worker = self._workers.get(lease.worker_id)
            if (
                worker is not None
                and worker.current_lease == lease.lease_id
                and worker.state == "busy"
            ):
                # Could be a hang rather than a death: stop dispatching
                # to it, but let it rejoin if it ever reports back.
                worker.state = "suspect"
            cell = self._cells.get(lease.digest)
            if cell is not None and cell.status == "leased" and cell.lease is lease:
                self._requeue(cell, "lease-expired")

    def _requeue(self, cell: _CellState, reason: str) -> None:
        cell.lease = None
        cell.epoch += 1
        METRICS.inc("service.requeues", reason=reason)
        if cell.attempts >= self.config.retry.max_infra_attempts:
            error = WorkerLostError(
                "cell exhausted its infrastructure retry budget",
                key=cell.key,
                dispatches=cell.attempts,
                reason=reason,
            )
            self._commit(
                cell,
                self._error_record(cell, error),
                worker_id=None,
                attempt=cell.attempts,
                epoch=cell.epoch,
                lease_id=None,
            )
            return
        cell.status = "pending"
        # Existing RetryPolicy machinery: deterministic, per-cell backoff
        # spaces the re-dispatch (the '#infra' namespace matches the
        # executor's separate infrastructure budget).
        cell.not_before = self._clock() + self.config.retry.delay_s(
            f"{cell.key}#infra", cell.attempts
        )
        self._pending.append(cell.digest)

    def _error_record(self, cell: _CellState, error: BaseException) -> dict:
        task = cell.task
        record = {
            "workload": task.workload,
            "mapping": task.spec.label,
            "scheme": task.scheme,
            "t_rh": task.t_rh,
            "status": "error",
            "attempts": cell.attempts,
        }
        record.update(error_record(error))
        return record

    def _reap_workers(self) -> None:
        for worker in list(self._workers.values()):
            if (
                worker.state != "dead"
                and worker.process is not None
                and not worker.process.is_alive()
            ):
                self._worker_lost(worker.worker_id, "worker-dead")

    def _worker_lost(self, worker_id: str, reason: str) -> None:
        worker = self._workers.get(worker_id)
        if worker is None or worker.state == "dead":
            return
        log.warning(
            "service.worker_lost",
            message=f"[worker {worker_id} lost ({reason});"
            " expiring its lease; respawning]",
            worker=worker_id,
            reason=reason,
        )
        worker.state = "dead"
        worker.current_lease = None
        self._close_worker(worker)
        for lease in self._leases.for_worker(worker_id):
            self._leases.expire(lease.lease_id)
            METRICS.inc("service.lease_expiries")
            cell = self._cells.get(lease.digest)
            if cell is not None and cell.status == "leased":
                self._requeue(cell, reason)
        if not self._stop_loop and self._restarts < self.config.max_worker_restarts:
            self._restarts += 1
            METRICS.inc("service.worker_restarts")
            self._spawn_worker(replaces=worker_id)

    def _check_starvation(self) -> None:
        """Fail outstanding cells when no worker can ever run them."""
        if any(w.state != "dead" for w in self._workers.values()):
            return
        if self._restarts < self.config.max_worker_restarts:
            return
        for cell in self._cells.values():
            if cell.status == "committed":
                continue
            error = WorkerLostError(
                "no workers left and the restart budget is exhausted",
                key=cell.key,
                restarts=self._restarts,
            )
            self._commit(
                cell,
                self._error_record(cell, error),
                worker_id=None,
                attempt=cell.attempts,
                epoch=cell.epoch,
                lease_id=None,
            )

    # -- dispatch -------------------------------------------------------
    def _dispatch(self) -> None:
        now = self._clock()
        idle = sorted(
            (w for w in self._workers.values() if w.state == "idle"),
            key=lambda w: w.worker_id,
        )
        if idle:
            deferred: List[str] = []
            while self._pending and idle:
                digest = self._pending.popleft()
                cell = self._cells.get(digest)
                if cell is None or cell.status != "pending":
                    continue
                if cell.not_before > now:
                    deferred.append(digest)
                    continue
                worker = idle.pop(0)
                self._dispatch_to(worker, cell)
            self._pending.extend(deferred)
        if METRICS.enabled:
            METRICS.set_gauge("service.queue_depth", len(self._pending))
            METRICS.set_gauge(
                "service.workers",
                sum(1 for w in self._workers.values() if w.state != "dead"),
            )

    def _dispatch_to(self, worker: _Worker, cell: _CellState) -> None:
        cell.attempts += 1
        lease = self._leases.grant(
            cell.digest, cell.key, worker.worker_id, cell.attempts, cell.epoch
        )
        cell.lease = lease
        cell.status = "leased"
        worker.state = "busy"
        worker.current_lease = lease.lease_id
        assignment = CellAssignment(
            task=cell.task,
            payload=cell.payload,
            payload_key=cell.payload_key,
            digest=cell.digest,
            lease_id=lease.lease_id,
            attempt=cell.attempts,
            epoch=cell.epoch,
            heartbeat_interval_s=self.config.heartbeat_interval_s,
        )
        try:
            worker.task_conn.send(assignment)
        except (OSError, ValueError):
            self._leases.expire(lease.lease_id)
            self._requeue(cell, "channel-closed")
            self._worker_lost(worker.worker_id, "channel-closed")
            return
        METRICS.inc("service.dispatches")

    # ------------------------------------------------------------------
    # Worker process management
    # ------------------------------------------------------------------
    def _spawn_worker(self, replaces: Optional[str] = None) -> _Worker:
        worker_id = f"w{next(self._worker_seq)}"
        task_r, task_w = self._mp.Pipe(duplex=False)
        result_r, result_w = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=service_worker_main,
            args=(
                worker_id,
                task_r,
                result_w,
                self._stats_cache_dir,
                export_config(),
                self.chaos,
                self.config.heartbeat_interval_s,
            ),
            daemon=True,
            name=f"repro-service-{worker_id}",
        )
        process.start()
        # Close the child's pipe ends in the parent *immediately*: later
        # forks must not inherit them, or a dead worker's channel would
        # never report EOF (and broken-pipe detection on dispatch would
        # not fire).
        task_r.close()
        result_w.close()
        worker = _Worker(
            worker_id=worker_id,
            process=process,
            task_conn=task_w,
            result_conn=result_r,
        )
        with self._conn_lock:
            self._workers[worker_id] = worker
        if self.manifest is not None:
            self.manifest.workers.append(
                {
                    "worker_id": worker_id,
                    "pid": process.pid,
                    "replaces": replaces,
                    "stats_cache_dir": self._stats_cache_dir,
                }
            )
        return worker

    def _close_worker(self, worker: _Worker) -> None:
        with self._conn_lock:
            for conn in (worker.task_conn, worker.result_conn):
                try:
                    conn.close()
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # Reader thread: worker result pipes -> asyncio inbox
    # ------------------------------------------------------------------
    def _read_results(self) -> None:
        while not self._reader_stop.is_set():
            with self._conn_lock:
                conns = {
                    w.result_conn: w.worker_id
                    for w in self._workers.values()
                    if w.state != "dead" and not w.result_conn.closed
                }
            if not conns:
                time.sleep(0.02)
                continue
            try:
                ready = mp_connection.wait(list(conns), timeout=0.1)
            except OSError:
                continue  # a conn closed under us; rebuild the list
            for conn in ready:
                worker_id = conns[conn]
                try:
                    message = conn.recv()
                except Exception:
                    # EOF (worker died), OSError, or an unpickling error
                    # from a torn write: either way that channel is done.
                    self._post(("closed", worker_id, None))
                    with self._conn_lock:
                        try:
                            conn.close()
                        except OSError:
                            pass
                    continue
                self._post(("msg", worker_id, message))

    def _post(self, item) -> None:
        loop, inbox = self._loop, self._inbox
        if loop is None or inbox is None:
            return
        try:
            loop.call_soon_threadsafe(inbox.put_nowait, item)
        except RuntimeError:
            pass  # loop already closed (shutdown race)

    # ------------------------------------------------------------------
    # Introspection (tests, smoke scripts)
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Point-in-time counters describing the service's state."""
        states = [c.status for c in self._cells.values()]
        return {
            "cells": len(states),
            "committed": states.count("committed"),
            "pending": states.count("pending"),
            "leased": states.count("leased"),
            "workers_alive": sum(
                1 for w in self._workers.values() if w.state != "dead"
            ),
            "worker_restarts": self._restarts,
            "lease_history": len(self._leases.history),
            "submissions": len(self._handles),
        }


# ---------------------------------------------------------------------------
# Synchronous convenience driver
# ---------------------------------------------------------------------------
def run_service(
    campaigns,
    *,
    config: Optional[ServiceConfig] = None,
    journal: Optional[Union[str, Path, CheckpointJournal]] = None,
    chaos: Optional[ChaosSpec] = None,
    manifest: Optional[RunManifest] = None,
    resume: bool = True,
    tenants: Optional[List[str]] = None,
) -> List[List[dict]]:
    """Run a batch of campaigns through one service; returns their records.

    Submissions are made concurrently (so overlapping grids dedupe), the
    service drains gracefully afterwards, and the result list is ordered
    like ``campaigns``.  This is the synchronous entry point the CLI and
    smoke scripts use.
    """
    campaigns = list(campaigns)
    names = tenants or [f"tenant{i}" for i in range(len(campaigns))]
    if len(names) != len(campaigns):
        raise ValueError("tenants must match campaigns 1:1")

    async def _main() -> List[List[dict]]:
        async with CampaignService(
            config, journal=journal, chaos=chaos, manifest=manifest, resume=resume
        ) as service:
            handles = [
                await service.submit(campaign, tenant=name)
                for campaign, name in zip(campaigns, names)
            ]
            return [await handle.result() for handle in handles]

    return asyncio.run(_main())


__all__ = [
    "CampaignService",
    "ServiceConfig",
    "SubmissionHandle",
    "run_service",
]
