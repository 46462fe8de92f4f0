"""Service worker process: leased cell execution with heartbeats.

One worker = one OS process running :func:`service_worker_main`.  It
receives :class:`~repro.service.protocol.CellAssignment` messages on its
task pipe, runs each cell through the *same* code path as local pool
workers (:func:`repro.parallel.executor.run_cell_task`, hence
:meth:`Campaign.execute_cell` and the :class:`ResilientExecutor` fault
boundary), and reports :class:`~repro.service.protocol.CompletionMsg`
results on its result pipe.  While a cell runs, a daemon heartbeat
thread renews the worker's lease every ``heartbeat_interval_s``.

Telemetry and cache configuration arrive exactly the way pool workers
get them: an :func:`repro.obs.runtime.export_config` payload applied via
:func:`apply_config`, plus a ``stats_cache_dir`` pointing the worker's
simulators at the shared content-keyed stats cache (both mirror the
``REPRO_TELEMETRY_DIR`` / ``REPRO_STATS_CACHE`` environment variables of
the parent).

Failure discipline: all sends to the result pipe happen under one lock,
and injected chaos kills acquire that lock first -- a killed worker can
therefore tear at most an *unsent* message, never interleave a torn
write into the stream.  A worker whose cell raises unexpectedly (a bug,
not a simulation error -- those become tidy error records inside
``execute_cell``) still reports a completion carrying an error record,
so its lease resolves without waiting for expiry.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.errors import error_record
from repro.obs.runtime import METRICS, apply_config
from repro.parallel.executor import build_worker_state, run_cell_task
from repro.service.chaos import ChaosEngine, ChaosSpec
from repro.service.protocol import (
    CellAssignment,
    CompletionMsg,
    GoodbyeMsg,
    HeartbeatMsg,
    ShutdownMsg,
)


class _HeartbeatPump:
    """Daemon thread renewing the currently-held lease.

    ``stall_until`` (monotonic) silences the pump -- the chaos harness
    uses it to simulate a hung worker whose lease must expire.  An idle
    worker (no lease held) sends nothing.
    """

    def __init__(self, worker_id: str, conn, send_lock, interval_s: float) -> None:
        self.worker_id = worker_id
        self._conn = conn
        self._lock = send_lock
        self.interval_s = max(interval_s, 0.01)
        self.lease_id: Optional[str] = None
        self.stall_until = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            lease_id = self.lease_id
            if time.monotonic() < self.stall_until:
                continue
            if lease_id is None:
                continue
            beat = HeartbeatMsg(
                worker_id=self.worker_id, lease_id=lease_id, sent_at=time.time()
            )
            try:
                with self._lock:
                    # Re-check under the lock: the main thread clears the
                    # lease before releasing it, so a completed cell never
                    # gets a post-completion (stale) heartbeat.
                    if self.lease_id == lease_id:
                        self._conn.send(beat)
            except (OSError, ValueError):  # scheduler gone; exit quietly
                return


def _error_completion(assignment: CellAssignment, error: BaseException) -> CompletionMsg:
    """A completion carrying an error record (worker-side last resort)."""
    task = assignment.task
    record = {
        "workload": task.workload,
        "mapping": task.spec.label,
        "scheme": task.scheme,
        "t_rh": task.t_rh,
        "status": "error",
        "attempts": 1,
    }
    record.update(error_record(error))
    return CompletionMsg(
        worker_id="",
        lease_id=assignment.lease_id,
        digest=assignment.digest,
        key=task.key,
        attempt=assignment.attempt,
        epoch=assignment.epoch,
        record=record,
    )


def service_worker_main(
    worker_id: str,
    task_conn,
    result_conn,
    stats_cache_dir: Optional[str],
    obs_config: Optional[dict],
    chaos_spec: Optional[ChaosSpec],
    heartbeat_interval_s: float,
) -> None:
    """Entry point of one service worker process (runs until shutdown)."""
    if obs_config is not None:
        apply_config(obs_config)
    chaos = ChaosEngine(chaos_spec) if chaos_spec is not None else None
    send_lock = threading.Lock()
    pump = _HeartbeatPump(worker_id, result_conn, send_lock, heartbeat_interval_s)
    pump.start()
    states: Dict[str, dict] = {}  # payload digest -> worker state
    cells_run = 0
    try:
        while True:
            try:
                msg = task_conn.recv()
            except (EOFError, OSError):
                return  # scheduler died; nothing useful left to do
            if isinstance(msg, ShutdownMsg):
                pump.stop()
                with send_lock:
                    result_conn.send(GoodbyeMsg(worker_id=worker_id, cells_run=cells_run))
                return
            assignment: CellAssignment = msg
            pump.lease_id = assignment.lease_id
            decision = (
                chaos.decide(assignment.task.key, assignment.attempt)
                if chaos is not None
                else None
            )
            if decision is not None and decision.action == "kill-before":
                with send_lock:
                    chaos.kill_now("kill-before")
            if decision is not None and decision.action == "hang":
                # Stop heartbeating *now*; the lease will expire while
                # (or shortly after) the cell computes.
                pump.stall_until = time.monotonic() + decision.hang_s + pump.interval_s
                METRICS.inc("chaos.injections", action="hang")
            hang_started = time.monotonic()
            try:
                state = states.get(assignment.payload_key)
                if state is None:
                    state = build_worker_state(assignment.payload, stats_cache_dir)
                    state["worker_id"] = worker_id
                    states[assignment.payload_key] = state
                completion_raw = run_cell_task(state, assignment.task)
                completion = CompletionMsg(
                    worker_id=worker_id,
                    lease_id=assignment.lease_id,
                    digest=assignment.digest,
                    key=assignment.task.key,
                    attempt=assignment.attempt,
                    epoch=assignment.epoch,
                    record=completion_raw.record,
                    duration_s=completion_raw.duration_s,
                    telemetry=completion_raw.telemetry,
                )
            except Exception as error:  # defense in depth: report, don't hang
                completion = _error_completion(assignment, error)
            if decision is not None and decision.action == "hang":
                # Sit on the finished result until the lease is long dead.
                remaining = decision.hang_s - (time.monotonic() - hang_started)
                if remaining > 0:
                    time.sleep(remaining)
            messages = [completion]
            if decision is not None and decision.duplicate:
                messages.append(completion)
                METRICS.inc("chaos.injections", action="duplicate")
            with send_lock:
                pump.lease_id = None
                for message in messages:
                    try:
                        result_conn.send(message)
                    except (OSError, ValueError):
                        return  # scheduler gone
                if decision is not None and decision.action == "kill-after":
                    chaos.kill_now("kill-after")
            cells_run += 1
    finally:
        pump.stop()


__all__ = ["service_worker_main"]
