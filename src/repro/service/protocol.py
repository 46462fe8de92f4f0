"""Wire protocol between the campaign scheduler and its workers.

Everything that crosses the scheduler/worker process boundary is one of
the small, picklable dataclasses below, sent over one-directional
``multiprocessing.Pipe`` connections (one task pipe and one result pipe
per worker, so a worker dying mid-write can tear at most its *own*
channel, never a shared queue).

Scheduler -> worker: :class:`CellAssignment` (a leased cell) and
:class:`ShutdownMsg` (graceful drain).  Worker -> scheduler:
:class:`HeartbeatMsg` (lease renewal), :class:`CompletionMsg` (a
finished cell, carrying the lease identity that produced it so the
scheduler can fence stale and duplicate deliveries), and
:class:`GoodbyeMsg` (clean exit acknowledgement).

Trace context crosses with them: every :class:`CellAssignment` carries
the submitting span's ``"trace_id:span_id"`` token inside its
:class:`CellTask` (the ``trace`` field), so the worker-side cell spans
parent under the scheduler's ``service.submit`` span.

Cells are identified by a *content digest* (:func:`cell_digest`): the
same construction as the content-keyed stats cache
(:func:`repro.parallel.cache.stats_cache_key`), applied one level up --
a digest over everything that determines a cell's tidy record.  Two
tenants submitting overlapping sweep grids therefore share cells by
construction: the scheduler runs each digest once and fans the record
out to every waiting submission.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.parallel.executor import CellTask


def cell_digest(payload: dict, key: str) -> str:
    """Content digest identifying one cell's result across submissions.

    Args:
        payload: The owning campaign's :meth:`Campaign.parallel_payload`
            (contributes the DRAM config and degrade policy -- the
            grid-independent inputs a record depends on).
        key: The campaign's canonical cell key (contributes workload,
            mapping spec, scheme, threshold, and scale).
    """
    digest = hashlib.blake2b(digest_size=20)
    for part in (key, payload.get("config"), payload.get("degrade_scale_factor")):
        digest.update(repr(part).encode())
        digest.update(b"|")
    return digest.hexdigest()


def payload_digest(payload: dict) -> str:
    """Digest identifying one campaign constructor payload.

    Workers key their rebuilt-campaign cache on this, so a worker serving
    several tenants builds each distinct campaign exactly once.
    """
    digest = hashlib.blake2b(digest_size=12)
    for key in sorted(payload):
        digest.update(f"{key}={payload[key]!r}|".encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Scheduler -> worker
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CellAssignment:
    """One leased cell, dispatched to a specific worker.

    The lease fields (``lease_id``, ``attempt``, ``epoch``) travel with
    the assignment and come back verbatim on every heartbeat and
    completion, so the scheduler can always tell which dispatch of a
    cell a message belongs to.
    """

    task: CellTask
    payload: dict
    payload_key: str
    digest: str
    lease_id: str
    attempt: int
    epoch: int
    heartbeat_interval_s: float


@dataclass(frozen=True)
class ShutdownMsg:
    """Graceful stop: finish nothing new, acknowledge with a goodbye."""



# ---------------------------------------------------------------------------
# Worker -> scheduler
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HeartbeatMsg:
    """Periodic liveness proof for the lease a worker currently holds.

    ``sent_at`` is wall-clock, for humans reading logs.
    """

    worker_id: str
    lease_id: str
    sent_at: float


@dataclass(frozen=True)
class CompletionMsg:
    """One finished cell plus the lease identity that produced it."""

    worker_id: str
    lease_id: str
    digest: str
    key: str
    attempt: int
    epoch: int
    record: dict
    duration_s: float = 0.0
    telemetry: Optional[dict] = field(default=None)


@dataclass(frozen=True)
class GoodbyeMsg:
    """Clean worker exit (response to :class:`ShutdownMsg`)."""

    worker_id: str
    cells_run: int = 0


__all__ = [
    "CellAssignment",
    "CompletionMsg",
    "GoodbyeMsg",
    "HeartbeatMsg",
    "ShutdownMsg",
    "cell_digest",
    "payload_digest",
]
