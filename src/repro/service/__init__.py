"""Fault-tolerant campaign service: leased scheduling over workers.

The service layer turns campaign execution into a long-lived scheduler
(:class:`CampaignService`) that accepts concurrent submissions,
decomposes them into content-keyed cells (overlapping tenant grids
dedupe), dispatches cells to worker processes under heartbeat leases,
recovers from lost workers by re-dispatching expired leases, and
commits each cell's record exactly once to a durable
:class:`~repro.resilience.journal.CheckpointJournal`.

Workers are local processes speaking the small message protocol of
:mod:`repro.service.protocol` over ``multiprocessing.Pipe`` pairs.

The chaos harness (:mod:`repro.service.chaos`) injects worker kills,
heartbeat stalls, duplicated/reordered completions and journal
truncation on a seeded, reproducible schedule; the integration tests
use it to prove the service's results stay identical to a serial
:meth:`Campaign.run` under failure.
"""

from repro.service.chaos import (
    KILLED_EXIT_CODE,
    ChaosDecision,
    ChaosEngine,
    ChaosSpec,
    CompletionGate,
    planned_faults,
    truncate_journal_tail,
)
from repro.service.lease import Lease, LeaseTable, lease_id_for
from repro.service.protocol import (
    CellAssignment,
    CompletionMsg,
    GoodbyeMsg,
    HeartbeatMsg,
    ShutdownMsg,
    cell_digest,
    payload_digest,
)
from repro.service.scheduler import (
    CampaignService,
    ServiceConfig,
    SubmissionHandle,
    run_service,
)

__all__ = [
    "KILLED_EXIT_CODE",
    "CampaignService",
    "CellAssignment",
    "ChaosDecision",
    "ChaosEngine",
    "ChaosSpec",
    "CompletionGate",
    "CompletionMsg",
    "GoodbyeMsg",
    "HeartbeatMsg",
    "Lease",
    "LeaseTable",
    "ServiceConfig",
    "ShutdownMsg",
    "SubmissionHandle",
    "cell_digest",
    "lease_id_for",
    "payload_digest",
    "planned_faults",
    "run_service",
    "truncate_journal_tail",
]
