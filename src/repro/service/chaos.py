"""Deterministic chaos harness for the campaign service.

The service's correctness claim -- final results identical to a serial
run, every cell committed exactly once, resume without recompute -- is
only credible if it holds *under failure*.  This module injects the
failures, reproducibly:

* **worker kills** -- a worker ``os._exit``\\ s mid-assignment, before
  or after sending its completion (crash vs. crash-after-send);
* **hangs with heartbeat stalls** -- a worker computes its cell but
  stops heartbeating and sits on the completion longer than the lease
  timeout, so the scheduler expires the lease and re-dispatches while
  the original eventually delivers a *late* (stale-lease) completion;
* **duplicated completions** -- the same completion message is sent
  twice, exercising idempotent commitment;
* **reordered completions** -- the scheduler-side :class:`CompletionGate`
  holds every k-th completion back one message, exercising
  out-of-order delivery;
* **journal truncation** -- :func:`truncate_journal_tail` tears the
  final JSONL record of a checkpoint journal, simulating a crash
  mid-write on a filesystem without atomic rename.

Every decision is a pure function of ``(seed, cell key, attempt)`` via
the same :func:`~repro.utils.prng.derive_key` construction the retry
backoff uses, so a chaos schedule is exactly reproducible and tests can
*precompute* it (e.g. assert the seed they chose kills at least two
workers).  Chaos only ever fires on a cell's **first** attempt:
re-dispatched attempts run clean, which guarantees every chaos schedule
converges.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Tuple, Union

from repro.obs.runtime import METRICS
from repro.utils.prng import derive_key

#: Exit status of a chaos-killed worker (mirrors SIGKILL's 128+9).
KILLED_EXIT_CODE = 137


@dataclass(frozen=True)
class ChaosSpec:
    """Seeded failure-injection schedule for one service run.

    All ``*_frac`` fields are probabilities in [0, 1] evaluated per
    (cell, attempt=1) with deterministic draws; they partition one unit
    interval in priority order kill-before > kill-after > hang, so at
    most one *process* fault fires per cell.  ``duplicate_frac`` draws
    independently (a completion can be both late and duplicated).

    Attributes:
        seed: Master seed every decision derives from.
        kill_before_frac: P(worker exits before sending the completion).
        kill_after_frac: P(worker exits right after sending it).
        hang_frac: P(worker stalls heartbeats and delays the completion).
        hang_s: How long a hanging worker sits on its completion; must
            exceed the service's lease timeout to actually trigger
            expiry.
        duplicate_frac: P(the completion message is sent twice).
        reorder_every: Scheduler-side -- hold every k-th completion back
            one delivery (0 disables).
        max_hold_s: Longest the completion gate may hold a message (so
            a held *final* completion still drains).
    """

    seed: int = 2024
    kill_before_frac: float = 0.0
    kill_after_frac: float = 0.0
    hang_frac: float = 0.0
    hang_s: float = 0.0
    duplicate_frac: float = 0.0
    reorder_every: int = 0
    max_hold_s: float = 0.5

    def __post_init__(self) -> None:
        total = self.kill_before_frac + self.kill_after_frac + self.hang_frac
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"kill/hang fractions must sum to <= 1, got {total:.3f}"
            )
        for name in (
            "kill_before_frac",
            "kill_after_frac",
            "hang_frac",
            "duplicate_frac",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.reorder_every < 0:
            raise ValueError(f"reorder_every must be >= 0, got {self.reorder_every}")


@dataclass(frozen=True)
class ChaosDecision:
    """What the harness does to one (cell, attempt)."""

    action: str = "none"  # "none" | "kill-before" | "kill-after" | "hang"
    hang_s: float = 0.0
    duplicate: bool = False

    @property
    def benign(self) -> bool:
        return self.action == "none" and not self.duplicate


_NO_CHAOS = ChaosDecision()


def _unit(seed: int, label: str) -> float:
    """Deterministic draw in [0, 1) from (seed, label)."""
    return derive_key(seed, label, 53) / float(1 << 53)


class ChaosEngine:
    """Worker-side decision oracle (pure; shared nothing)."""

    def __init__(self, spec: ChaosSpec) -> None:
        self.spec = spec

    def decide(self, key: str, attempt: int) -> ChaosDecision:
        """The (deterministic) fault plan for one dispatch of one cell."""
        if attempt != 1:
            return _NO_CHAOS  # retries always run clean -> convergence
        spec = self.spec
        u = _unit(spec.seed, f"{key}#fault")
        if u < spec.kill_before_frac:
            action = "kill-before"
        elif u < spec.kill_before_frac + spec.kill_after_frac:
            action = "kill-after"
        elif u < spec.kill_before_frac + spec.kill_after_frac + spec.hang_frac:
            action = "hang"
        else:
            action = "none"
        duplicate = _unit(spec.seed, f"{key}#dup") < spec.duplicate_frac
        if action == "none" and not duplicate:
            return _NO_CHAOS
        return ChaosDecision(
            action=action,
            hang_s=spec.hang_s if action == "hang" else 0.0,
            duplicate=duplicate,
        )

    def kill_now(self, action: str) -> None:  # pragma: no cover - exits
        """Terminate this worker process immediately (no cleanup)."""
        METRICS.inc("chaos.injections", action=action)
        os._exit(KILLED_EXIT_CODE)


def planned_faults(
    spec: ChaosSpec, keys: Iterable[str]
) -> List[Tuple[str, ChaosDecision]]:
    """Precompute the first-attempt fault schedule for a set of cells.

    Tests use this to assert a chosen seed produces the scenario they
    need (e.g. at least two kills) *before* spending simulation time.
    """
    engine = ChaosEngine(spec)
    plan = []
    for key in keys:
        decision = engine.decide(key, 1)
        if not decision.benign:
            plan.append((key, decision))
    return plan


# ---------------------------------------------------------------------------
# Scheduler-side: delivery-order chaos
# ---------------------------------------------------------------------------
class CompletionGate:
    """Holds every k-th completion back one delivery (reordering).

    The scheduler funnels every received completion through
    :meth:`intercept`; with ``reorder_every == k``, completion number
    ``k, 2k, ...`` is held until the *next* completion arrives (then
    delivered after it), or until :meth:`flush_due` sees it exceed
    ``max_hold_s`` -- whichever comes first, so a held final message
    cannot deadlock the run.
    """

    def __init__(self, spec: ChaosSpec, *, clock=None) -> None:
        import time

        self.spec = spec
        self._clock = clock or time.monotonic
        self._count = 0
        self._held: Optional[object] = None
        self._held_at = 0.0

    def intercept(self, message) -> List[object]:
        """Pass one completion through the gate; returns deliveries."""
        if not self.spec.reorder_every:
            return [message]
        self._count += 1
        out: List[object] = []
        if self._held is not None:
            held, self._held = self._held, None
            out.append(message)
            out.append(held)  # delivered late: reordered past its successor
            METRICS.inc("chaos.injections", action="reorder")
            return out
        if self._count % self.spec.reorder_every == 0:
            self._held = message
            self._held_at = self._clock()
            return []
        return [message]

    def flush_due(self) -> List[object]:
        """Release a held message that has waited past ``max_hold_s``."""
        if self._held is None:
            return []
        if self._clock() - self._held_at < self.spec.max_hold_s:
            return []
        held, self._held = self._held, None
        METRICS.inc("chaos.injections", action="reorder")
        return [held]

    def flush(self) -> List[object]:
        """Unconditionally release anything held (drain path)."""
        if self._held is None:
            return []
        held, self._held = self._held, None
        return [held]


# ---------------------------------------------------------------------------
# Journal chaos
# ---------------------------------------------------------------------------
def truncate_journal_tail(path: Union[str, Path], *, seed: int = 0) -> int:
    """Tear the final JSONL record of a journal mid-write.

    Cuts a seeded number of bytes (at least one, never the whole line)
    off the file's last non-empty line, simulating a crash on a
    filesystem where the atomic-rename discipline did not hold.  Returns
    the number of bytes removed.  The journal must still *load* after
    this -- skipping exactly the torn record -- which is what the resume
    tests assert.
    """
    path = Path(path)
    data = path.read_bytes().rstrip(b"\n")
    if not data:
        raise ValueError(f"{path} has no records to truncate")
    last_newline = data.rfind(b"\n")
    last_line_len = len(data) - (last_newline + 1)
    if last_line_len < 2:
        raise ValueError(f"{path}: final record too short to tear")
    cut = 1 + derive_key(seed, f"truncate:{path.name}", 32) % (last_line_len - 1)
    path.write_bytes(data[: len(data) - cut])
    METRICS.inc("chaos.injections", action="journal-truncate")
    return cut


__all__ = [
    "KILLED_EXIT_CODE",
    "ChaosDecision",
    "ChaosEngine",
    "ChaosSpec",
    "CompletionGate",
    "planned_faults",
    "truncate_journal_tail",
]
