"""Detailed event-driven memory-system model.

This tier models each request's journey through the controller: FR-FCFS
selection from a finite queue, per-bank row-buffer state under the
open-adaptive page policy (``max_hits``, the budget every tier takes),
channel blocking during mitigative row migrations, per-activation
mitigation hooks (tracking + action), and the tREFW refresh window at
whose boundaries the per-window counts restart.

It is exact but Python-speed; the experiment harness uses the vectorized
:mod:`repro.dram.fast_model` tier instead and the test suite verifies the
two tiers agree on their shared statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Protocol, Tuple

from repro.dram.bank import Bank
from repro.dram.config import Coordinate, DRAMConfig
from repro.dram.fast_model import check_max_hits
from repro.utils.units import TREFW_S


@dataclass(frozen=True)
class MitigationAction:
    """What a mitigation asks the controller to do after an activation.

    Attributes:
        stall_s: Extra seconds charged to this request.
        blocks_channel: If True the stall also blocks the whole channel
            (row migrations tie up the bus); if False only this request
            waits (Blockhammer's per-row throttling).
    """

    stall_s: float = 0.0
    blocks_channel: bool = False


class MitigationHook(Protocol):
    """The contract between the memory system and a Rowhammer mitigation.

    Implementations live in :mod:`repro.mitigations`; the memory system
    only needs these three methods.
    """

    def redirect(self, coord: Coordinate) -> Coordinate:
        """Translate a coordinate through any row-indirection (migrations)."""

    def on_activation(self, coord: Coordinate, now: float) -> MitigationAction:
        """Record an activation; return the action the controller must take."""

    def on_refresh_window(self) -> None:
        """Reset per-window tracker state (called at tREFW boundaries)."""


@dataclass(frozen=True)
class Request:
    """A memory request entering the controller."""

    line_addr: int
    arrival: float


@dataclass(frozen=True)
class RequestResult:
    """Outcome of one serviced request."""

    line_addr: int
    coord: Coordinate
    arrival: float
    start: float
    completion: float
    activated: bool
    mitigation_stall: float

    @property
    def latency(self) -> float:
        """End-to-end latency including queueing and mitigation stalls."""
        return self.completion - self.arrival


@dataclass
class MemorySystemStats:
    """Counters accumulated over a run."""

    accesses: int = 0
    activations: int = 0
    hits: int = 0
    mitigation_stall_s: float = 0.0
    busy_until: float = 0.0
    acts_per_row: Dict[int, int] = field(default_factory=dict)
    window_acts_per_row: Dict[int, int] = field(default_factory=dict)
    peak_window_row_acts: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def hot_rows(self, threshold: int) -> int:
        """Rows whose activation count reached ``threshold``."""
        return sum(1 for count in self.acts_per_row.values() if count >= threshold)

    def max_row_activations(self) -> int:
        """Peak activations of any row *within a single refresh window*.

        This is the security metric: the threat model counts activations
        per tREFW, so the histogram folds at window boundaries.
        """
        current = max(self.window_acts_per_row.values(), default=0)
        return max(self.peak_window_row_acts, current)

    def fold_window(self) -> None:
        """Close the current refresh window (counters restart)."""
        current = max(self.window_acts_per_row.values(), default=0)
        self.peak_window_row_acts = max(self.peak_window_row_acts, current)
        self.window_acts_per_row.clear()


class MemorySystem:
    """Event-driven DRAM memory system with mitigation hooks.

    Args:
        config: Geometry and timing.
        mapping: Object with ``translate(line_addr) -> Coordinate`` (any
            mapping from :mod:`repro.mapping` or :mod:`repro.core`).
        max_hits: Open-adaptive row-buffer budget, as in
            :func:`~repro.dram.fast_model.analyze_trace`: 16 per Table 1,
            ``1`` for closed page, ``None`` for pure open page.
        mitigation: Optional Rowhammer mitigation hook.
        queue_depth: Controller queue lookahead for FR-FCFS (``1`` issues
            in arrival order).
    """

    def __init__(
        self,
        config: DRAMConfig,
        mapping,
        *,
        max_hits: Optional[int] = 16,
        mitigation: Optional[MitigationHook] = None,
        queue_depth: int = 32,
    ) -> None:
        check_max_hits(max_hits)
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.config = config
        self.mapping = mapping
        self.max_hits = max_hits
        self.mitigation = mitigation
        self.queue_depth = queue_depth
        self.banks: Dict[int, Bank] = {}
        self.stats = MemorySystemStats()
        self._window = 0  # index of the current tREFW window
        self._channel_blocked_until: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def _bank(self, flat: int) -> Bank:
        bank = self.banks.get(flat)
        if bank is None:
            bank = Bank(self.config.timing)
            self.banks[flat] = bank
        return bank

    def _service(
        self, line_addr: int, coord: Coordinate, arrival: float, now: float
    ) -> RequestResult:
        """Issue one request at time ``now`` and update all state."""
        if self.mitigation is not None:
            coord = self.mitigation.redirect(coord)
        self.config.validate_coordinate(coord)
        flat = self.config.flat_bank(coord)
        blocked = self._channel_blocked_until.get(coord.channel, 0.0)
        start = max(now, blocked)
        completion, activated = self._bank(flat).access(coord.row, start, max_hits=self.max_hits)

        stall = 0.0
        if activated:
            self.stats.activations += 1
            window = int(completion // TREFW_S)
            if window != self._window:
                # Trackers count per tREFW: however many boundaries were
                # crossed, the histogram folds and the mitigation resets once.
                if window < self._window:
                    raise ValueError("clock moved backwards across refresh windows")
                self._window = window
                self.stats.fold_window()
                if self.mitigation is not None:
                    self.mitigation.on_refresh_window()
            row_id = self.config.global_row(coord)
            self.stats.acts_per_row[row_id] = self.stats.acts_per_row.get(row_id, 0) + 1
            self.stats.window_acts_per_row[row_id] = (
                self.stats.window_acts_per_row.get(row_id, 0) + 1
            )
            if self.mitigation is not None:
                action = self.mitigation.on_activation(coord, completion)
                stall = action.stall_s
                if stall > 0.0:
                    self.stats.mitigation_stall_s += stall
                    completion += stall
                    if action.blocks_channel:
                        self._channel_blocked_until[coord.channel] = completion
        else:
            self.stats.hits += 1

        self.stats.accesses += 1
        self.stats.busy_until = max(self.stats.busy_until, completion)
        return RequestResult(
            line_addr=line_addr,
            coord=coord,
            arrival=arrival,
            start=start,
            completion=completion,
            activated=activated,
            mitigation_stall=stall,
        )

    # ------------------------------------------------------------------
    def access(self, line_addr: int, now: float) -> RequestResult:
        """Service a single request immediately (no queueing).

        Convenient for unit tests and micro-examples that need full
        control over issue times.
        """
        return self._service(line_addr, self.mapping.translate(line_addr), now, now)

    def run_trace(
        self,
        requests: Iterable[Request],
        *,
        collect_results: bool = False,
    ) -> List[RequestResult]:
        """Run a trace through the queued FR-FCFS front end.

        Requests enter the queue at their arrival times (the queue admits
        up to ``queue_depth`` future requests, and always one when it is
        empty).  First-ready FCFS picks the next one: the oldest queued
        request that hits an open row, otherwise the oldest request.  It
        maximizes row-buffer hits and so *minimizes* activations, the
        conservative choice for activation-driven mitigations.  Time
        advances to the later of the selected request's arrival and the
        current clock.

        Returns the per-request results when ``collect_results`` is set
        (kept optional to avoid holding large traces in memory).
        """
        pending = sorted(requests, key=lambda r: r.arrival)
        # Each entry: (line_addr, arrival, coord, flat bank), in arrival order.
        queue: List[Tuple[int, float, Coordinate, int]] = []
        results: List[RequestResult] = []
        translate, flat_bank, banks = self.mapping.translate, self.config.flat_bank, self.banks
        now = 0.0
        next_index = 0

        while next_index < len(pending) or queue:
            # Admit arrived (or imminently needed) requests up to depth.
            while next_index < len(pending) and len(queue) < self.queue_depth:
                req = pending[next_index]
                if req.arrival > now and queue:
                    break
                coord = translate(req.line_addr)
                queue.append((req.line_addr, req.arrival, coord, flat_bank(coord)))
                next_index += 1

            choice = 0
            for index, (_, _, coord, flat) in enumerate(queue):
                bank = banks.get(flat)
                if bank is not None and bank.state.open_row == coord.row:
                    choice = index
                    break
            line_addr, arrival, coord, _ = queue.pop(choice)
            now = max(now, arrival)
            result = self._service(line_addr, coord, arrival, now)
            now = result.completion
            if collect_results:
                results.append(result)
        return results


__all__ = [
    "MitigationAction",
    "MitigationHook",
    "Request",
    "RequestResult",
    "MemorySystemStats",
    "MemorySystem",
]
