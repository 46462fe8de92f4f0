"""Command-level DDR4 protocol engine.

Where :mod:`repro.dram.memory_system` charges per-access latencies, this
engine issues explicit ACT/PRE/RD/WR/REF commands and enforces the full
constraint set: tRCD/tCL/tRP per bank, tRAS minimum row-open time, tRC
activate-to-activate, tRRD and the four-activate window (tFAW) per rank,
read/write-to-precharge recovery (tRTP/tWR), column-to-column spacing
(tCCD), a shared data bus, and periodic refresh (tREFI/tRFC).

It is the highest-fidelity tier in the repository -- used to validate
the cheaper tiers (activations must agree; latencies can only grow once
real constraints apply) and available to users who want command traces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.dram.commands import Command, CommandType, ProtocolTiming
from repro.dram.config import Coordinate, DRAMConfig
from repro.dram.fast_model import check_max_hits


@dataclass
class _BankState:
    open_row: Optional[int] = None
    last_act: float = float("-inf")
    precharged_at: float = 0.0        # earliest time an ACT may issue (after tRP)
    earliest_pre: float = 0.0         # tRAS / tRTP / tWR recovery
    hits_since_act: int = 0


@dataclass
class _RankState:
    act_times: Deque[float] = field(default_factory=lambda: deque(maxlen=4))
    last_act: float = float("-inf")
    next_refresh_due: float = 0.0
    refresh_until: float = 0.0
    refreshes: int = 0


@dataclass(frozen=True)
class AccessOutcome:
    """Result of one serviced request at command level."""

    commands: Tuple[Command, ...]
    start: float
    data_ready: float
    activated: bool

    @property
    def latency(self) -> float:
        return self.data_ready - self.start


class ProtocolEngine:
    """Issues legal DDR command sequences for a stream of requests.

    Requests are serviced in order (FCFS); the engine computes the
    earliest legal issue time for every command it emits.  Use
    ``collect_commands=False`` (default) to skip storing command objects
    on long runs.

    Args:
        config: Geometry (channels/ranks/banks/rows).
        timing: Full constraint set (validated on construction).
        max_hits: Open-adaptive row-buffer budget (16, per Table 1).
        collect_commands: Keep every issued Command for inspection.
    """

    def __init__(
        self,
        config: DRAMConfig,
        timing: Optional[ProtocolTiming] = None,
        *,
        max_hits: Optional[int] = 16,
        collect_commands: bool = False,
    ) -> None:
        check_max_hits(max_hits)
        self.config = config
        self.timing = timing or ProtocolTiming()
        self.timing.validate()
        self.max_hits = max_hits
        self.collect_commands = collect_commands
        self._banks: Dict[Tuple[int, int, int], _BankState] = {}
        self._ranks: Dict[Tuple[int, int], _RankState] = {}
        self._bus_free: Dict[int, float] = {}
        self.commands: List[Command] = []
        self.counts: Dict[CommandType, int] = {kind: 0 for kind in CommandType}

    # ------------------------------------------------------------------
    def _bank(self, coord: Coordinate) -> _BankState:
        key = (coord.channel, coord.rank, coord.bank)
        state = self._banks.get(key)
        if state is None:
            state = _BankState()
            self._banks[key] = state
        return state

    def _rank(self, coord: Coordinate) -> _RankState:
        key = (coord.channel, coord.rank)
        state = self._ranks.get(key)
        if state is None:
            state = _RankState(next_refresh_due=self.timing.t_refi)
            self._ranks[key] = state
        return state

    def _emit(self, kind: CommandType, coord: Coordinate, when: float) -> None:
        self.counts[kind] += 1
        if self.collect_commands:
            self.commands.append(
                Command(
                    kind=kind,
                    channel=coord.channel,
                    rank=coord.rank,
                    bank=coord.bank,
                    row=coord.row,
                    col=coord.col,
                    issue_time=when,
                )
            )

    # ------------------------------------------------------------------
    def _maybe_refresh(self, coord: Coordinate, now: float) -> float:
        """Issue due refreshes for the rank; returns when it is usable."""
        rank = self._rank(coord)
        t = self.timing
        while now >= rank.next_refresh_due:
            start = max(rank.next_refresh_due, rank.refresh_until)
            # All banks of the rank must be precharged: wait out any
            # in-flight row (approximated by the latest earliest_pre).
            rank.refresh_until = start + t.t_rfc
            rank.next_refresh_due += t.t_refi
            rank.refreshes += 1
            self._emit(CommandType.REF, coord, start)
            # Refresh closes every row in the rank.
            for (ch, rk, _), bank in self._banks.items():
                if ch == coord.channel and rk == coord.rank:
                    bank.open_row = None
                    bank.precharged_at = max(bank.precharged_at, rank.refresh_until)
        return max(now, rank.refresh_until)

    def _earliest_act(self, coord: Coordinate, now: float) -> float:
        bank = self._bank(coord)
        rank = self._rank(coord)
        t = self.timing
        earliest = max(now, bank.precharged_at, bank.last_act + t.t_rc)
        earliest = max(earliest, rank.last_act + t.t_rrd)
        if len(rank.act_times) == rank.act_times.maxlen:
            earliest = max(earliest, rank.act_times[0] + t.t_faw)
        return earliest

    def _bus_slot(self, channel: int, earliest: float) -> float:
        free = self._bus_free.get(channel, 0.0)
        slot = max(earliest, free)
        self._bus_free[channel] = slot + max(self.timing.t_burst, self.timing.t_ccd)
        return slot

    # ------------------------------------------------------------------
    def access(self, coord: Coordinate, now: float, *, is_write: bool = False) -> AccessOutcome:
        """Service one request; returns the command-level outcome."""
        self.config.validate_coordinate(coord)
        t = self.timing
        start = self._maybe_refresh(coord, now)
        bank = self._bank(coord)
        rank = self._rank(coord)
        commands: List[Command] = []
        activated = False

        row_open = bank.open_row == coord.row
        budget_ok = self.max_hits is None or bank.hits_since_act < self.max_hits
        if not (row_open and budget_ok):
            if bank.open_row is not None or (row_open and not budget_ok):
                # Close the current row first (explicit PRE).
                pre_time = max(start, bank.earliest_pre)
                self._emit(CommandType.PRE, coord, pre_time)
                bank.open_row = None
                bank.precharged_at = pre_time + t.t_rp
            act_time = self._earliest_act(coord, max(start, bank.precharged_at))
            self._emit(CommandType.ACT, coord, act_time)
            activated = True
            bank.open_row = coord.row
            bank.last_act = act_time
            bank.hits_since_act = 0
            bank.earliest_pre = act_time + t.t_ras
            rank.last_act = act_time
            rank.act_times.append(act_time)
            column_ready = act_time + t.t_rcd
        else:
            column_ready = start

        kind = CommandType.WR if is_write else CommandType.RD
        column_time = self._bus_slot(coord.channel, column_ready)
        self._emit(kind, coord, column_time)
        bank.hits_since_act += 1
        if is_write:
            data_ready = column_time + t.t_cwl + t.t_burst
            bank.earliest_pre = max(bank.earliest_pre, data_ready + t.t_wr)
        else:
            data_ready = column_time + t.t_cl + t.t_burst
            bank.earliest_pre = max(bank.earliest_pre, column_time + t.t_rtp)

        if self.collect_commands:
            commands = self.commands[-3:]
        return AccessOutcome(
            commands=tuple(commands),
            start=start,
            data_ready=data_ready,
            activated=activated,
        )

    # ------------------------------------------------------------------
    @property
    def activations(self) -> int:
        return self.counts[CommandType.ACT]

    @property
    def refreshes(self) -> int:
        return self.counts[CommandType.REF]

    def run_trace(
        self,
        mapping,
        lines,
        *,
        inter_arrival_s: float = 10e-9,
        write_every: int = 0,
    ) -> "ProtocolStats":
        """Run a line-address trace in order through the engine.

        Args:
            mapping: Address mapping (``translate``, and ideally
                ``translate_trace`` -- see below).
            lines: Iterable of line addresses.
            inter_arrival_s: Request spacing at the controller.
            write_every: Every Nth request is a write (0 = all reads).

        When the mapping provides ``translate_trace`` and ``lines`` is a
        materialized sequence, the whole batch is translated in one
        vectorized pass and the per-request loop iterates decoded
        coordinates -- for cipher- or engine-backed mappings that is the
        difference between one vector pass and one full scalar
        translation per line.  Command sequencing is unchanged.
        """
        coords = None
        if hasattr(mapping, "translate_trace") and isinstance(
            lines, (np.ndarray, list, tuple)
        ):
            mapped = mapping.translate_trace(lines)
            coords = mapped.iter_coordinates(self.config)
        if coords is None:
            coords = (mapping.translate(int(line)) for line in lines)
        total_latency = 0.0
        n = 0
        last_ready = 0.0
        for index, coord in enumerate(coords):
            now = max(index * inter_arrival_s, 0.0)
            is_write = write_every > 0 and index % write_every == 0
            outcome = self.access(coord, now, is_write=is_write)
            total_latency += outcome.latency
            last_ready = max(last_ready, outcome.data_ready)
            n += 1
        return ProtocolStats(
            accesses=n,
            activations=self.activations,
            precharges=self.counts[CommandType.PRE],
            reads=self.counts[CommandType.RD],
            writes=self.counts[CommandType.WR],
            refreshes=self.refreshes,
            avg_latency_s=total_latency / n if n else 0.0,
            makespan_s=last_ready,
        )


@dataclass(frozen=True)
class ProtocolStats:
    """Aggregate command-level statistics for a run."""

    accesses: int
    activations: int
    precharges: int
    reads: int
    writes: int
    refreshes: int
    avg_latency_s: float
    makespan_s: float

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return 1.0 - self.activations / self.accesses


__all__ = ["ProtocolEngine", "AccessOutcome", "ProtocolStats"]
