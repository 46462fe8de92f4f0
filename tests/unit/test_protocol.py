"""Unit tests for the command-level DDR4 protocol engine."""

import numpy as np
import pytest

from repro.dram.commands import Command, CommandType, ProtocolTiming
from repro.dram.config import Coordinate, DRAMConfig
from repro.dram.protocol import ProtocolEngine
from repro.mapping.intel import CoffeeLakeMapping
from repro.mapping.linear import LinearMapping


@pytest.fixture()
def config():
    return DRAMConfig(channels=1, ranks=1, banks=4, rows_per_bank=1024)


@pytest.fixture()
def engine(config):
    return ProtocolEngine(config, collect_commands=True)


def _coord(row, bank=0, col=0):
    return Coordinate(channel=0, rank=0, bank=bank, row=row, col=col)


class TestTimingValidation:
    def test_default_set_valid(self):
        ProtocolTiming().validate()

    def test_inconsistent_ras_rc_rejected(self):
        with pytest.raises(ValueError):
            ProtocolTiming(t_ras=50e-9, t_rp=20e-9, t_rc=45e-9).validate()

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            ProtocolTiming(t_rcd=0.0).validate()

    def test_command_str(self):
        cmd = Command(CommandType.ACT, 0, 0, 1, 5, 0, 10e-9)
        assert "ACT" in str(cmd)


class TestRowBufferBehaviour:
    def test_first_access_activates(self, engine):
        outcome = engine.access(_coord(5), 0.0)
        assert outcome.activated
        t = engine.timing
        assert outcome.latency == pytest.approx(t.t_rcd + t.t_cl + t.t_burst, rel=0.01)

    def test_hit_skips_activation(self, engine):
        first = engine.access(_coord(5), 0.0)
        second = engine.access(_coord(5, col=1), first.data_ready)
        assert not second.activated
        assert second.latency < first.latency

    def test_conflict_pays_precharge(self, engine):
        first = engine.access(_coord(5), 0.0)
        second = engine.access(_coord(6), first.data_ready)
        assert second.activated
        assert engine.counts[CommandType.PRE] == 1
        assert second.latency > first.latency

    def test_open_adaptive_budget(self, config):
        engine = ProtocolEngine(config, max_hits=4)
        now = 0.0
        for _ in range(9):
            outcome = engine.access(_coord(7), now)
            now = outcome.data_ready + 1e-9
        assert engine.activations == 3  # ACT at 1, 5, 9


class TestRankConstraints:
    def test_tras_delays_early_precharge(self, engine):
        t = engine.timing
        first = engine.access(_coord(5), 0.0)
        # Conflict immediately: the PRE must wait for tRAS after the ACT.
        second = engine.access(_coord(6), first.data_ready)
        act_cmds = [c for c in engine.commands if c.kind is CommandType.ACT]
        pre_cmds = [c for c in engine.commands if c.kind is CommandType.PRE]
        assert pre_cmds[0].issue_time >= act_cmds[0].issue_time + t.t_ras - 1e-12
        assert act_cmds[1].issue_time >= act_cmds[0].issue_time + t.t_rc - 1e-12

    def test_trrd_spaces_cross_bank_acts(self, engine):
        t = engine.timing
        engine.access(_coord(5, bank=0), 0.0)
        engine.access(_coord(5, bank=1), 0.0)
        acts = [c for c in engine.commands if c.kind is CommandType.ACT]
        assert acts[1].issue_time - acts[0].issue_time >= t.t_rrd - 1e-12

    def test_tfaw_limits_act_bursts(self, config):
        engine = ProtocolEngine(config, collect_commands=True)
        t = engine.timing
        for bank in range(4):
            engine.access(_coord(10 + bank, bank=bank), 0.0)
        # A fifth ACT in the same rank must wait out the 4-ACT window.
        engine.access(_coord(99, bank=0), 0.0)
        acts = sorted(
            c.issue_time for c in engine.commands if c.kind is CommandType.ACT
        )
        assert acts[4] >= acts[0] + t.t_faw - 1e-12


class TestRefresh:
    def test_refresh_issued_every_trefi(self, config):
        engine = ProtocolEngine(config)
        # Walk time past several tREFI intervals.
        row = 0
        for step in range(5):
            engine.access(_coord(row + step), step * 20e-6)
        assert engine.refreshes >= 10  # 80us / 7.8us

    def test_refresh_closes_rows(self, config):
        engine = ProtocolEngine(config)
        engine.access(_coord(5), 0.0)
        outcome = engine.access(_coord(5), 20e-6)  # after a refresh
        assert outcome.activated  # the refresh closed the row

    def test_no_refresh_in_short_run(self, config):
        engine = ProtocolEngine(config)
        engine.access(_coord(5), 0.0)
        assert engine.refreshes == 0


class TestDataBus:
    def test_bursts_serialize_on_channel(self, engine):
        t = engine.timing
        engine.access(_coord(5, bank=0), 0.0)
        engine.access(_coord(5, bank=1), 0.0)
        reads = [c for c in engine.commands if c.kind is CommandType.RD]
        assert reads[1].issue_time - reads[0].issue_time >= t.t_burst - 1e-12

    def test_write_recovery_delays_precharge(self, engine):
        t = engine.timing
        first = engine.access(_coord(5), 0.0, is_write=True)
        engine.access(_coord(6), first.data_ready)
        pre = [c for c in engine.commands if c.kind is CommandType.PRE][0]
        assert pre.issue_time >= first.data_ready + t.t_wr - 1e-12


class TestRunTrace:
    def test_stats_consistent(self, config):
        engine = ProtocolEngine(config)
        mapping = LinearMapping(config)
        lines = np.arange(500, dtype=np.uint64)
        stats = engine.run_trace(mapping, lines)
        assert stats.accesses == 500
        assert stats.reads == 500
        assert stats.activations + 0 <= 500
        assert 0 <= stats.hit_rate <= 1
        assert stats.makespan_s > 0

    def test_write_mix(self, config):
        engine = ProtocolEngine(config)
        mapping = LinearMapping(config)
        stats = engine.run_trace(mapping, np.arange(100, dtype=np.uint64), write_every=4)
        assert stats.writes == 25
        assert stats.reads == 75

    def test_every_latency_covers_cas_and_burst(self, config):
        """Served in order, with hits, misses and conflicts mixed, no
        request's data is ready sooner than tCL + tBurst after it issues."""
        engine = ProtocolEngine(config)
        mapping = CoffeeLakeMapping(config)
        spread = np.random.default_rng(0).integers(0, config.total_lines, 200, dtype=np.uint64)
        lines = np.repeat(spread, 2)  # each line twice: a miss, then a hit
        t = engine.timing
        clock = 0.0
        for index, line in enumerate(lines):
            clock = max(clock, index * 5e-9)
            outcome = engine.access(mapping.translate(int(line)), clock)
            assert outcome.start >= clock
            assert outcome.latency >= t.t_cl + t.t_burst - 1e-12
            clock = outcome.data_ready
        assert 0 < engine.activations < 400

    def test_sequential_trace_mostly_hits(self, config):
        engine = ProtocolEngine(config)
        mapping = LinearMapping(config)
        stats = engine.run_trace(mapping, np.arange(1000, dtype=np.uint64))
        assert stats.hit_rate > 0.85
