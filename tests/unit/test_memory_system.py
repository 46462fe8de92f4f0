"""Unit tests for the detailed memory system."""

import dataclasses

import pytest

from repro.dram.config import DRAMConfig
from repro.dram.memory_system import MemorySystem, MitigationAction, Request
from repro.mapping.linear import LinearMapping


@pytest.fixture()
def config():
    return DRAMConfig(channels=1, ranks=1, banks=4, rows_per_bank=256)


@pytest.fixture()
def system(config):
    return MemorySystem(config, LinearMapping(config))


class TestSingleAccess:
    def test_first_access_activates(self, system):
        result = system.access(0, 0.0)
        assert result.activated
        assert system.stats.activations == 1

    def test_same_row_hits(self, system, config):
        system.access(0, 0.0)
        result = system.access(1, 1e-6)  # adjacent line, same row
        assert not result.activated
        assert system.stats.hits == 1

    def test_conflict_reactivates(self, system, config):
        lines_per_row = config.lines_per_row
        banks = config.banks
        system.access(0, 0.0)
        # Same bank, next row: linear layout strides by banks*lines_per_row.
        other = lines_per_row * banks
        result = system.access(other, 1e-6)
        assert result.activated

    def test_histogram_tracks_rows(self, system):
        system.access(0, 0.0)
        system.access(0, 1e-6)
        assert system.stats.max_row_activations() == 1


class TestPagePolicies:
    def test_closed_page_always_activates(self, config):
        system = MemorySystem(config, LinearMapping(config), max_hits=1)
        now = 0.0
        for _ in range(5):
            now = system.access(0, now + 1e-6).completion
        # Closed page: budget of 1 access per activation.
        assert system.stats.activations == 5

    def test_open_adaptive_budget(self, config):
        system = MemorySystem(config, LinearMapping(config), max_hits=4)
        now = 0.0
        for _ in range(9):
            now = system.access(0, now + 1e-6).completion
        # ACT at accesses 1, 5, 9.
        assert system.stats.activations == 3


class TestRunTrace:
    def test_fcfs_order_preserved(self, config):
        # At queue depth 1 the controller issues in arrival order: each
        # request is the access() of its line at the later of its arrival
        # and the previous completion.
        row_stride = config.lines_per_row * config.banks
        lines = [(i * 7 % 5) * row_stride + i % 3 for i in range(40)]
        requests = [Request(line_addr=line, arrival=i * 2e-8) for i, line in enumerate(lines)]
        queued = MemorySystem(
            config, LinearMapping(config), mitigation=_StallMitigation(1e-7), queue_depth=1
        )
        results = queued.run_trace(requests, collect_results=True)
        direct = MemorySystem(config, LinearMapping(config), mitigation=_StallMitigation(1e-7))
        now, expected = 0.0, []
        for request in requests:
            result = direct.access(request.line_addr, max(now, request.arrival))
            now = result.completion
            expected.append(dataclasses.replace(result, arrival=request.arrival))
        assert [r.line_addr for r in results] == lines
        assert results == expected
        assert queued.stats == direct.stats

    def test_frfcfs_prefers_row_hits(self, config):
        system = MemorySystem(config, LinearMapping(config), queue_depth=4)
        row_stride = config.lines_per_row * config.banks
        # Open row 0 (line 0), then queue a conflicting row and a hit.
        requests = [
            Request(line_addr=0, arrival=0.0),
            Request(line_addr=row_stride, arrival=1e-9),  # conflict
            Request(line_addr=1, arrival=2e-9),  # hit on open row
        ]
        results = system.run_trace(requests, collect_results=True)
        served = [r.line_addr for r in results]
        # FR-FCFS serves the row hit (line 1) before the conflict.
        assert served.index(1) < served.index(row_stride)

    def test_all_requests_served(self, config):
        system = MemorySystem(config, LinearMapping(config))
        requests = [Request(line_addr=i * 7, arrival=i * 1e-8) for i in range(100)]
        results = system.run_trace(requests, collect_results=True)
        assert len(results) == 100
        assert system.stats.accesses == 100

    def test_latency_nonnegative(self, config):
        system = MemorySystem(config, LinearMapping(config))
        requests = [Request(line_addr=i, arrival=0.0) for i in range(10)]
        for result in system.run_trace(requests, collect_results=True):
            assert result.latency >= 0


class _StallMitigation:
    """Test double: stalls the channel a fixed time on every activation."""

    def __init__(self, stall, blocks_channel=True):
        self.stall = stall
        self.blocks_channel = blocks_channel
        self.window_resets = 0

    def redirect(self, coord):
        return coord

    def on_activation(self, coord, now):
        return MitigationAction(stall_s=self.stall, blocks_channel=self.blocks_channel)

    def on_refresh_window(self):
        self.window_resets += 1


class TestMitigationHook:
    def test_stall_charged(self, config):
        mitigation = _StallMitigation(1e-6)
        system = MemorySystem(config, LinearMapping(config), mitigation=mitigation)
        result = system.access(0, 0.0)
        assert result.mitigation_stall == pytest.approx(1e-6)
        assert system.stats.mitigation_stall_s == pytest.approx(1e-6)

    def test_channel_block_delays_next(self, config):
        mitigation = _StallMitigation(1e-3)
        system = MemorySystem(config, LinearMapping(config), mitigation=mitigation)
        first = system.access(0, 0.0)
        # Next request to another bank still waits on the blocked channel.
        second = system.access(config.lines_per_row, first.completion - 1e-3 + 1e-9)
        assert second.start >= first.completion - 1e-12

    def test_non_blocking_stall_frees_channel(self, config):
        mitigation = _StallMitigation(1e-3, blocks_channel=False)
        system = MemorySystem(config, LinearMapping(config), mitigation=mitigation)
        first = system.access(0, 0.0)
        second = system.access(config.lines_per_row, 1e-6)
        assert second.start < first.completion

    def test_window_reset_propagates(self, config):
        mitigation = _StallMitigation(0.0)
        system = MemorySystem(config, LinearMapping(config), mitigation=mitigation)
        system.access(0, 0.0)
        system.access(config.lines_per_row * config.banks, 0.065)  # past tREFW
        assert mitigation.window_resets == 1

    def test_window_histogram_folds(self, config):
        system = MemorySystem(config, LinearMapping(config))
        system.access(0, 0.0)
        system.access(config.lines_per_row * config.banks, 0.065)
        assert system.stats.peak_window_row_acts == 1
        assert system.stats.max_row_activations() == 1


class TestValidation:
    def test_queue_depth_validated(self, config):
        with pytest.raises(ValueError):
            MemorySystem(config, LinearMapping(config), queue_depth=0)
