"""The memory system's refresh window and page policy, seen through its results.

Activation counts are defined per tREFW = 64 ms: at a window boundary the
per-window histogram folds and the mitigation's trackers reset.  The page
policy is the open-adaptive budget ``max_hits`` every tier takes.
"""

import pytest

from repro.dram.config import DRAMConfig
from repro.dram.memory_system import MemorySystem, MitigationAction, Request
from repro.mapping.linear import LinearMapping


@pytest.fixture()
def config():
    return DRAMConfig(channels=1, ranks=1, banks=4, rows_per_bank=256)


class _ResetCounter:
    """Test double: a mitigation that only counts window resets."""

    def __init__(self):
        self.resets = 0

    def redirect(self, coord):
        return coord

    def on_activation(self, coord, now):
        return MitigationAction()

    def on_refresh_window(self):
        self.resets += 1


def _system(config, **kwargs):
    counter = _ResetCounter()
    return MemorySystem(config, LinearMapping(config), mitigation=counter, **kwargs), counter


def _row(config, k):
    """A line in row ``k`` of bank 0: consecutive ``k`` conflict and activate."""
    return k * config.lines_per_row * config.banks


class TestRefreshWindow:
    def test_no_boundary_within_window(self, config):
        system, counter = _system(config)
        for k, now in enumerate((0.0, 0.03, 0.05)):
            assert system.access(_row(config, k), now).activated
        assert counter.resets == 0
        assert system.stats.peak_window_row_acts == 0

    def test_single_boundary(self, config):
        system, counter = _system(config)
        system.access(_row(config, 0), 0.0)
        system.access(_row(config, 1), 0.065)
        assert counter.resets == 1
        assert system.stats.peak_window_row_acts == 1

    def test_multiple_boundaries(self, config):
        # One jump over three boundaries: the first window's histogram
        # folds once and the trackers reset once.
        system, counter = _system(config)
        for k, now in enumerate((0.0, 0.01, 0.02, 0.03)):
            system.access(_row(config, k % 2), now)
        assert system.access(_row(config, 0), 0.2).activated
        assert counter.resets == 1
        assert system.stats.peak_window_row_acts == 2
        assert system.stats.window_acts_per_row == {0: 1}
        assert system.stats.max_row_activations() == 2
        assert system.stats.acts_per_row == {0: 3, 1: 2}

    def test_incremental_advance(self, config):
        system, counter = _system(config)
        for k, now in enumerate((0.03, 0.07, 0.13, 0.13)):
            system.access(_row(config, k), now)
        assert counter.resets == 2

    def test_backwards_rejected(self, config):
        system, _ = _system(config)
        system.access(_row(config, 0), 0.2)
        # Another bank is free at once, so its access completes in an
        # earlier window than the one the clock reached.
        with pytest.raises(ValueError, match="backwards across refresh windows"):
            system.access(config.lines_per_row, 0.1)


class TestPagePolicies:
    """The budget holds under FR-FCFS, which groups a row's hits."""

    @staticmethod
    def _activations(config, accesses, **kwargs):
        system = MemorySystem(config, LinearMapping(config), **kwargs)
        system.run_trace([Request(line_addr=i % 8, arrival=i * 1e-9) for i in range(accesses)])
        return system.stats.activations

    def test_open_page_unlimited(self, config):
        assert self._activations(config, 100, max_hits=None) == 1

    def test_closed_page_single(self, config):
        assert self._activations(config, 20, max_hits=1) == 20

    def test_open_adaptive_default_is_paper_value(self, config):
        # ACT at accesses 1, 17 and 33.
        assert self._activations(config, 33) == 3
        assert self._activations(config, 33, max_hits=16) == 3

    def test_open_adaptive_custom(self, config):
        assert self._activations(config, 17, max_hits=8) == 3

    def test_open_adaptive_validates(self, config):
        with pytest.raises(ValueError, match="max_hits must be >= 1 or None, got 0"):
            MemorySystem(config, LinearMapping(config), max_hits=0)
