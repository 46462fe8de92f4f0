"""Integration: mitigations running inside the detailed memory system.

The unit tests poke mitigation classes directly; these tests run real
(small) workloads through the queued FR-FCFS front end with a mitigation
attached and check that the machinery composes: redirects apply to
subsequent requests, stalls appear in the latency accounting, and
per-window activation bounds hold on *benign* traffic too.
"""

import numpy as np
import pytest

from repro.core.rubix_s import RubixSMapping
from repro.dram.config import DRAMConfig
from repro.dram.memory_system import MemorySystem, Request
from repro.mapping.intel import CoffeeLakeMapping
from repro.mitigations.aqua import AQUA
from repro.mitigations.blockhammer import Blockhammer
from repro.mitigations.srs import SRS
from repro.workloads.attacks import double_sided_attack

T_RH = 128


@pytest.fixture(scope="module")
def config():
    return DRAMConfig(channels=1, ranks=1, banks=4, rows_per_bank=2048)


def _benign_hotspot_trace(config, accesses=6000, seed=0):
    """Benign-like traffic: most accesses hammer 4 'hot pages', the rest
    spray -- enough to cross AQUA/SRS thresholds a handful of times."""
    rng = np.random.default_rng(seed)
    row_stride = config.lines_per_row * config.banks
    hot = rng.integers(0, 4, accesses) * row_stride + rng.integers(
        0, config.lines_per_row, accesses
    )
    cold = rng.integers(10, 500, accesses) * row_stride + rng.integers(
        0, config.lines_per_row, accesses
    )
    lines = np.where(rng.random(accesses) < 0.7, hot, cold).astype(np.uint64)
    return [Request(line_addr=int(line), arrival=i * 60e-9) for i, line in enumerate(lines)]


class TestAQUADetailed:
    def test_migrations_and_redirects(self, config):
        aqua = AQUA(config, T_RH)
        system = MemorySystem(config, CoffeeLakeMapping(config), mitigation=aqua)
        system.run_trace(_benign_hotspot_trace(config))
        assert aqua.migrations >= 4  # each hot page crosses 64 acts
        # Quarantine rows absorbed follow-on activations.
        quarantine_rows = [
            row
            for row in system.stats.acts_per_row
            if aqua.is_quarantine_row(row)
        ]
        assert quarantine_rows
        assert system.stats.max_row_activations() <= T_RH

    def test_channel_stall_accounted(self, config):
        aqua = AQUA(config, T_RH)
        system = MemorySystem(config, CoffeeLakeMapping(config), mitigation=aqua)
        system.run_trace(_benign_hotspot_trace(config))
        assert system.stats.mitigation_stall_s == pytest.approx(
            aqua.migrations * aqua.costs.migration_s
        )

    def test_migration_stall_blocks_channel(self, config):
        # Hammer one row past the tracker threshold: conflict-alternate
        # two same-bank rows (built via the mapping inverse, so the bank
        # hash cannot route them apart).
        aqua = AQUA(config, T_RH)
        mapping = CoffeeLakeMapping(config)
        system = MemorySystem(config, mapping, mitigation=aqua)
        attack = double_sided_attack(mapping, victim_row=600, activations_per_side=80)
        results = system.run_trace(
            [Request(int(line), i * 60e-9) for i, line in enumerate(attack.lines)],
            collect_results=True,
        )
        assert aqua.migrations >= 1
        stalled = [r for r in results if r.mitigation_stall > 0]
        assert len(stalled) == aqua.migrations
        assert system.stats.mitigation_stall_s > 0
        # A request to another bank issued mid-migration waits for it.
        last = stalled[-1]
        probe = system.access(config.lines_per_row, last.completion - last.mitigation_stall)
        assert probe.coord.channel == last.coord.channel
        assert probe.start >= last.completion


class TestSRSDetailed:
    def test_swaps_bound_window_activations(self, config):
        srs = SRS(config, T_RH)
        system = MemorySystem(config, CoffeeLakeMapping(config), mitigation=srs)
        system.run_trace(_benign_hotspot_trace(config, seed=1))
        assert srs.swaps >= 4
        assert system.stats.max_row_activations() <= T_RH

    def test_srs_with_rubix_mapping(self, config):
        baseline_srs = SRS(config, T_RH)
        baseline = MemorySystem(
            config, CoffeeLakeMapping(config), mitigation=baseline_srs
        )
        baseline.run_trace(_benign_hotspot_trace(config, seed=2))

        srs = SRS(config, T_RH)
        mapping = RubixSMapping(config, gang_size=4, seed=11)
        system = MemorySystem(config, mapping, mitigation=srs)
        system.run_trace(_benign_hotspot_trace(config, seed=2))
        # Rubix scatters the hot pages: each gang lands near (sometimes
        # past) the T/3 threshold, but swaps drop by a large factor.
        assert srs.swaps < baseline_srs.swaps / 4
        assert system.stats.max_row_activations() <= T_RH


class TestBlockhammerDetailed:
    def test_throttling_emerges_and_bounds_rows(self, config):
        bh = Blockhammer(config, T_RH)
        system = MemorySystem(config, CoffeeLakeMapping(config), mitigation=bh)
        system.run_trace(_benign_hotspot_trace(config, seed=3))
        assert bh.throttled_activations > 0
        assert system.stats.max_row_activations() <= T_RH

    def test_rubix_eliminates_throttling(self, config):
        bh = Blockhammer(config, T_RH)
        mapping = RubixSMapping(config, gang_size=1, seed=4)
        system = MemorySystem(config, mapping, mitigation=bh)
        system.run_trace(_benign_hotspot_trace(config, seed=3))
        assert bh.throttled_activations == 0
