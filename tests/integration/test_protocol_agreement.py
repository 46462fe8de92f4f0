"""Cross-validation: protocol engine vs the cheaper tiers.

Within one refresh interval the row-buffer *decisions* (hit vs activate)
are policy-determined and identical across tiers; the protocol engine's
constraints only move command times.  So on short in-order traces the
three tiers must agree exactly on activation counts, and the protocol
engine's latencies can only exceed the simple model's.
"""

import numpy as np
import pytest

from repro.dram.config import DRAMConfig
from repro.dram.fast_model import analyze_trace
from repro.dram.memory_system import MemorySystem, Request
from repro.dram.protocol import ProtocolEngine
from repro.mapping.intel import CoffeeLakeMapping
from repro.mapping.linear import LinearMapping


@pytest.fixture(scope="module")
def config():
    return DRAMConfig(channels=1, ranks=1, banks=4, rows_per_bank=512)


def _mixed_lines(config, n, seed=0):
    rng = np.random.default_rng(seed)
    seq = np.arange(n // 2, dtype=np.uint64) % np.uint64(config.total_lines)
    rand = rng.integers(0, config.total_lines, n - n // 2, dtype=np.uint64)
    out = np.empty(n, dtype=np.uint64)
    out[0::2] = seq
    out[1::2] = rand
    return out


@pytest.mark.parametrize("mapping_cls", [LinearMapping, CoffeeLakeMapping])
@pytest.mark.parametrize("max_hits", [1, 4, 16, None])
def test_three_tiers_agree_on_activations(config, mapping_cls, max_hits):
    mapping = mapping_cls(config)
    lines = _mixed_lines(config, 600)

    # Tier 1: vectorized analyzer.
    mapped = mapping.translate_trace(lines)
    fast = analyze_trace(
        mapped.global_row, rows_per_bank=config.rows_per_bank, max_hits=max_hits
    )

    # Tier 2: event-level model, in order (a one-entry queue).
    system = MemorySystem(config, mapping, max_hits=max_hits, queue_depth=1)
    system.run_trace([Request(int(line), i * 1e-9) for i, line in enumerate(lines)])

    # Tier 3: command-level protocol engine (10 ns arrivals keep the run
    # far inside the first tREFI, so no refresh interferes).
    engine = ProtocolEngine(config, max_hits=max_hits)
    stats = engine.run_trace(mapping, lines, inter_arrival_s=1e-9)

    assert fast.n_activations == system.stats.activations == stats.activations
    assert stats.refreshes == 0


#: Each tier built or run with a given budget.  The analyzer gets an empty
#: window: the budget is checked before any work, as the others check it
#: on construction.
_TIERS = {
    "analyze_trace": lambda config, max_hits: analyze_trace(
        np.arange(0), rows_per_bank=config.rows_per_bank, max_hits=max_hits
    ),
    "MemorySystem": lambda config, max_hits: MemorySystem(
        config, LinearMapping(config), max_hits=max_hits
    ),
    "ProtocolEngine": lambda config, max_hits: ProtocolEngine(config, max_hits=max_hits),
}


@pytest.mark.parametrize("tier", sorted(_TIERS))
@pytest.mark.parametrize("max_hits", [0, -1])
def test_every_tier_rejects_a_budget_below_one(config, tier, max_hits):
    with pytest.raises(ValueError, match=f"max_hits must be >= 1 or None, got {max_hits}"):
        _TIERS[tier](config, max_hits)


def test_protocol_latency_never_below_simple_model(config):
    mapping = CoffeeLakeMapping(config)
    lines = _mixed_lines(config, 300, seed=3)
    engine = ProtocolEngine(config, max_hits=16)
    stats = engine.run_trace(mapping, lines, inter_arrival_s=1e-9)
    # The simple model's best case is a row hit: tCL + burst.
    t = config.timing
    assert stats.avg_latency_s >= t.row_hit_latency - 1e-12


def test_refresh_adds_activations_on_long_runs(config):
    mapping = LinearMapping(config)
    # Re-touch the same row every 10 us for 100 touches: each refresh in
    # between closes it, forcing a re-activation the fast tier (which is
    # refresh-oblivious) does not see.
    engine = ProtocolEngine(config, max_hits=None)
    acts = 0
    for i in range(100):
        outcome = engine.access(mapping.translate(0), i * 10e-6)
        acts += outcome.activated
    assert engine.refreshes > 100  # many tREFI intervals elapsed
    assert acts > 50  # nearly every touch re-activates
