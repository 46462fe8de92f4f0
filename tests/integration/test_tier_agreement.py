"""Cross-validation: the fast vectorized analyzer against the detailed
event-driven memory system.

The fast tier models an in-order per-bank stream; the detailed tier adds
FR-FCFS reordering within a finite queue.  On in-order-issued traces the
two must agree exactly on activation counts and per-row histograms; with
reordering the detailed tier can only *increase* row locality.
"""

import numpy as np
import pytest

from repro.dram.config import DRAMConfig
from repro.dram.fast_model import analyze_trace
from repro.dram.memory_system import MemorySystem, Request
from repro.mapping.intel import CoffeeLakeMapping, SkylakeMapping
from repro.mapping.linear import LinearMapping


@pytest.fixture(scope="module")
def config():
    return DRAMConfig(channels=1, ranks=1, banks=4, rows_per_bank=512)


def _random_lines(config, n, seed=0):
    rng = np.random.default_rng(seed)
    # Mix of sequential runs and random jumps to exercise hits and
    # conflicts.
    seq = np.arange(n // 2, dtype=np.uint64) % np.uint64(config.total_lines)
    rand = rng.integers(0, config.total_lines, n - n // 2, dtype=np.uint64)
    out = np.empty(n, dtype=np.uint64)
    out[0::2] = seq
    out[1::2] = rand
    return out


@pytest.mark.parametrize("mapping_cls", [LinearMapping, CoffeeLakeMapping, SkylakeMapping])
def test_fcfs_matches_fast_model_exactly(config, mapping_cls):
    mapping = mapping_cls(config)
    lines = _random_lines(config, 3000)

    mapped = mapping.translate_trace(lines)
    fast = analyze_trace(
        mapped.global_row, rows_per_bank=config.rows_per_bank, max_hits=16
    )

    system = MemorySystem(config, mapping, queue_depth=1)
    # Issue back-to-back: arrival order == service order.
    requests = [Request(line_addr=int(line), arrival=i * 1e-9) for i, line in enumerate(lines)]
    system.run_trace(requests)

    assert system.stats.accesses == fast.n_accesses
    assert system.stats.activations == fast.n_activations
    assert system.stats.hits == fast.n_hits
    detailed_hist = system.stats.acts_per_row
    fast_hist = dict(zip(fast.row_ids.tolist(), fast.acts_per_row.tolist()))
    assert detailed_hist == fast_hist


def test_frfcfs_only_improves_locality(config):
    mapping = CoffeeLakeMapping(config)
    lines = _random_lines(config, 3000, seed=1)
    mapped = mapping.translate_trace(lines)
    fast = analyze_trace(
        mapped.global_row, rows_per_bank=config.rows_per_bank, max_hits=16
    )
    system = MemorySystem(config, mapping, queue_depth=16)
    requests = [Request(line_addr=int(line), arrival=i * 1e-9) for i, line in enumerate(lines)]
    system.run_trace(requests)
    # FR-FCFS groups row hits, so activations cannot exceed the
    # in-order count (and the totals still match).
    assert system.stats.accesses == fast.n_accesses
    assert system.stats.activations <= fast.n_activations
    assert system.stats.activations > 0


def test_open_page_agreement(config):
    mapping = LinearMapping(config)
    lines = _random_lines(config, 2000, seed=2)
    mapped = mapping.translate_trace(lines)
    fast = analyze_trace(
        mapped.global_row, rows_per_bank=config.rows_per_bank, max_hits=None
    )
    system = MemorySystem(config, mapping, max_hits=None, queue_depth=1)
    requests = [Request(line_addr=int(line), arrival=i * 1e-9) for i, line in enumerate(lines)]
    system.run_trace(requests)
    assert system.stats.activations == fast.n_activations
