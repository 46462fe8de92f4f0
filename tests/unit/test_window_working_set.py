"""Working-set guard for one analysis window.

A window's transient memory is what ``peak_rss_mb`` of the repository
benchmark tracks, so it is pinned here in bytes per line: the traced
(``tracemalloc``) peak of one uncached ``Simulator.window_stats`` call
on a 1M-line window in the Table 1 baseline geometry.  The static path
translates in blocks straight to ``uint32`` row ids and analyzes them
without an ``intp`` permutation; the Rubix-D bound also covers the
chunked analyzer's dense per-row histogram (``int32`` over the 2^21-row
domain, about 8 bytes per line here).
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.rubix_d import RubixDMapping
from repro.core.rubix_s import RubixSMapping
from repro.dram.config import baseline_config
from repro.mapping.intel import CoffeeLakeMapping
from repro.perf.simulator import Simulator
from repro.workloads.trace import Trace, interleave

LINES = 1_000_000


def _window() -> Trace:
    """A mixed window: a hammered hot set, a sequential stream, a uniform pool."""
    config = baseline_config()
    rng = np.random.default_rng(0x5E7)
    quarter = LINES // 4
    hot = rng.integers(0, config.total_lines, size=64, dtype=np.uint64)
    hot = hot[rng.integers(0, hot.size, size=quarter)]
    stream = np.arange(1 << 20, (1 << 20) + quarter, dtype=np.uint64)
    pool = rng.integers(0, config.total_lines, size=LINES - 2 * quarter, dtype=np.uint64)
    return Trace("working-set", interleave([hot, stream, pool]), instructions=LINES)


@pytest.mark.parametrize(
    "build, bytes_per_line",
    [
        (lambda config: CoffeeLakeMapping(config), 20),
        (lambda config: RubixSMapping(config, gang_size=1), 20),
        (lambda config: RubixDMapping(config, gang_size=1), 30),
    ],
    ids=["coffeelake", "rubix-s-gs1", "rubix-d-gs1"],
)
def test_window_peak_bytes_per_line(build, bytes_per_line):
    trace = _window()
    assert len(trace) == LINES
    sim = Simulator()
    mapping = build(sim.config)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stats, _ = sim.window_stats(trace, mapping, use_cache=False)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert stats.n_accesses == LINES
    assert peak / LINES <= bytes_per_line, f"{peak / LINES:.1f} B/line"
