"""Working-set guards for one analysis window and its cached statistics.

A window's transient memory is what ``peak_rss_mb`` of the repository
benchmark tracks, so it is pinned here in bytes per line: the traced
(``tracemalloc``) peak of one uncached ``Simulator.window_stats`` call
on a 1M-line window in the Table 1 baseline geometry.  The static path
translates in blocks straight to ``uint32`` row ids and hands them to
the analyzer, which groups them by bank into one ``int32`` copy, drops
them, and counts activations inside that copy: the window peaks at the
ids plus the grouped copy (measured 8.6 B/line; the bound is 10).  A
Rubix-D window shorter than the simulator's ``chunk_lines`` is one
chunk, whose own statistics are the window's, so it builds no per-row
histogram and is held to the same bound.  The multi-chunk Rubix-D case
keeps a looser one: it covers the chunked analyzer's dense per-row
histogram (``int32`` over the 2^21-row domain, about 8 bytes per line
here; measured 19.8, bound 22).  The window holds four-byte lines, and
neither Table 3's whole-window translation nor Rubix-D's v-group count
may widen them.

These are anonymous (numpy) allocations over an in-memory trace.
``tracemalloc`` cannot see the file pages a memory-mapped ``.rtr``
window faults in; that those are released block by block, for static
and Rubix-D windows alike, is checked in
``tests/unit/test_window_page_release.py``.

What a window leaves behind is its stats-cache entry, which lives for
the whole process; the last test pins it in bytes, in memory and as its
``.npz`` file.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.rubix_d import RubixDMapping
from repro.core.rubix_s import RubixSMapping
from repro.dram.config import baseline_config
from repro.experiments.table3 import window_line_table
from repro.mapping.intel import CoffeeLakeMapping
from repro.parallel.cache import StatsCache
from repro.perf.simulator import Simulator
from repro.workloads.spec import spec_trace
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
    "build, chunk_lines, bytes_per_line",
    [
        (lambda config: CoffeeLakeMapping(config), 1 << 20, 10),
        (lambda config: RubixSMapping(config, gang_size=1), 1 << 20, 10),
        (lambda config: RubixDMapping(config, gang_size=1), 1 << 20, 10),
        (lambda config: RubixDMapping(config, gang_size=1), 1 << 18, 22),
    ],
    ids=["coffeelake", "rubix-s-gs1", "rubix-d-gs1", "rubix-d-gs1-chunked"],
)
def test_window_peak_bytes_per_line(build, chunk_lines, bytes_per_line):
    trace = _window()
    assert len(trace) == LINES
    sim = Simulator(chunk_lines=chunk_lines)
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


def _traced_peak(call):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_table3_window_bytes_per_line():
    """Table 3 translates the whole four-byte window in one call, keeps
    its row ids and columns while ``activated_lines`` groups their packed
    copy, then keeps only every activation's row and column and counts
    their lines.  The whole computation, line table included, measured
    17.0 B/line (bound 18; the window statistics alone of the path it
    replaced measured 18.4, bound 20), and the translation allocates
    only its three uint32 output arrays (12 B/line): it never widens
    the window."""
    trace = _window()
    assert trace.lines.dtype == np.uint32
    sim = Simulator()
    mapping = CoffeeLakeMapping(sim.config)
    peak = _traced_peak(lambda: window_line_table(sim, mapping, trace))
    assert peak / LINES <= 18, f"{peak / LINES:.1f} B/line"
    peak = _traced_peak(lambda: mapping.translate_trace(trace.lines, validate=False))
    assert peak / LINES <= 13, f"translation {peak / LINES:.1f} B/line"


def test_vgroup_accesses_bytes_per_line():
    """A Rubix-D chunk's v-group counts never copy the chunk."""
    lines = _window().lines
    mapping = RubixDMapping(baseline_config(), gang_size=1)
    peak = _traced_peak(lambda: mapping.vgroup_accesses(lines))
    assert peak / LINES < 1, f"{peak / LINES:.2f} B/line"


def test_cached_randomized_window_bytes_per_row(tmp_path):
    """A randomized window's rows nearly all see a few ACTs each, so its
    cache entry -- how many rows reach each count -- is a few hundred
    bytes whatever its row count, in memory and on disk."""
    trace = spec_trace("lbm", scale=0.02)
    sim = Simulator()
    stats, swaps = sim.window_stats(trace, RubixDMapping(sim.config, gang_size=1), use_cache=False)
    rows = stats.row_ids.size
    assert rows > 100_000 and stats.max_row_activations() < 256
    cache = StatsCache(persist_dir=tmp_path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache.put("lbm", stats, swaps)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 4096, f"{held} B held for {rows} rows"
    written = (tmp_path / "lbm.npz").stat().st_size
    assert written <= 4096, f"{written} B written for {rows} rows"
