"""The analyzer's ownership contract: it never writes to its input, and
ids handed over to it are freed once grouped.

``analyze_trace`` counts activations inside its own bank-grouped copy
and drops its reference to the input once that copy exists;
``activated_lines``, Table 3's kernel, groups a packed copy and leaves
its input alone too.  Callers
such as ``fig4``, ``adversarial`` and the tier-agreement tests reuse the
arrays they pass, so the input must come back byte for byte.  The
simulator hands the translated ids over without keeping a reference;
when something else holds them -- the repository benchmark's traced
mode wraps ``analyze_trace`` and ``ChunkedAnalyzer.feed`` in pass-through
spans that keep their arguments -- the ids live longer, but the
statistics must not change.
"""

import sys
import weakref

import numpy as np
import pytest
from oracles.kernels import analyze_trace_sorted
from oracles.window import assert_stats_equal, merge_stats

from repro.core.rubix_d import RubixDMapping
from repro.core.rubix_s import RubixSMapping
from repro.dram import fast_model
from repro.dram.fast_model import ChunkedAnalyzer, activated_lines, analyze_trace
from repro.mapping.intel import CoffeeLakeMapping
from repro.perf import simulator
from repro.perf.simulator import Simulator
from repro.workloads.spec import spec_trace

ROWS_PER_BANK = 1 << 10


def _ids(dtype):
    """Row ids with hammered rows, runs past the budget and fresh rows."""
    rng = np.random.default_rng(11)
    hot = rng.integers(0, 16 * ROWS_PER_BANK, size=8)
    ids = np.concatenate(
        [
            hot[rng.integers(0, hot.size, size=30_000)],
            np.repeat(rng.integers(0, 16 * ROWS_PER_BANK, size=500), 40),
            rng.integers(0, 16 * ROWS_PER_BANK, size=30_000),
        ]
    )
    return ids[rng.permutation(ids.size)].astype(dtype)


@pytest.mark.parametrize("dtype", [np.uint32, np.int64])
@pytest.mark.parametrize("max_hits", [16, None])
@pytest.mark.parametrize("detail", [False, True])
def test_analyze_trace_leaves_its_input_untouched(dtype, max_hits, detail):
    """``analyze_trace`` -- or, with ``detail``, ``activated_lines`` over
    the same ids and their columns -- leaves its input byte for byte as
    it was, and a second call over the reused arrays gives the same
    result."""
    ids = _ids(dtype)
    col = (ids % 128).astype(np.uint32)
    ids_before, col_before = ids.tobytes(), col.tobytes()
    # The results match the reference kernel on the very same arrays.
    oracle = analyze_trace_sorted(
        ids.astype(np.int64) // ROWS_PER_BANK,
        ids.astype(np.int64) % ROWS_PER_BANK,
        rows_per_bank=ROWS_PER_BANK,
        max_hits=max_hits,
        col=col,
        keep_detail=detail,
    )
    if detail:
        def pairs():
            return activated_lines(
                ids, col, rows_per_bank=ROWS_PER_BANK, lines_per_row=128, max_hits=max_hits
            )

        rows, cols = pairs()
        assert ids.dtype == dtype and ids.tobytes() == ids_before
        assert col.tobytes() == col_before
        assert np.array_equal(rows, oracle.act_rows)
        assert np.array_equal(cols, oracle.act_cols)
        again_rows, again_cols = pairs()
        assert np.array_equal(rows, again_rows) and np.array_equal(cols, again_cols)
        return
    stats = analyze_trace(ids, rows_per_bank=ROWS_PER_BANK, max_hits=max_hits)
    assert ids.dtype == dtype and ids.tobytes() == ids_before
    assert (stats.n_activations, stats.n_hits) == (oracle.n_activations, oracle.n_hits)
    assert np.array_equal(stats.row_ids, oracle.row_ids)
    assert np.array_equal(stats.acts_per_row, oracle.acts_per_row)
    again = analyze_trace(ids, rows_per_bank=ROWS_PER_BANK, max_hits=max_hits)
    assert_stats_equal(stats, again, dtypes="same")


def test_chunked_feed_leaves_its_input_untouched():
    ids = _ids(np.uint32)
    before = ids.tobytes()
    chunks = [ids[start : start + 20_000] for start in range(0, ids.size, 20_000)]
    analyzer = ChunkedAnalyzer(rows_per_bank=ROWS_PER_BANK, rows_total=16 * ROWS_PER_BANK)
    for chunk in chunks:
        analyzer.feed(chunk)
    assert ids.tobytes() == before
    reference = merge_stats(
        [analyze_trace(chunk, rows_per_bank=ROWS_PER_BANK) for chunk in chunks]
    )
    assert_stats_equal(analyzer.result(), reference, dtypes="same")


_MAPPINGS = [
    ("coffeelake", lambda config: CoffeeLakeMapping(config), 1 << 20),
    ("rubix-s-gs1", lambda config: RubixSMapping(config, gang_size=1), 1 << 20),
    ("rubix-d-gs2", lambda config: RubixDMapping(config, gang_size=2, seed=3), 1 << 20),
    ("rubix-d-gs2-chunked", lambda config: RubixDMapping(config, gang_size=2, seed=3), 1 << 14),
]


def _window(build, chunk_lines):
    trace = spec_trace("xz", scale=0.02)
    sim = Simulator(chunk_lines=chunk_lines)
    return sim.window_stats(trace, build(sim.config), use_cache=False)


@pytest.mark.parametrize("name, build, chunk_lines", _MAPPINGS, ids=[m[0] for m in _MAPPINGS])
def test_window_stats_unchanged_when_arguments_are_held(monkeypatch, name, build, chunk_lines):
    """Pass-through wrappers that keep their arguments, as the benchmark's
    traced mode installs, change no statistic."""
    plain, plain_swaps = _window(build, chunk_lines)
    held = []

    def holding(function):
        def wrapper(*args, **kwargs):
            held.append((args, kwargs))
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(simulator, "analyze_trace", holding(simulator.analyze_trace))
    monkeypatch.setattr(ChunkedAnalyzer, "feed", holding(ChunkedAnalyzer.feed))
    traced, traced_swaps = _window(build, chunk_lines)
    assert held, "the wrappers were not called"
    assert traced_swaps == plain_swaps
    assert_stats_equal(traced, plain, dtypes="same")


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="a callee's frame takes over its arguments' references from CPython 3.11",
)
@pytest.mark.parametrize("name, build, chunk_lines", _MAPPINGS, ids=[m[0] for m in _MAPPINGS])
def test_handed_over_ids_are_freed_once_grouped(monkeypatch, name, build, chunk_lines):
    """Once the analyzer has grouped a window's (or chunk's) ids, nothing
    references them any more: they are gone before it counts."""
    grouped = []
    alive_while_counting = []
    real_group, real_first = fast_model._group_by_bank, fast_model._first_of_runs

    def group(global_row, *args):
        grouped.append(weakref.ref(global_row))
        return real_group(global_row, *args)

    def first(values):
        alive_while_counting.append(grouped[-1]() is not None)
        return real_first(values)

    monkeypatch.setattr(fast_model, "_group_by_bank", group)
    monkeypatch.setattr(fast_model, "_first_of_runs", first)
    stats, _ = _window(build, chunk_lines)
    assert stats.n_accesses > 0 and grouped
    assert alive_while_counting and not any(alive_while_counting)
