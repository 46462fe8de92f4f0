"""Equivalence properties for the vectorized hot-path kernels.

Each optimized kernel keeps its pre-optimization twin in-tree as a
private oracle; these tests pin the contract the optimization relies
on: *bit-identical* results, not just statistically similar ones.

* ``analyze_trace`` on global row ids vs ``_analyze_trace_sorted`` on
  (bank, row) -- every :class:`TraceStats` field including detail-array
  order, with the histogram in its documented narrow dtypes (the oracle
  stays int64),
* blocked ``AddressMapping.global_rows`` vs one whole-window
  ``translate_trace``, and Rubix-D's lines-derived v-group counts vs the
  column bincount,
* ``ChunkedAnalyzer`` (dense histogram, and the list fallback the
  domain size selects) vs per-chunk ``_analyze_trace_sorted`` plus
  ``TraceStats.merge``,
* ``RubixDMapping.translate_trace`` (gather) vs per-element
  ``translate`` and the masked ``_translate_trace_loop``, including
  mid-sweep engine states (nonzero Ptr),
* Rubix-S batch translation vs per-element translation under the
  one-shot-validation fast path,
* ``XorRemapEngine.remap_steps`` (closed form) vs the stepwise
  ``_remap_steps_loop``, across epoch wrap-arounds,
* the whole dynamic window, ``run_window`` vs ``_reference_window``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.remap_engine import XorRemapEngine
from repro.core.rubix_d import RubixDMapping
from repro.core.rubix_s import RubixSMapping
from repro.dram.config import DRAMConfig
from repro.dram.fast_model import (
    ChunkedAnalyzer,
    TraceStats,
    _analyze_trace_sorted,
    analyze_trace,
)

SMALL = DRAMConfig(banks=4, rows_per_bank=256, row_bytes=1024)

traces = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=63)),
    min_size=1,
    max_size=400,
)


def _assert_histogram_dtypes(stats):
    """The documented dtypes: int32 row ids while the largest id fits,
    int64 beyond; int32 counts."""
    largest = int(stats.row_ids.max()) if stats.row_ids.size else 0
    assert stats.row_ids.dtype == (np.int32 if largest < 2**31 else np.int64)
    assert stats.acts_per_row.dtype == np.int32


def _assert_stats_identical(a, b):
    """``b`` equals the oracle ``a`` value for value, in its documented dtypes."""
    assert a.n_accesses == b.n_accesses
    assert a.n_activations == b.n_activations
    assert a.n_hits == b.n_hits
    assert a.unique_rows_touched == b.unique_rows_touched
    assert np.array_equal(a.row_ids, b.row_ids)
    assert np.array_equal(a.acts_per_row, b.acts_per_row)
    _assert_histogram_dtypes(b)
    assert (a.act_rows is None) == (b.act_rows is None)
    if a.act_rows is not None:
        assert np.array_equal(a.act_rows, b.act_rows)
    assert (a.act_cols is None) == (b.act_cols is None)
    if a.act_cols is not None:
        assert np.array_equal(a.act_cols, b.act_cols)


@given(
    trace=traces,
    max_hits=st.sampled_from([None, 1, 3, 16]),
    keep_detail=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_count_kernel_matches_sort_kernel(trace, max_hits, keep_detail):
    """The counting kernels reproduce the argsort path bit-for-bit.

    Detail arrays included: activation (row, col) pairs must come out in
    the same order, since Table-3-style analyses consume them
    positionally.
    """
    banks = np.array([b for b, _ in trace], dtype=np.uint64)
    rows = np.array([r for _, r in trace], dtype=np.uint64)
    cols = np.arange(banks.size, dtype=np.uint64) % 128
    kwargs = dict(
        rows_per_bank=1024, max_hits=max_hits, col=cols, keep_detail=keep_detail
    )
    _assert_stats_identical(
        _analyze_trace_sorted(banks, rows, **kwargs),
        analyze_trace(banks * 1024 + rows, **kwargs),
    )


@given(rows=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_count_kernel_beyond_histogram_domain(rows):
    """Row domains far sparser than the trace (2^25 rows for 200 lines)
    still match the reference."""
    rng = np.random.default_rng(rows)
    banks = rng.integers(0, 2, size=200, dtype=np.uint64)
    row = rng.integers(0, 1 << 24, size=200, dtype=np.uint64)
    kwargs = dict(rows_per_bank=1 << 24, max_hits=16)
    a = _analyze_trace_sorted(banks, row, col=None, keep_detail=False, **kwargs)
    b = analyze_trace(banks * (1 << 24) + row, **kwargs)
    _assert_stats_identical(a, b)


@pytest.mark.parametrize(
    "bank, row, dtype",
    [
        (1, (1 << 30) - 1, np.int32),  # largest id 2^31 - 1: still fits
        (2, 0, np.int64),  # largest id 2^31: the int64 fallback
        (3, (1 << 30) - 1, np.int64),  # a domain of 2^32 rows
    ],
)
def test_row_id_dtype_follows_largest_id(bank, row, dtype):
    """Row ids narrow to int32 exactly while the largest global row id
    fits; past 2^31 they stay int64 with every value exact."""
    rng = np.random.default_rng(bank)
    # Random lines in the banks below, then the one line holding the largest id.
    banks = np.append(rng.integers(0, bank, size=300, dtype=np.uint64), bank)
    rows = np.append(rng.integers(0, 1 << 30, size=300, dtype=np.uint64), row)
    kwargs = dict(rows_per_bank=1 << 30, max_hits=16)
    oracle = _analyze_trace_sorted(banks, rows, col=None, keep_detail=False, **kwargs)
    global_row = banks * (1 << 30) + rows
    got = analyze_trace(global_row, **kwargs)
    _assert_stats_identical(oracle, got)
    assert got.row_ids.dtype == dtype
    assert int(got.row_ids[-1]) == bank * (1 << 30) + row

    analyzer = ChunkedAnalyzer(rows_per_bank=1 << 30, max_hits=16)
    for half in (slice(0, 150), slice(150, None)):
        analyzer.feed(global_row[half])
    assert analyzer.result().row_ids.dtype == dtype


def test_empty_windows_have_documented_dtypes():
    """Every empty result -- an empty window, an empty chunk, an analyzer
    fed nothing, a merge of nothing -- carries the narrow dtypes too."""
    empty = np.empty(0, dtype=np.uint64)
    analyzer = ChunkedAnalyzer(rows_per_bank=64)
    results = [
        analyze_trace(empty, rows_per_bank=64),
        analyzer.result(),
        analyzer.feed(empty),
        analyzer.result(),
        TraceStats.merge([]),
    ]
    for stats in results:
        assert (stats.n_accesses, stats.n_activations, stats.unique_rows_touched) == (0, 0, 0)
        assert stats.row_ids.size == stats.acts_per_row.size == 0
        _assert_histogram_dtypes(stats)


def _runny_window(rng, n, *, banks, rows):
    """Bank/row/col arrays mixing long same-row streams with random rows.

    The streams run far past the open-adaptive budgets, so the budget
    arithmetic (power-of-two and not) is exercised, not just run starts.
    """
    bank = rng.integers(0, banks, size=n, dtype=np.uint64)
    row = (np.arange(n, dtype=np.uint64) // 97) % np.uint64(rows)
    noisy = rng.random(n) < 0.3
    row[noisy] = rng.integers(0, rows, size=int(noisy.sum()), dtype=np.uint64)
    col = rng.integers(0, 128, size=n, dtype=np.uint64)
    return bank, row, col


@pytest.mark.parametrize("rows_per_bank", [10, 100, 1 << 17])
@pytest.mark.parametrize("max_hits", [None, 16, 12])
@pytest.mark.parametrize("keep_detail", [False, True])
def test_global_row_kernel_matches_oracle(rows_per_bank, max_hits, keep_detail):
    """The packed-key kernel on global row ids equals the argsort oracle on
    (bank, row) value for value, detail order included, for any rows per
    bank and budget.  Window lengths straddle the kernel's 64k blocks."""
    rng = np.random.default_rng(rows_per_bank * 31 + (max_hits or 0))
    for n in (1, 2, 9, 5_000, 65_536, 140_001):
        bank, row, col = _runny_window(rng, n, banks=16, rows=min(rows_per_bank, 60))
        kwargs = dict(rows_per_bank=rows_per_bank, max_hits=max_hits, col=col)
        _assert_stats_identical(
            _analyze_trace_sorted(bank, row, keep_detail=keep_detail, **kwargs),
            analyze_trace(bank * rows_per_bank + row, keep_detail=keep_detail, **kwargs),
        )


@pytest.mark.parametrize("max_hits", [None, 16, 12])
@pytest.mark.parametrize("keep_detail", [False, True])
def test_global_row_kernel_int64_ids(max_hits, keep_detail):
    """Ids past 2^31 (int64 input, 64-bit packed keys) still match."""
    rng = np.random.default_rng(0x1D5)
    rows_per_bank = 1 << 30
    bank, row, col = _runny_window(rng, 80_000, banks=6, rows=1 << 20)
    row[::7] += np.uint64(rows_per_bank - (1 << 20))  # reach the top rows too
    global_row = (bank * rows_per_bank + row).astype(np.int64)
    assert int(global_row.max()) > 2**32
    kwargs = dict(rows_per_bank=rows_per_bank, max_hits=max_hits, col=col)
    got = analyze_trace(global_row, keep_detail=keep_detail, **kwargs)
    _assert_stats_identical(
        _analyze_trace_sorted(bank, row, keep_detail=keep_detail, **kwargs), got
    )
    assert got.row_ids.dtype == np.int64


def test_global_row_kernel_empty_and_invalid():
    """Empty windows of any dtype are empty results; negative ids and
    misaligned columns are rejected."""
    for dtype in (np.uint32, np.int64):
        stats = analyze_trace(np.empty(0, dtype), rows_per_bank=10, col=np.empty(0, dtype))
        assert (stats.n_accesses, stats.n_activations, stats.row_ids.size) == (0, 0, 0)
    with pytest.raises(ValueError):
        analyze_trace(np.array([3, -1]), rows_per_bank=10)
    with pytest.raises(ValueError):
        analyze_trace(np.array([3, 4]), rows_per_bank=10, col=np.zeros(3))


def _global_row_mappings():
    from repro.dram.config import baseline_config, multichannel_config
    from repro.mapping.intel import CoffeeLakeMapping, SkylakeMapping

    base = baseline_config()
    yield CoffeeLakeMapping(base)
    yield SkylakeMapping(multichannel_config(2))
    for gang_size in (1, 2, 4):
        yield RubixSMapping(base, gang_size=gang_size, seed=0x5EED)
    for segments in (1, 4):
        mapping = RubixDMapping(base, gang_size=2, seed=0x5EED, segments=segments)
        # Mid-sweep engines, so the per-block register snapshots matter.
        mapping.record_activations(np.arange(mapping.vgroups, dtype=np.float64) * 900.0)
        yield mapping


@pytest.mark.parametrize("n", [0, 1, 65_535, 65_536, 65_537])
def test_global_rows_match_translate_trace(n):
    """Blocked ``global_rows`` == ``flat_bank * rows_per_bank + row`` of one
    whole-window ``translate_trace``, on every side of a block boundary,
    in ``uint32`` for every modelled geometry."""
    for mapping in _global_row_mappings():
        config = mapping.config
        lines = np.random.default_rng(n).integers(
            0, config.total_lines, size=n, dtype=np.uint64
        )
        mapped = mapping.translate_trace(lines)
        expected = mapped.flat_bank.astype(np.int64) * config.rows_per_bank + mapped.row.astype(
            np.int64
        )
        got = mapping.global_rows(lines)
        assert got.dtype == np.uint32, mapping.name
        assert np.array_equal(got, expected), mapping.name
        assert np.array_equal(mapped.global_row, expected), mapping.name


def test_global_rows_validate():
    """``global_rows`` rejects out-of-range lines unless told not to check."""
    mapping = RubixSMapping(SMALL, gang_size=4, seed=1)
    with pytest.raises(ValueError):
        mapping.global_rows(np.array([0, SMALL.total_lines], dtype=np.uint64))


@pytest.mark.parametrize("gang_size", [1, 2, 4])
def test_vgroup_accesses_match_column_bincount(gang_size):
    """Rubix-D's per-v-group access counts from the lines equal
    ``bincount(col >> k)`` over the translated columns."""
    from repro.dram.config import baseline_config

    mapping = RubixDMapping(baseline_config(), gang_size=gang_size, seed=3)
    lines = np.random.default_rng(gang_size).integers(
        0, mapping.config.total_lines, size=150_000, dtype=np.uint64
    )
    col = mapping.translate_trace(lines).col
    expected = np.bincount(col >> col.dtype.type(mapping.k_bits), minlength=mapping.vgroups)
    assert np.array_equal(mapping.vgroup_accesses(lines), expected)


def _sorted_chunks(chunks, *, rows_per_bank, keep_detail=False):
    """Per-chunk oracle stats plus their merged window.

    The merge is the pre-optimization one: :meth:`TraceStats.merge`
    across chunks, with the exact touched-row count from ``np.unique``
    over every chunk's global row ids.
    """
    parts = [
        _analyze_trace_sorted(
            banks,
            rows,
            rows_per_bank=rows_per_bank,
            max_hits=16,
            col=cols,
            keep_detail=keep_detail,
        )
        for banks, rows, cols in chunks
    ]
    merged = TraceStats.merge(parts)
    merged.unique_rows_touched = int(
        np.unique(
            np.concatenate(
                [
                    banks.astype(np.int64) * rows_per_bank + rows.astype(np.int64)
                    for banks, rows, _ in chunks
                ]
            )
        ).size
    )
    return parts, merged


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    rows_per_bank=st.sampled_from([64, 1 << 24]),
    n_chunks=st.integers(min_value=1, max_value=4),
    keep_detail=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_chunked_analyzer_count_matches_sort(seed, rows_per_bank, n_chunks, keep_detail):
    """Chunk-merged windows agree between the analyzer's dense
    accumulators and the oracle's concatenate-and-unique merge (the 2^24
    rows-per-bank case forces the analyzer's list fallback)."""
    rng = np.random.default_rng(seed)
    chunks = []
    for _ in range(n_chunks):
        n = int(rng.integers(1, 300))
        chunks.append(
            (
                rng.integers(0, 4, size=n, dtype=np.uint64),
                rng.integers(0, rows_per_bank, size=n, dtype=np.uint64),
                rng.integers(0, 128, size=n, dtype=np.uint64),
            )
        )
    analyzer = ChunkedAnalyzer(rows_per_bank=rows_per_bank, max_hits=16, keep_detail=keep_detail)
    parts, merged = _sorted_chunks(chunks, rows_per_bank=rows_per_bank, keep_detail=keep_detail)
    for (banks, rows, cols), part in zip(chunks, parts):
        _assert_stats_identical(part, analyzer.feed(banks * rows_per_bank + rows, cols))
    _assert_stats_identical(merged, analyzer.result())


def test_chunked_analyzer_dense_to_fallback_midstream():
    """A chunk whose row domain outgrows the dense-histogram budget
    mid-window folds the accumulated state into the fallback merge
    without losing any earlier chunk's contribution."""
    rng = np.random.default_rng(3)
    chunks = [
        (rng.integers(0, 4, 200, dtype=np.uint64), rng.integers(0, 64, 200, dtype=np.uint64)),
        # Bank ids up to 2^24 blow up the observed domain (the analyzer
        # derives it from the data, not the config).
        (
            rng.integers(0, 1 << 24, 200, dtype=np.uint64),
            rng.integers(0, 64, 200, dtype=np.uint64),
        ),
        (rng.integers(0, 4, 200, dtype=np.uint64), rng.integers(0, 64, 200, dtype=np.uint64)),
    ]
    analyzer = ChunkedAnalyzer(rows_per_bank=64, max_hits=16)
    for banks, rows in chunks:
        analyzer.feed(banks * 64 + rows)
    _, merged = _sorted_chunks(
        [(banks, rows, None) for banks, rows in chunks], rows_per_bank=64
    )
    _assert_stats_identical(merged, analyzer.result())


def test_chunked_analyzer_dense_accumulator_sparse_chunk():
    """A chunk whose row domain is dense for the window accumulator (it
    is sized by every line fed so far) but far beyond what the chunk's
    own length would justify still lands every touched row in the
    window: the analyzer makes that decision once, from the analysis's
    own row ids, instead of the chunk kernel and the accumulator each
    deciding for themselves."""
    rows_per_bank = 1 << 20
    rng = np.random.default_rng(5)
    big = 2_300_000  # enough lines that 2x the fed count exceeds 2^22 rows
    chunks = [
        (rng.integers(0, 4, big, dtype=np.uint64), rng.integers(0, 1 << 20, big, dtype=np.uint64)),
        # 200 lines reaching into bank 4: a ~4.46M-row domain, dense only
        # because of the 2.3M lines fed before it.
        (
            np.append(rng.integers(0, 5, 199, dtype=np.uint64), 4),
            np.append(rng.integers(0, 1 << 18, 199, dtype=np.uint64), (1 << 18) - 1),
        ),
    ]
    analyzer = ChunkedAnalyzer(rows_per_bank=rows_per_bank, max_hits=16)
    for banks, rows in chunks:
        analyzer.feed(banks * rows_per_bank + rows)
    assert analyzer._hist is not None, "the window must have stayed dense"
    assert analyzer._hist.size > 1 << 22
    _, merged = _sorted_chunks(
        [(banks, rows, None) for banks, rows in chunks], rows_per_bank=rows_per_bank
    )
    _assert_stats_identical(merged, analyzer.result())


@pytest.mark.parametrize("gang_size", [1, 2, 4])
@pytest.mark.parametrize("segments", [1, 2])
def test_rubix_d_gather_matches_scalar_and_loop(gang_size, segments):
    """Gather-based translate_trace == per-element translate == masked loop,
    including mid-sweep (nonzero Ptr, partially advanced engines)."""
    mapping = RubixDMapping(
        SMALL, gang_size=gang_size, seed=0xFEED, segments=segments, remap_rate=0.01
    )
    rng = np.random.default_rng(7)
    lines = rng.integers(0, SMALL.total_lines, size=4096, dtype=np.uint64)

    for round_no in range(3):
        mapped = mapping.translate_trace(lines)
        looped = mapping._translate_trace_loop(lines)
        assert np.array_equal(np.asarray(mapped.flat_bank), np.asarray(looped.flat_bank))
        assert np.array_equal(np.asarray(mapped.row), np.asarray(looped.row))
        assert np.array_equal(np.asarray(mapped.col), np.asarray(looped.col))
        for i in [0, 1, 17, 4095]:
            coord = mapping.translate(int(lines[i]))
            assert int(mapped.row[i]) == coord.row
            assert int(mapped.col[i]) == coord.col
            flat = (coord.channel * SMALL.ranks + coord.rank) * SMALL.banks + coord.bank
            assert int(mapped.flat_bank[i]) == flat
        # Advance the sweeps unevenly so later rounds hit nonzero,
        # engine-specific Ptr values (and eventually epoch rotations).
        counts = np.arange(mapping.vgroups, dtype=np.float64) * 400.0 * (round_no + 1)
        mapping.record_activations(counts)
    assert any(e.ptr > 0 or e.epochs_completed > 0 for e in mapping.engines)


def test_rubix_s_batch_matches_scalar():
    """Rubix-S one-shot-validated batch path == per-element translation."""
    mapping = RubixSMapping(SMALL, gang_size=4, seed=0xABC)
    rng = np.random.default_rng(11)
    lines = rng.integers(0, SMALL.total_lines, size=2048, dtype=np.uint64)
    mapped = mapping.translate_trace(lines)
    for i in [0, 5, 512, 2047]:
        coord = mapping.translate(int(lines[i]))
        assert int(mapped.row[i]) == coord.row
        assert int(mapped.col[i]) == coord.col


def test_out_of_domain_still_rejected_by_default():
    """validate=True (the default) keeps rejecting bad addresses."""
    for mapping in (
        RubixDMapping(SMALL, gang_size=4, seed=1),
        RubixSMapping(SMALL, gang_size=4, seed=1),
    ):
        with pytest.raises(ValueError):
            mapping.translate_trace(np.array([SMALL.total_lines], dtype=np.uint64))


@given(
    nbits=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    counts=st.lists(st.integers(min_value=0, max_value=600), min_size=1, max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_closed_form_remap_matches_stepwise_walk(nbits, seed, counts):
    """remap_steps (closed form) == per-episode walk: same swap totals,
    counters, pointer, and key schedule, across arbitrary call splits
    and epoch wrap-arounds."""
    closed = XorRemapEngine(nbits=nbits, seed=seed)
    stepwise = XorRemapEngine(nbits=nbits, seed=seed)
    for count in counts:
        assert closed.remap_steps(count) == stepwise._remap_steps_loop(count)
        assert closed.swaps_performed == stepwise.swaps_performed
        assert closed.swaps_skipped == stepwise.swaps_skipped
        assert closed.ptr == stepwise.ptr
        assert closed.epochs_completed == stepwise.epochs_completed
        assert closed.curr_key == stepwise.curr_key
        assert closed.next_key == stepwise.next_key
        # Identical register state implies identical translation.
        probe = np.arange(closed.space, dtype=np.uint64)
        assert np.array_equal(closed.translate(probe), stepwise.translate(probe))


def test_dynamic_window_pipeline_bit_identical():
    """The full dynamic window -- chunked translate + analyze + remap
    advancement -- produces identical TraceStats and swap totals whether
    it runs on the optimized kernels or the reference ones.  This is the
    invariant that keeps simulator RunResults (and the content-keyed
    stats cache) unchanged by the optimization."""
    from repro.perf.hotpath_bench import (
        _reference_window,
        assert_stats_equal,
        run_window,
        synth_lines,
    )

    lines = synth_lines(20_000, SMALL, seed=0x5EED)
    legacy_map = RubixDMapping(SMALL, gang_size=4, seed=0x5EED, remap_rate=0.01)
    new_map = RubixDMapping(SMALL, gang_size=4, seed=0x5EED, remap_rate=0.01)
    legacy_stats, legacy_swaps = _reference_window(legacy_map, lines, chunk_lines=4096)
    new_stats, new_swaps = run_window(new_map, lines, chunk_lines=4096)
    assert legacy_swaps == new_swaps and new_swaps > 0
    assert_stats_equal(legacy_stats, new_stats)


def test_remap_steps_epoch_wrap_exact():
    """A single call spanning multiple epochs lands exactly where the
    stepwise walk does (counters conserved: performed + skipped = count)."""
    closed = XorRemapEngine(nbits=6, seed=99)
    stepwise = XorRemapEngine(nbits=6, seed=99)
    count = 3 * closed.space + 17
    assert closed.remap_steps(count) == stepwise._remap_steps_loop(count)
    assert closed.epochs_completed == stepwise.epochs_completed == 3
    assert closed.ptr == stepwise.ptr == 17
    assert closed.swaps_performed + closed.swaps_skipped == count
