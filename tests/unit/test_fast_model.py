"""Unit tests for the vectorized trace analyzer."""

import numpy as np
import pytest

from repro.dram.fast_model import ChunkedAnalyzer, TraceStats, analyze_trace


def _analyze(banks, rows, **kwargs):
    rows_per_bank = kwargs.pop("rows_per_bank", 1024)
    global_row = np.asarray(banks, dtype=np.uint64) * rows_per_bank + np.asarray(
        rows, dtype=np.uint64
    )
    return analyze_trace(global_row, rows_per_bank=rows_per_bank, **kwargs)


class TestBasicCounting:
    def test_empty_trace(self):
        stats = _analyze([], [])
        assert stats.n_accesses == 0
        assert stats.n_activations == 0
        assert stats.hit_rate == 0.0

    def test_single_access(self):
        stats = _analyze([0], [5])
        assert stats.n_activations == 1
        assert stats.n_hits == 0

    def test_repeated_row_hits(self):
        stats = _analyze([0] * 10, [5] * 10)
        assert stats.n_activations == 1
        assert stats.n_hits == 9

    def test_alternating_rows_all_activate(self):
        stats = _analyze([0] * 10, [1, 2] * 5)
        assert stats.n_activations == 10

    def test_different_banks_independent(self):
        # Same row id in two banks: each bank keeps its own open row.
        stats = _analyze([0, 1, 0, 1], [7, 7, 7, 7])
        assert stats.n_activations == 2
        assert stats.n_hits == 2

    def test_interleaved_banks_preserve_runs(self):
        # Bank 0 streams row 3 while bank 1 streams row 9: no conflicts.
        banks = [0, 1] * 8
        rows = [3, 9] * 8
        stats = _analyze(banks, rows)
        assert stats.n_activations == 2
        assert stats.n_hits == 14


class TestOpenAdaptive:
    def test_budget_forces_reactivation(self):
        stats = _analyze([0] * 40, [5] * 40, max_hits=16)
        # ACT at positions 0, 16, 32.
        assert stats.n_activations == 3

    def test_open_page_unlimited(self):
        stats = _analyze([0] * 40, [5] * 40, max_hits=None)
        assert stats.n_activations == 1

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            _analyze([0], [0], max_hits=0)


class TestPerRowHistogram:
    def test_histogram_counts(self):
        # Alternation activates on every switch; the trailing repeat of
        # row 2 is a row-buffer hit.
        banks = [0] * 7
        rows = [1, 2, 1, 2, 1, 2, 2]
        stats = _analyze(banks, rows)
        hist = dict(zip(stats.row_ids.tolist(), stats.acts_per_row.tolist()))
        assert hist[1] == 3
        assert hist[2] == 3
        assert stats.n_hits == 1

    def test_hot_rows_threshold(self):
        banks = [0] * 100
        rows = [1, 2] * 50
        stats = _analyze(banks, rows)
        assert stats.hot_rows(50) == 2
        assert stats.hot_rows(51) == 0

    def test_global_row_ids_distinct_across_banks(self):
        stats = _analyze([0, 1], [5, 5], rows_per_bank=100)
        assert set(stats.row_ids.tolist()) == {5, 105}

    def test_max_row_activations(self):
        stats = _analyze([0] * 6, [1, 2, 1, 2, 1, 1])
        # Row 1: runs 1,1,2 -> acts at transitions: positions 0,2,4 (row1) ...
        assert stats.max_row_activations() == stats.acts_per_row.max()

    def test_unique_rows_touched(self):
        stats = _analyze([0] * 4, [1, 1, 2, 3])
        assert stats.unique_rows_touched == 3


class TestDerivedMetrics:
    def test_threshold_crossings(self):
        stats = _analyze([0] * 9, [1, 2] * 4 + [1])
        # row1: 5 acts, row2: 4 acts; crossings at threshold 2: 2 + 2.
        assert stats.threshold_crossings(2) == 4

    def test_excess_activations(self):
        stats = _analyze([0] * 9, [1, 2] * 4 + [1])
        assert stats.excess_activations(4) == 1  # row1 has 5

    def test_validation(self):
        stats = _analyze([0], [0])
        with pytest.raises(ValueError):
            stats.hot_rows(0)
        with pytest.raises(ValueError):
            stats.threshold_crossings(-1)


class TestDetail:
    def test_detail_arrays(self):
        stats = analyze_trace(
            np.array([1, 1, 2, 2], dtype=np.uint64),
            rows_per_bank=10,
            col=np.array([7, 8, 9, 9], dtype=np.uint64),
            keep_detail=True,
        )
        assert stats.act_rows.tolist() == [1, 2]
        assert stats.act_cols.tolist() == [7, 9]


class TestMerge:
    def test_merge_sums_histograms(self):
        a = _analyze([0] * 4, [1, 1, 2, 2])
        b = _analyze([0] * 2, [1, 3])
        merged = TraceStats.merge([a, b])
        hist = dict(zip(merged.row_ids.tolist(), merged.acts_per_row.tolist()))
        assert hist[1] == 2  # 1 act in each part
        assert hist[2] == 1
        assert hist[3] == 1
        assert merged.n_accesses == 6

    def test_merge_empty(self):
        merged = TraceStats.merge([])
        assert merged.n_accesses == 0

    def test_merge_keeps_detail_when_all_parts_have_it(self):
        a = _analyze([0, 0], [1, 2], col=np.array([3, 4], dtype=np.uint64), keep_detail=True)
        b = _analyze([0, 0], [5, 6], col=np.array([7, 8], dtype=np.uint64), keep_detail=True)
        merged = TraceStats.merge([a, b])
        assert merged.act_rows.tolist() == [1, 2, 5, 6]
        assert merged.act_cols.tolist() == [3, 4, 7, 8]

    def test_merge_rows_only_parts_keep_rows(self):
        # No part ever had columns: act_rows survive, act_cols stay None.
        a = _analyze([0, 0], [1, 2], keep_detail=True)
        b = _analyze([0, 0], [5, 6], keep_detail=True)
        merged = TraceStats.merge([a, b])
        assert merged.act_rows.tolist() == [1, 2, 5, 6]
        assert merged.act_cols is None

    def test_merge_mixed_detail_drops_both_arrays(self):
        # Regression: one part carries (rows, cols), the other rows only.
        # The keep-detail decision must be atomic -- the old code kept a
        # concatenated act_rows while dropping act_cols, leaving the two
        # arrays inconsistent (rows without their columns).
        full = _analyze(
            [0, 0], [1, 2], col=np.array([3, 4], dtype=np.uint64), keep_detail=True
        )
        rows_only = _analyze([0, 0], [5, 6], keep_detail=True)
        assert full.act_cols is not None and rows_only.act_cols is None
        for parts in ([full, rows_only], [rows_only, full]):
            merged = TraceStats.merge(parts)
            assert merged.act_rows is None
            assert merged.act_cols is None
            assert merged.n_accesses == 4

    def test_merge_missing_rows_drops_detail(self):
        with_detail = _analyze([0, 0], [1, 2], keep_detail=True)
        without = _analyze([0, 0], [5, 6])
        merged = TraceStats.merge([with_detail, without])
        assert merged.act_rows is None
        assert merged.act_cols is None


class TestChunkedAnalyzer:
    def test_chunked_equals_single_pass_modulo_boundaries(self):
        rng = np.random.default_rng(0)
        banks = rng.integers(0, 4, 10_000).astype(np.uint64)
        rows = rng.integers(0, 50, 10_000).astype(np.uint64)
        global_row = banks * 1024 + rows
        whole = analyze_trace(global_row, rows_per_bank=1024)
        chunked = ChunkedAnalyzer(rows_per_bank=1024)
        for start in range(0, 10_000, 1000):
            chunked.feed(global_row[start : start + 1000])
        merged = chunked.result()
        assert merged.n_accesses == whole.n_accesses
        # Boundary resets can only add activations, and at most one per
        # bank per boundary.
        assert whole.n_activations <= merged.n_activations
        assert merged.n_activations <= whole.n_activations + 4 * 10
        assert merged.unique_rows_touched == whole.unique_rows_touched

    @pytest.mark.parametrize("chunk_size", [1_000, 4_096, 9_999, 50_000])
    def test_chunked_equals_one_shot_within_tolerance(self, chunk_size):
        # A realistic window: two hammered aggressor rows (alternating, so
        # every hammer access is an activation) interleaved with a large
        # random background.  Chunk-boundary row-buffer resets may perturb
        # the activation count slightly, but derived hot-row counts and
        # the unique-row set must come out exactly the same regardless of
        # chunk size.
        rng = np.random.default_rng(42)
        n = 100_000
        banks = rng.integers(0, 8, n).astype(np.uint64)
        rows = rng.integers(0, 4_000, n).astype(np.uint64)
        # Hammer bank 0 rows {1, 2} alternately at every 100th position.
        hammer_idx = np.arange(0, n, 100)
        banks[hammer_idx] = 0
        rows[hammer_idx] = np.where(np.arange(len(hammer_idx)) % 2 == 0, 1, 2)

        global_row = banks * 8192 + rows
        whole = analyze_trace(global_row, rows_per_bank=8192)
        chunked = ChunkedAnalyzer(rows_per_bank=8192)
        for start in range(0, n, chunk_size):
            chunked.feed(global_row[start : start + chunk_size])
        merged = chunked.result()

        assert merged.n_accesses == whole.n_accesses
        # Activations agree to <0.1%: boundary resets can only add, at
        # most one per bank per boundary, and only when the first access
        # of a chunk would have hit the previously-open row.
        assert whole.n_activations <= merged.n_activations
        assert merged.n_activations - whole.n_activations < 0.001 * whole.n_activations
        # Derived metrics are exact.
        for threshold in (64, 256, 500):
            assert merged.hot_rows(threshold) == whole.hot_rows(threshold)
        assert whole.hot_rows(256) == 2  # exactly the planted aggressors
        assert merged.unique_rows_touched == whole.unique_rows_touched
        assert merged.n_hits + merged.n_activations == merged.n_accesses
