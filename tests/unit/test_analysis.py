"""Unit tests for the analysis package (binomial model, hot rows)."""

import numpy as np
import pytest

from repro.analysis.binomial import (
    encrypted_hot_row_expectation,
    expected_rows_with_k_lines,
    illustrative_model,
)
from repro.analysis.hotrows import hot_row_summary, line_contribution_table
from repro.dram.fast_model import activated_lines, analyze_trace


class TestBinomialModel:
    def test_paper_line_populations(self):
        # Section 4.1: 64K lines over 1M rows of 64 lines: 61.5K rows
        # with 1 line, 1.9K with 2, ~40 with 3.
        one = expected_rows_with_k_lines(65536, 1 << 20, 64, 1)
        two = expected_rows_with_k_lines(65536, 1 << 20, 64, 2)
        three = expected_rows_with_k_lines(65536, 1 << 20, 64, 3)
        assert one == pytest.approx(61_500, rel=0.05)
        assert two == pytest.approx(1_900, rel=0.10)
        assert three == pytest.approx(40, rel=0.20)

    def test_populations_sum_to_footprint_lines(self):
        total = sum(
            k * expected_rows_with_k_lines(65536, 1 << 20, 64, k) for k in range(1, 8)
        )
        assert total == pytest.approx(65536, rel=0.01)

    def test_random_kernel_expectation_below_one(self):
        # Paper: ~0.4 expected hot rows for the random kernel.
        expectation = encrypted_hot_row_expectation(65536, 1 << 20, 64, 1_000_000)
        assert 0.05 < expectation < 1.5

    def test_k_validation(self):
        with pytest.raises(ValueError):
            expected_rows_with_k_lines(100, 100, 64, -1)

    def test_illustrative_model_matches_figure4c(self):
        result = illustrative_model()
        assert result.baseline["stream"] == 0
        assert result.baseline["stride"] == 1024
        assert result.baseline["random"] == 1024
        # Encrypted: a row needs 5+ footprint lines to reach 64 acts;
        # the expected number of such rows is ~0.008 ("no hot rows").
        assert result.encrypted["stream"] < 0.05
        assert result.encrypted["stride"] < 0.05
        assert result.encrypted["random"] < 1.0


def _pairs(global_row, col, *, rows_per_bank, max_hits=16):
    """The (row, column) of every ACT of a window (Table 3's input)."""
    return activated_lines(
        np.asarray(global_row),
        np.asarray(col),
        rows_per_bank=rows_per_bank,
        lines_per_row=128,
        max_hits=max_hits,
    )


class TestHotRowAnalysis:
    def _window(self):
        # Two rows: row 0 hot via many distinct cols, row 1 cold.
        n_hot = 70
        banks = np.zeros(n_hot + 2, dtype=np.uint64)
        rows = np.array([0, 1] * ((n_hot + 2) // 2), dtype=np.uint64)[: n_hot + 2]
        cols = np.arange(n_hot + 2, dtype=np.uint64) % 40
        return banks * 100 + rows, cols

    def test_summary(self):
        global_row, _ = self._window()
        stats = analyze_trace(global_row, rows_per_bank=100, max_hits=16)
        summary = hot_row_summary(stats)
        assert summary.unique_rows == 2
        assert summary.activations == stats.n_activations

    def test_line_contribution_requires_detail(self):
        """Table 3 needs a column for every activated row."""
        with pytest.raises(ValueError):
            line_contribution_table(np.zeros(3, dtype=np.int32), np.zeros(2, dtype=np.int32))

    def test_line_contribution_buckets(self):
        global_row, cols = self._window()
        rows, cols = _pairs(global_row, cols, rows_per_bank=100)
        table = line_contribution_table(rows, cols, threshold=30, lines_per_row=128)
        assert table.hot_rows >= 1
        assert sum(table.bucket_fractions.values()) == pytest.approx(1.0)
        assert 1 <= table.average_lines <= 128

    def test_no_hot_rows(self):
        rows, cols = _pairs(
            np.array([1, 2, 3, 4], dtype=np.uint64), np.zeros(4, dtype=np.uint64), rows_per_bank=10
        )
        table = line_contribution_table(rows, cols, threshold=64)
        assert table.hot_rows == 0
        assert table.average_lines == 0.0
        empty = line_contribution_table(rows[:0], cols[:0], threshold=64)
        assert (empty.hot_rows, empty.average_lines) == (0, 0.0)


def _line_contribution_reference(rows, cols, threshold, lines_per_row):
    """Table 3 from Python sets: distinct activating lines per hot row."""
    acts, lines = {}, {}
    for row, col in zip(rows.tolist(), cols.tolist()):
        acts[row] = acts.get(row, 0) + 1
        lines.setdefault(row, set()).add(col)
    hot = sorted(row for row, count in acts.items() if count >= threshold)
    counts = [len(lines[row]) for row in hot]
    assert all(0 < count <= lines_per_row for count in counts)
    fractions = {
        f"{lo}-{hi - 1}": sum(lo <= c < hi for c in counts) / len(hot)
        for lo, hi in ((1, 32), (32, 64), (64, 129))
    }
    return len(hot), fractions, sum(counts) / len(counts)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("threshold", [1, 8, 64])
def test_line_contribution_matches_set_reference(seed, threshold):
    """The sort-and-diff kernel reproduces the set-based count exactly,
    and the order of the activations does not matter to it."""
    rng = np.random.default_rng(seed)
    n = 30_000
    rows_per_bank = 64
    # A few hot rows drawing from many lines, over a random background.
    bank = rng.integers(0, 4, n)
    row = np.where(rng.random(n) < 0.4, rng.integers(0, 3, n), rng.integers(0, 64, n))
    col = rng.integers(0, 128, n).astype(np.uint32)
    rows, cols = _pairs(bank * rows_per_bank + row, col, rows_per_bank=rows_per_bank, max_hits=4)
    shuffled = rng.permutation(rows.size)
    for act_rows, act_cols in ((rows, cols), (rows[shuffled], cols[shuffled])):
        table = line_contribution_table(act_rows, act_cols, threshold=threshold, lines_per_row=128)
        hot_rows, fractions, average = _line_contribution_reference(
            act_rows, act_cols, threshold, 128
        )
        assert table.hot_rows == hot_rows > 0
        assert table.bucket_fractions == fractions
        assert table.average_lines == average
