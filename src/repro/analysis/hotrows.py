"""Hot-row characterization (Tables 2 and 3).

A *hot row* receives at least ``threshold`` activations within one
refresh window.  Table 2 counts them per workload (ACT-64+ / ACT-512+);
Table 3 asks how many distinct lines of each hot row contributed
activations -- the evidence that the line-to-row mapping, not a single
frantic line, is what makes rows hot.  Table 2 reads window statistics;
Table 3 reads the (row, column) pair of every activation, which window
statistics do not carry: :func:`~repro.dram.fast_model.activated_lines`
gives them for one translated window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.dram.fast_model import TraceStats, _first_of_runs, _fitting_int, _run_lengths

#: Table 3's line-count buckets (inclusive lower, exclusive upper).
LINE_BUCKETS: Tuple[Tuple[int, int], ...] = ((1, 32), (32, 64), (64, 129))


@dataclass(frozen=True)
class HotRowSummary:
    """Table-2-style summary of one analyzed window."""

    unique_rows: int
    hot_rows_64: int
    hot_rows_512: int
    activations: int
    hit_rate: float


def hot_row_summary(stats: TraceStats) -> HotRowSummary:
    """Summarize a window's hot-row statistics."""
    return HotRowSummary(
        unique_rows=stats.unique_rows_touched,
        hot_rows_64=stats.hot_rows(64),
        hot_rows_512=stats.hot_rows(512),
        activations=stats.n_activations,
        hit_rate=stats.hit_rate,
    )


@dataclass(frozen=True)
class LineContribution:
    """Table-3 row: distribution of activating-line counts per hot row.

    Attributes:
        hot_rows: Number of hot rows analyzed.
        bucket_fractions: Fraction of hot rows whose distinct activating
            line count falls in each of :data:`LINE_BUCKETS`.
        average_lines: Mean distinct activating lines per hot row.
    """

    hot_rows: int
    bucket_fractions: Dict[str, float]
    average_lines: float


def line_contribution_table(
    rows: np.ndarray, cols: np.ndarray, *, threshold: int = 64, lines_per_row: int = 128
) -> LineContribution:
    """Compute Table 3 for one window from its activations.

    ``rows`` and ``cols`` are the global row and column of every ACT in
    the window, in any order (e.g.
    :func:`~repro.dram.fast_model.activated_lines`).  A row is hot when
    it has at least ``threshold`` of them.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    if rows.shape != cols.shape:
        raise ValueError("rows and cols must be aligned")
    empty = {f"{lo}-{hi - 1}": 0.0 for lo, hi in LINE_BUCKETS}
    if rows.size == 0:
        return LineContribution(hot_rows=0, bucket_fractions=empty, average_lines=0.0)

    # One in-place sort of every activation's packed (row, line) key, in
    # the narrowest dtype that holds it: the first key of each run of
    # equal keys is one distinct activating line.  Dividing the keys in
    # place then leaves each activation's row, so each run of equal rows
    # is one activated row and its activations.  Both per-row counts
    # come out in ascending row order.
    dtype = _fitting_int((int(rows.max()) + 1) * lines_per_row - 1)
    key = np.multiply(rows, lines_per_row, dtype=dtype, casting="unsafe")
    np.add(key, cols, out=key, dtype=dtype, casting="unsafe")
    key.sort()
    first_line = _first_of_runs(key)
    key //= lines_per_row
    acts_per_row = _run_lengths(_first_of_runs(key), _fitting_int(key.size))
    row_of_line = key[first_line]
    del key, first_line
    lines_per_act_row = _run_lengths(_first_of_runs(row_of_line), np.int32)
    lines_per_hot_row = lines_per_act_row[acts_per_row >= threshold]
    hot_rows = int(lines_per_hot_row.size)
    if hot_rows == 0:
        return LineContribution(hot_rows=0, bucket_fractions=empty, average_lines=0.0)

    fractions = {}
    for lo, hi in LINE_BUCKETS:
        in_bucket = np.count_nonzero((lines_per_hot_row >= lo) & (lines_per_hot_row < hi))
        fractions[f"{lo}-{hi - 1}"] = in_bucket / hot_rows
    return LineContribution(
        hot_rows=hot_rows,
        bucket_fractions=fractions,
        average_lines=float(lines_per_hot_row.mean()),
    )


__all__ = ["LINE_BUCKETS", "HotRowSummary", "hot_row_summary", "LineContribution", "line_contribution_table"]
