"""Hot-row characterization (Tables 2 and 3).

A *hot row* receives at least ``threshold`` activations within one
refresh window.  Table 2 counts them per workload (ACT-64+ / ACT-512+);
Table 3 asks how many distinct lines of each hot row contributed
activations -- the evidence that the line-to-row mapping, not a single
frantic line, is what makes rows hot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.dram.fast_model import TraceStats, _first_of_runs, _run_lengths

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
    stats: TraceStats, *, threshold: int = 64, lines_per_row: int = 128
) -> LineContribution:
    """Compute Table 3 for one window.

    Requires the window to have been analyzed with ``keep_detail=True``
    (the per-activation row/column arrays).
    """
    if stats.act_rows is None or stats.act_cols is None:
        raise ValueError("line contribution needs keep_detail=True analysis")
    hot_ids = stats.row_ids[stats.acts_per_row >= threshold]
    empty = {f"{lo}-{hi - 1}": 0.0 for lo, hi in LINE_BUCKETS}
    if hot_ids.size == 0:
        return LineContribution(hot_rows=0, bucket_fractions=empty, average_lines=0.0)

    # One in-place sort of every activation's packed (row, line) key:
    # the first key of each run of equal keys is one distinct activating
    # line, and the first of each run of equal rows among those is one
    # activated row.
    key = stats.act_rows.astype(np.int64)
    key *= lines_per_row
    np.add(key, stats.act_cols, out=key, casting="unsafe")
    key.sort()
    row_of_line = key[_first_of_runs(key)]
    row_of_line //= lines_per_row
    first_line = _first_of_runs(row_of_line)
    lines_per_act_row = _run_lengths(first_line, np.int64)
    # Every hot row was activated, so each one is found.
    lines_per_hot_row = lines_per_act_row[np.searchsorted(row_of_line[first_line], hot_ids)]

    fractions = {}
    for lo, hi in LINE_BUCKETS:
        in_bucket = np.count_nonzero((lines_per_hot_row >= lo) & (lines_per_hot_row < hi))
        fractions[f"{lo}-{hi - 1}"] = in_bucket / hot_ids.size
    return LineContribution(
        hot_rows=int(hot_ids.size),
        bucket_fractions=fractions,
        average_lines=float(lines_per_hot_row.mean()),
    )


__all__ = ["LINE_BUCKETS", "HotRowSummary", "hot_row_summary", "LineContribution", "line_contribution_table"]
