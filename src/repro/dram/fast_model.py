"""Vectorized single-pass DRAM trace analyzer.

Given a mapped trace -- per-access flat bank ids and row indices in
program order -- this module computes, without per-access Python loops:

* the number of activations (ACT commands) and row-buffer hits under the
  open-adaptive page policy,
* the per-physical-row activation histogram (the input to hot-row and
  mitigation-invocation analysis), and
* optionally the (row, column) pairs of every activation, for the
  line-contribution analysis of Table 3.

The model corresponds to an in-order, per-bank stream: each bank serves
its requests in program order, a request hits iff it targets the row left
open by the previous request to that bank and the open-adaptive budget
(16 accesses by default) is not exhausted.  FR-FCFS reordering in the
detailed model only strengthens row locality; the cross-validation test
in ``tests/integration/test_tier_agreement.py`` bounds the difference.

:func:`analyze_trace` groups accesses by bank with an O(n) counting sort
over the narrow bank-id domain and builds the per-row activation
histogram with ``np.bincount`` + ``np.flatnonzero`` instead of sorting;
it is the hot path for 10M-100M-line windows.  The original
``np.argsort``/``np.unique`` implementation survives as the private
oracle :func:`_analyze_trace_sorted`, which the equivalence tests and
``scripts/bench_hotpath.py`` compare against bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.obs.profile import PROFILER


@dataclass
class TraceStats:
    """Aggregate statistics of one analyzed trace window.

    Attributes:
        n_accesses: Total memory requests analyzed.
        n_activations: ACT commands issued.
        n_hits: Row-buffer hits.
        row_ids: Global physical-row ids with at least one activation
            (sorted, unique).
        acts_per_row: Activation count aligned with ``row_ids``.
        unique_rows_touched: Number of distinct physical rows accessed.
        act_rows: If detail was kept, the global row id of every ACT.
        act_cols: If detail was kept, the column of every ACT.
    """

    n_accesses: int
    n_activations: int
    n_hits: int
    row_ids: np.ndarray
    acts_per_row: np.ndarray
    unique_rows_touched: int
    act_rows: Optional[np.ndarray] = None
    act_cols: Optional[np.ndarray] = None

    @property
    def hit_rate(self) -> float:
        """Row-buffer hit rate in [0, 1]."""
        if self.n_accesses == 0:
            return 0.0
        return self.n_hits / self.n_accesses

    def hot_rows(self, threshold: int) -> int:
        """Number of rows with at least ``threshold`` activations."""
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        return int(np.count_nonzero(self.acts_per_row >= threshold))

    def max_row_activations(self) -> int:
        """Highest activation count of any single row (security metric)."""
        if self.acts_per_row.size == 0:
            return 0
        return int(self.acts_per_row.max())

    def threshold_crossings(self, threshold: int) -> int:
        """Total times any row's count crosses a multiple of ``threshold``.

        This is the number of mitigations an ideal tracker with reset-on-
        mitigation triggers: a row with A activations crosses floor(A/t)
        times.
        """
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        return int((self.acts_per_row // threshold).sum())

    def excess_activations(self, threshold: int) -> int:
        """Total activations beyond ``threshold`` summed over rows.

        Blockhammer throttles exactly these activations.
        """
        excess = self.acts_per_row.astype(np.int64) - threshold
        return int(excess[excess > 0].sum())

    @classmethod
    def merge(cls, parts: Sequence["TraceStats"]) -> "TraceStats":
        """Merge chunk-wise statistics into one window-level result.

        Per-row histograms are summed by row id.  The detail arrays are
        kept *atomically*: ``act_rows`` (and ``act_cols``) appear in the
        merged result only when every part agrees on what detail it
        kept.  Parts that disagree on column detail drop both arrays --
        a merged ``act_rows`` spanning all activations next to an
        ``act_cols`` covering only some chunks would silently misalign
        downstream (row, col) analyses.
        """
        if not parts:
            return cls(0, 0, 0, np.empty(0, np.int64), np.empty(0, np.int64), 0)
        all_rows = np.concatenate([p.row_ids for p in parts])
        all_acts = np.concatenate([p.acts_per_row for p in parts])
        row_ids, inverse = np.unique(all_rows, return_inverse=True)
        acts = np.zeros(row_ids.size, dtype=np.int64)
        np.add.at(acts, inverse, all_acts)
        rows_kept = [p.act_rows is not None for p in parts]
        cols_kept = [p.act_cols is not None for p in parts]
        keep_detail = all(rows_kept) and (all(cols_kept) or not any(cols_kept))
        act_rows = np.concatenate([p.act_rows for p in parts]) if keep_detail else None
        act_cols = (
            np.concatenate([p.act_cols for p in parts])
            if keep_detail and all(cols_kept)
            else None
        )
        # Unique rows touched can only be bounded from below across
        # chunks; ChunkedAnalyzer overwrites it with the exact count of
        # the rows its chunks touched.
        unique_touched = max(int(row_ids.size), max(p.unique_rows_touched for p in parts))
        return cls(
            n_accesses=sum(p.n_accesses for p in parts),
            n_activations=sum(p.n_activations for p in parts),
            n_hits=sum(p.n_hits for p in parts),
            row_ids=row_ids,
            acts_per_row=acts,
            unique_rows_touched=unique_touched,
            act_rows=act_rows,
            act_cols=act_cols,
        )


def _grouping_order(flat_bank: np.ndarray, n_bank_ids: int) -> np.ndarray:
    """Stable permutation that groups accesses by bank in O(n).

    This is a counting sort over the flat-bank-id domain: bucket sizes
    come from a bincount of the ids, bucket offsets from their cumsum,
    and indices scatter into their buckets in program order.  Numpy's
    stable sort on 8/16-bit unsigned keys is exactly that counting pass
    (one histogram + prefix sum + stable scatter per key byte, all in C),
    so the ids are narrowed to the smallest width that holds them; bank
    counts beyond 2^16 -- no modeled geometry comes close -- fall back to
    the generic stable sort.
    """
    if n_bank_ids <= 1 << 8:
        key = flat_bank.astype(np.uint8)
    elif n_bank_ids <= 1 << 16:
        key = flat_bank.astype(np.uint16)
    else:
        key = flat_bank
    return np.argsort(key, kind="stable")


def _histogram_domain_ok(domain: int, n: int) -> bool:
    """Whether a dense ``np.bincount`` over ``domain`` row ids is sane.

    The dense histogram is O(n + domain) time and 8*domain bytes; beyond
    a few multiples of the trace length the allocation would dwarf the
    sorting it replaces, so larger domains use ``np.unique`` instead.
    """
    return domain <= max(1 << 22, 2 * n)


def _unique_counts(values: np.ndarray, domain: int) -> "tuple[np.ndarray, np.ndarray]":
    """Sorted unique values and their counts (``np.unique`` equivalent)."""
    if _histogram_domain_ok(domain, values.size):
        hist = np.bincount(values, minlength=0)
        ids = np.flatnonzero(hist)
        return ids.astype(np.int64, copy=False), hist[ids]
    ids, counts = np.unique(values, return_counts=True)
    return ids.astype(np.int64, copy=False), counts.astype(np.int64, copy=False)


def _grown(current: Optional[np.ndarray], size: int, dtype) -> np.ndarray:
    """A zeroed array of at least ``size``, preserving ``current``'s prefix."""
    grown = np.zeros(size, dtype=dtype)
    if current is not None:
        grown[: current.size] = current
    return grown


#: Shared empty placeholder for slimmed per-chunk stats (never mutated).
_EMPTY_ROW_IDS = np.empty(0, dtype=np.int64)


def unique_row_ids(global_row: np.ndarray, domain: Optional[int] = None) -> np.ndarray:
    """Sorted unique global row ids, via dense histogram when feasible.

    ``domain`` is an exclusive upper bound on the ids (computed from the
    array when omitted); it decides between the O(n + domain) bincount
    path and the O(n log n) ``np.unique`` fallback.
    """
    if global_row.size == 0:
        return np.empty(0, np.int64)
    if domain is None:
        domain = int(global_row.max()) + 1
    if _histogram_domain_ok(domain, global_row.size):
        return np.flatnonzero(np.bincount(global_row, minlength=0)).astype(
            np.int64, copy=False
        )
    return np.unique(global_row).astype(np.int64, copy=False)


def analyze_trace(
    flat_bank: np.ndarray,
    row: np.ndarray,
    *,
    rows_per_bank: int,
    max_hits: Optional[int] = 16,
    col: Optional[np.ndarray] = None,
    keep_detail: bool = False,
) -> TraceStats:
    """Analyze one trace window under the open-adaptive page policy.

    Args:
        flat_bank: Flat bank id per access, program order.
        row: Row index within the bank per access.
        rows_per_bank: Rows per bank (to form global row ids).
        max_hits: Open-adaptive budget; ``None`` models pure open-page.
        col: Optional column (line-in-row) per access; required when
            ``keep_detail`` is set and Table-3-style analysis is wanted.
        keep_detail: Keep per-activation (row, col) arrays.

    Returns:
        A :class:`TraceStats` for the window.
    """
    with PROFILER.phase("analyze_trace"):
        return _analyze_trace_impl(
            flat_bank,
            row,
            rows_per_bank=rows_per_bank,
            max_hits=max_hits,
            col=col,
            keep_detail=keep_detail,
        )


def _analyze_trace_impl(
    flat_bank: np.ndarray,
    row: np.ndarray,
    *,
    rows_per_bank: int,
    max_hits: Optional[int] = 16,
    col: Optional[np.ndarray] = None,
    keep_detail: bool = False,
) -> TraceStats:
    flat_bank = np.asarray(flat_bank)
    row = np.asarray(row)
    if flat_bank.shape != row.shape or flat_bank.ndim != 1:
        raise ValueError("flat_bank and row must be 1-D arrays of equal length")
    n = flat_bank.size
    if n == 0:
        return TraceStats(0, 0, 0, np.empty(0, np.int64), np.empty(0, np.int64), 0)
    if max_hits is not None and max_hits < 1:
        raise ValueError(f"max_hits must be >= 1 or None, got {max_hits}")
    n_bank_ids = int(flat_bank.max()) + 1
    # Exclusive upper bound on the global row ids; when it fits in 32
    # bits the whole kernel runs on half the memory bandwidth (the ids
    # themselves stay exact either way).  Derived from the observed row
    # maximum so even out-of-spec row indices stay in domain.
    domain = (n_bank_ids - 1) * rows_per_bank + int(row.max()) + 1
    work_dtype = np.int32 if domain <= np.iinfo(np.int32).max else np.int64
    global_row = flat_bank.astype(work_dtype) * work_dtype(rows_per_bank) + row.astype(
        work_dtype
    )

    # Group accesses by bank while preserving program order inside each bank.
    order = _grouping_order(flat_bank, n_bank_ids)
    g = global_row[order]

    # An access continues the current run iff it targets the same global
    # row as its predecessor within the same bank.  Because global row ids
    # embed the bank id, comparing them also compares banks -- except that
    # the first access of each bank group must start a new run even if the
    # previous bank's last row id coincides; embedding makes collision
    # impossible (row ids of different banks never match).
    same = np.empty(n, dtype=bool)
    same[0] = False
    np.equal(g[1:], g[:-1], out=same[1:])
    new_run = ~same

    if max_hits is None:
        act_mask = new_run
    else:
        run_starts = np.flatnonzero(new_run)
        run_id = np.cumsum(new_run)
        run_id -= 1
        pos_in_run = np.arange(n, dtype=np.int64)
        pos_in_run -= run_starts[run_id]
        if max_hits & (max_hits - 1) == 0:
            act_mask = (pos_in_run & (max_hits - 1)) == 0
        else:
            act_mask = (pos_in_run % max_hits) == 0

    act_rows = g[act_mask]
    n_act = int(act_rows.size)
    row_ids, acts_per_row = _unique_counts(act_rows, domain)
    unique_rows = int(unique_row_ids(global_row, domain).size)

    detail_rows = act_rows.astype(np.int64, copy=False) if keep_detail else None
    detail_cols = None
    if keep_detail and col is not None:
        detail_cols = np.asarray(col)[order][act_mask]

    return TraceStats(
        n_accesses=n,
        n_activations=n_act,
        n_hits=n - n_act,
        row_ids=row_ids,
        acts_per_row=acts_per_row.astype(np.int64, copy=False),
        unique_rows_touched=unique_rows,
        act_rows=detail_rows,
        act_cols=detail_cols,
    )


def _analyze_trace_sorted(
    flat_bank: np.ndarray,
    row: np.ndarray,
    *,
    rows_per_bank: int,
    max_hits: Optional[int],
    col: Optional[np.ndarray],
    keep_detail: bool,
) -> TraceStats:
    """The original argsort/np.unique kernel (reference implementation).

    Kept verbatim as the oracle the property tests and the hot-path
    benchmark compare :func:`analyze_trace` against; inputs must be
    validated, non-empty 1-D arrays.
    """
    n = flat_bank.size
    global_row = flat_bank.astype(np.int64) * np.int64(rows_per_bank) + row.astype(np.int64)

    order = np.argsort(flat_bank, kind="stable")
    g = global_row[order]

    same = np.empty(n, dtype=bool)
    same[0] = False
    same[1:] = g[1:] == g[:-1]

    run_starts = np.flatnonzero(~same)
    run_id = np.cumsum(~same) - 1
    pos_in_run = np.arange(n, dtype=np.int64) - run_starts[run_id]

    if max_hits is None:
        act_mask = ~same
    else:
        act_mask = (pos_in_run % max_hits) == 0

    n_act = int(np.count_nonzero(act_mask))
    act_rows = g[act_mask]
    row_ids, acts_per_row = np.unique(act_rows, return_counts=True)
    unique_rows = int(np.unique(g).size)

    detail_rows = act_rows if keep_detail else None
    detail_cols = None
    if keep_detail and col is not None:
        detail_cols = np.asarray(col)[order][act_mask]

    return TraceStats(
        n_accesses=n,
        n_activations=n_act,
        n_hits=n - n_act,
        row_ids=row_ids,
        acts_per_row=acts_per_row.astype(np.int64),
        unique_rows_touched=unique_rows,
        act_rows=detail_rows,
        act_cols=detail_cols,
    )


@dataclass
class ChunkedAnalyzer:
    """Incremental analyzer for traces mapped chunk-by-chunk.

    Rubix-D changes the mapping *during* a window, so the simulator maps
    and analyzes the trace in chunks, feeding each chunk's activation
    count back into the remap engine.  This class accumulates the chunk
    statistics and produces a merged window result; the row buffer is
    conservatively assumed cold at each chunk boundary (a <0.1% activation
    overcount at the default chunk size).
    """

    rows_per_bank: int
    max_hits: Optional[int] = 16
    keep_detail: bool = False
    _parts: List[TraceStats] = field(default_factory=list)
    _touched: List[np.ndarray] = field(default_factory=list)
    #: Dense accumulators: per-row activation histogram and touched-row
    #: bitmap over the global-row domain.  They replace the sort-heavy
    #: cross-chunk merge (concatenate + np.unique over every chunk's
    #: ids) with O(n) scatters; if a chunk ever pushes the domain past
    #: the dense-histogram budget, the accumulated state converts to the
    #: list-based form and the merge falls back to :meth:`TraceStats.merge`.
    _hist: Optional[np.ndarray] = None
    _seen: Optional[np.ndarray] = None
    _dense: bool = True
    _fed: int = 0

    def feed(
        self,
        flat_bank: np.ndarray,
        row: np.ndarray,
        col: Optional[np.ndarray] = None,
    ) -> TraceStats:
        """Analyze one chunk; returns the chunk's own stats."""
        stats = analyze_trace(
            flat_bank,
            row,
            rows_per_bank=self.rows_per_bank,
            max_hits=self.max_hits,
            col=col,
            keep_detail=self.keep_detail,
        )
        self._parts.append(stats)
        flat = np.asarray(flat_bank)
        rows = np.asarray(row)
        if flat.size == 0:
            return stats
        domain = int(flat.max()) * self.rows_per_bank + int(rows.max()) + 1
        work_dtype = np.int32 if domain <= np.iinfo(np.int32).max else np.int64
        global_row = flat.astype(work_dtype) * work_dtype(self.rows_per_bank) + rows.astype(
            work_dtype
        )
        self._fed += int(flat.size)
        if self._dense and _histogram_domain_ok(domain, self._fed):
            if self._hist is None or self._hist.size < domain:
                self._hist = _grown(self._hist, domain, np.int64)
                self._seen = _grown(self._seen, domain, bool)
            with PROFILER.phase("chunk_merge"):
                # Row ids are unique within a chunk, so the histogram
                # scatter needs no np.add.at; the bitmap tolerates repeats.
                self._seen[global_row] = True
                self._hist[stats.row_ids] += stats.acts_per_row
            if not self.keep_detail:
                # The chunk's per-row arrays now live in the dense
                # accumulators; retaining them per part as well made a
                # long streamed window hold every chunk's histogram at
                # once (gigabytes over a 100M-line trace).  Keep only
                # the scalar tallies the merged result needs.
                self._parts[-1] = TraceStats(
                    n_accesses=stats.n_accesses,
                    n_activations=stats.n_activations,
                    n_hits=stats.n_hits,
                    row_ids=_EMPTY_ROW_IDS,
                    acts_per_row=_EMPTY_ROW_IDS,
                    unique_rows_touched=stats.unique_rows_touched,
                )
        else:
            if self._seen is not None:
                # Domain outgrew the dense budget mid-stream: fold the
                # bitmap into the list form and continue sort-merged.
                self._touched.append(np.flatnonzero(self._seen).astype(np.int64))
                if not self.keep_detail and len(self._parts) > 1:
                    # The dense-era parts were slimmed to scalars, so
                    # the histogram is the only copy of their per-row
                    # counts: collapse it into one synthetic part the
                    # sort-based merge can consume.
                    prefix = self._parts[:-1]
                    ids = np.flatnonzero(self._hist)
                    folded = TraceStats(
                        n_accesses=sum(p.n_accesses for p in prefix),
                        n_activations=sum(p.n_activations for p in prefix),
                        n_hits=sum(p.n_hits for p in prefix),
                        row_ids=ids,
                        acts_per_row=self._hist[ids],
                        unique_rows_touched=int(ids.size),
                    )
                    self._parts = [folded, self._parts[-1]]
                self._hist = self._seen = None
            self._dense = False
            self._touched.append(unique_row_ids(global_row, domain))
        return stats

    def result(self) -> TraceStats:
        """Merged statistics across all chunks fed so far."""
        if self._hist is not None and not self._touched:
            return self._dense_result()
        merged = TraceStats.merge(self._parts)
        if self._touched:
            merged.unique_rows_touched = int(np.unique(np.concatenate(self._touched)).size)
        return merged

    def _dense_result(self) -> TraceStats:
        """Window merge from the dense accumulators.

        Same contract as :meth:`TraceStats.merge` plus the exact
        touched-row count -- row ids come out of ``np.flatnonzero``
        sorted, counts from the histogram, details concatenated in chunk
        order, all bit-identical to the reference merge.
        """
        parts = self._parts
        row_ids = np.flatnonzero(self._hist)
        rows_kept = [p.act_rows is not None for p in parts]
        cols_kept = [p.act_cols is not None for p in parts]
        keep = bool(parts) and all(rows_kept) and (all(cols_kept) or not any(cols_kept))
        return TraceStats(
            n_accesses=sum(p.n_accesses for p in parts),
            n_activations=sum(p.n_activations for p in parts),
            n_hits=sum(p.n_hits for p in parts),
            row_ids=row_ids,
            acts_per_row=self._hist[row_ids],
            unique_rows_touched=int(np.count_nonzero(self._seen)),
            act_rows=np.concatenate([p.act_rows for p in parts]) if keep else None,
            act_cols=(
                np.concatenate([p.act_cols for p in parts])
                if keep and all(cols_kept)
                else None
            ),
        )


__all__ = ["TraceStats", "analyze_trace", "ChunkedAnalyzer", "unique_row_ids"]
