"""Vectorized single-pass DRAM trace analyzer.

Given a mapped trace -- the global physical row id of every access
(``flat_bank * rows_per_bank + row``), in program order -- this module
computes, without per-access Python loops:

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

:func:`analyze_trace` is the hot path for 1M-100M-line windows, and it
takes the row ids that ``AddressMapping.global_rows`` produces straight
from the line addresses, so no window ever holds per-access bank, row
and column arrays.  It groups accesses by bank by sorting one packed
``(bank, position)`` key per access in place, in ``int32`` whenever it
fits; finds each access's position in its same-row run with a running
maximum, block by block; and counts the activated rows inside that
grouped copy, which it owns: it compacts them into the copy's prefix,
sorts the prefix in place, compacts the distinct ids and shrinks the
copy to them.  It never writes to its input, and drops its reference
to it once grouped, so ids a caller hands over (see
:meth:`~repro.perf.simulator.Simulator.window_stats`) are freed there:
a window peaks at about 8 bytes per access, the four-byte ids plus the
grouped copy, and no temporary is sized by the row domain.  The
original ``np.argsort``/``np.unique`` implementation on ``(flat_bank,
row)`` survives as the test oracle
``tests/oracles/kernels.py:analyze_trace_sorted``, which the
equivalence tests compare against bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

_INT32_MAX = int(np.iinfo(np.int32).max)


def _fitting_int(largest: int):
    """``np.int32`` when values up to ``largest`` fit in it, else ``np.int64``."""
    return np.int32 if largest <= _INT32_MAX else np.int64


#: Shared empty histogram for empty and slimmed results (never mutated).
_EMPTY_HISTOGRAM = np.empty(0, dtype=np.int32)

#: Accesses per block of the analyzer's gathers and position pass (their
#: temporaries stay cache-sized).
_BLOCK = 1 << 16


@dataclass
class TraceStats:
    """Aggregate statistics of one analyzed trace window.

    Attributes:
        n_accesses: Total memory requests analyzed.
        n_activations: ACT commands issued.
        n_hits: Row-buffer hits.
        row_ids: Global physical-row ids with at least one activation
            (sorted, unique).  ``int32`` whenever the largest id fits,
            which holds for every modelled geometry; ``int64`` beyond.
            None on a stats-cache hit, which keeps no ids.
        acts_per_row: Activation count aligned with ``row_ids``;
            ``int32`` (``int64`` only past 2^31 activations per window).
            On a stats-cache hit, the same counts in ascending order.
        unique_rows_touched: Number of distinct physical rows accessed.
        act_rows: If detail was kept, the global row id of every ACT
            (``int64``).
        act_cols: If detail was kept, the column of every ACT.

    Every producer -- :func:`analyze_trace`, :class:`ChunkedAnalyzer`
    and :meth:`merge` -- hands out the histogram in these dtypes (see
    :meth:`narrow_histogram`).  The stats cache keeps only how many rows
    reach each count (see :mod:`repro.parallel.cache`): a hit hands back
    the counts' dtype and multiset, which is all the per-row metrics
    below read, and no ids.  :meth:`merge` and
    :func:`~repro.analysis.hotrows.line_contribution_table` need the
    ids, and neither ever sees a cached window.
    """

    n_accesses: int
    n_activations: int
    n_hits: int
    row_ids: Optional[np.ndarray]
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

    @staticmethod
    def narrow_histogram(
        row_ids: np.ndarray, acts_per_row: np.ndarray, n_activations: int
    ) -> "tuple[np.ndarray, np.ndarray]":
        """A sorted per-row histogram cast to the documented dtypes."""
        largest_id = int(row_ids[-1]) if row_ids.size else 0
        return (
            row_ids.astype(_fitting_int(largest_id), copy=False),
            acts_per_row.astype(_fitting_int(n_activations), copy=False),
        )

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
            return cls(0, 0, 0, _EMPTY_HISTOGRAM, _EMPTY_HISTOGRAM, 0)
        all_rows = np.concatenate([p.row_ids for p in parts])
        all_acts = np.concatenate([p.acts_per_row for p in parts])
        row_ids, inverse = np.unique(all_rows, return_inverse=True)
        n_activations = sum(p.n_activations for p in parts)
        acts = np.zeros(row_ids.size, dtype=_fitting_int(n_activations))
        np.add.at(acts, inverse, all_acts)
        row_ids, acts = cls.narrow_histogram(row_ids, acts, n_activations)
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
        # arbitrary parts.  For parts from analyze_trace the bound is
        # exact: every run opens with an ACT, so each part touched
        # exactly its activated rows.
        unique_touched = max(int(row_ids.size), max(p.unique_rows_touched for p in parts))
        return cls(
            n_accesses=sum(p.n_accesses for p in parts),
            n_activations=n_activations,
            n_hits=sum(p.n_hits for p in parts),
            row_ids=row_ids,
            acts_per_row=acts,
            unique_rows_touched=unique_touched,
            act_rows=act_rows,
            act_cols=act_cols,
        )


def _histogram_domain_ok(domain: int, n: int) -> bool:
    """Whether a dense histogram over ``domain`` row ids is sane for ``n`` accesses.

    The dense window histogram is O(domain) memory; beyond a few
    multiples of the lines fed the allocation would dwarf the sort-based
    merge it replaces, so larger domains fall back to that merge.
    """
    return domain <= max(1 << 22, 2 * n)


def _grown(current: Optional[np.ndarray], size: int, dtype) -> np.ndarray:
    """A zeroed array of at least ``size``, preserving ``current``'s prefix."""
    grown = np.zeros(max(size, 0 if current is None else current.size), dtype=dtype)
    if current is not None:
        grown[: current.size] = current
    return grown


def _group_by_bank(
    global_row: np.ndarray, rows_per_bank: int, col: Optional[np.ndarray]
) -> "tuple[np.ndarray, Optional[np.ndarray]]":
    """Row ids (and columns) grouped by bank, program order kept per bank.

    Each access gets one packed ``bank << position_bits | position`` key
    in the narrowest signed dtype that holds it and the ids.  Keys are
    distinct, so one in-place sort of them is a stable sort by bank; each
    block of sorted keys is then overwritten with the row ids at its
    positions.  No ``intp`` permutation of the window ever exists.
    """
    n = global_row.size
    if global_row.dtype.kind == "i" and int(global_row.min()) < 0:
        raise ValueError("global row ids must be non-negative")
    largest = int(global_row.max())
    position_bits = (n - 1).bit_length()
    width = max(position_bits + (largest // rows_per_bank).bit_length(), largest.bit_length())
    if width > 63:
        raise ValueError(f"a {n}-access window with row ids up to {largest} cannot be grouped")
    dtype = _fitting_int((1 << width) - 1)
    key = np.empty(n, dtype=dtype)
    for start in range(0, n, _BLOCK):
        block = key[start : start + _BLOCK]
        np.floor_divide(
            global_row[start : start + _BLOCK], rows_per_bank, out=block, casting="unsafe"
        )
        block <<= position_bits
        block |= np.arange(start, start + block.size, dtype=dtype)
    key.sort()
    grouped_col = None if col is None else np.empty_like(col)
    position_mask = dtype((1 << position_bits) - 1)
    for start in range(0, n, _BLOCK):
        block = key[start : start + _BLOCK]
        position = block & position_mask
        if grouped_col is not None:
            grouped_col[start : start + block.size] = col[position]
        block[:] = global_row[position]
    return key, grouped_col


def _activation_mask(new_run: np.ndarray, max_hits: int) -> np.ndarray:
    """Which accesses issue an ACT under a ``max_hits`` budget, in ``new_run``'s place.

    An access activates when its position in its same-row run is a
    multiple of the budget.  The position is the access index minus the
    run's start index, and the start is a running maximum over the
    indices of the run openers, carried from block to block.
    """
    n = new_run.size
    dtype = _fitting_int(n)
    run_start = 0
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        position = np.arange(start, stop, dtype=dtype)
        starts = position * new_run[start:stop]
        starts[0] = max(int(starts[0]), run_start)
        np.maximum.accumulate(starts, out=starts)
        run_start = int(starts[-1])
        position -= starts
        if max_hits & (max_hits - 1) == 0:
            position &= max_hits - 1
        else:
            position %= max_hits
        np.equal(position, 0, out=new_run[start:stop])
    return new_run


def _run_lengths(boundary: np.ndarray, dtype) -> np.ndarray:
    """Length of every run whose first element ``boundary`` marks, in ``dtype``.

    ``boundary`` is non-empty and marks its first element.  Run starts
    are found block by block, so no ``intp`` index array of the whole
    window is built.
    """
    lengths = np.empty(np.count_nonzero(boundary), dtype=dtype)
    written = last_start = 0
    for start in range(0, boundary.size, _BLOCK):
        found = np.flatnonzero(boundary[start : start + _BLOCK])
        if found.size == 0:
            continue
        found += start
        if written:
            lengths[written - 1] = found[0] - last_start
        lengths[written : written + found.size - 1] = np.diff(found)
        last_start = int(found[-1])
        written += found.size
    lengths[written - 1] = boundary.size - last_start
    return lengths


def _compact(values: np.ndarray, keep: np.ndarray) -> int:
    """Move ``values[keep]`` to the front of ``values``, in order; returns how many.

    Block by block: a block's kept values land at or before the block's
    own start, so nothing unread is overwritten and the only temporary
    is one block's selection.
    """
    written = 0
    for start in range(0, values.size, _BLOCK):
        kept = values[start : start + _BLOCK][keep[start : start + _BLOCK]]
        values[written : written + kept.size] = kept
        written += kept.size
    return written


def _first_of_runs(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal ``values``."""
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def analyze_trace(
    global_row: np.ndarray,
    *,
    rows_per_bank: int,
    max_hits: Optional[int] = 16,
    col: Optional[np.ndarray] = None,
    keep_detail: bool = False,
) -> TraceStats:
    """Analyze one trace window under the open-adaptive page policy.

    Args:
        global_row: Global physical row id per access
            (``flat_bank * rows_per_bank + row``), program order -- e.g.
            :meth:`~repro.mapping.base.AddressMapping.global_rows` or
            :attr:`~repro.mapping.base.MappedTrace.global_row`.
        rows_per_bank: Rows per bank (the bank of an id is
            ``id // rows_per_bank``).
        max_hits: Open-adaptive budget; ``None`` models pure open-page.
        col: Optional column (line-in-row) per access; required when
            ``keep_detail`` is set and Table-3-style analysis is wanted.
        keep_detail: Keep per-activation (row, col) arrays.

    Returns:
        A :class:`TraceStats` for the window.
    """
    global_row = np.asarray(global_row)
    if global_row.ndim != 1:
        raise ValueError("global_row must be a 1-D array")
    if col is not None:
        col = np.asarray(col)
        if col.shape != global_row.shape:
            raise ValueError("col must be aligned with global_row")
    n = global_row.size
    if n == 0:
        return TraceStats(0, 0, 0, _EMPTY_HISTOGRAM, _EMPTY_HISTOGRAM, 0)
    if max_hits is not None and max_hits < 1:
        raise ValueError(f"max_hits must be >= 1 or None, got {max_hits}")
    g, grouped_col = _group_by_bank(global_row, rows_per_bank, col if keep_detail else None)
    # From here on every count happens inside ``g``, which this call
    # owns.  Dropping the input lets ids a caller handed over (kept no
    # reference to) be freed now, not when the call returns.
    del global_row, col

    # An access opens a new run iff its row differs from its
    # predecessor's in the grouped order.  Row ids embed the bank id, so
    # the first access of every bank group opens a run as well.
    act_mask = _first_of_runs(g)
    if max_hits is not None:
        act_mask = _activation_mask(act_mask, max_hits)
    n_act = _compact(g, act_mask)
    detail_rows = g[:n_act].astype(np.int64) if keep_detail else None
    detail_cols = grouped_col[act_mask] if grouped_col is not None else None
    del act_mask, grouped_col

    # Sort-count the activated rows in ``g``'s prefix: after one in-place
    # sort, each run of equal ids is one histogram entry.
    g[:n_act].sort()
    first = _first_of_runs(g[:n_act])
    acts_per_row = _run_lengths(first, _fitting_int(n_act))
    n_rows = _compact(g[:n_act], first)
    del first
    # No view of ``g`` is alive, so it can shrink in place to the ids.
    g.resize(n_rows, refcheck=False)
    row_ids, acts_per_row = TraceStats.narrow_histogram(g, acts_per_row, n_act)

    return TraceStats(
        n_accesses=n,
        n_activations=n_act,
        n_hits=n - n_act,
        row_ids=row_ids,
        acts_per_row=acts_per_row,
        # Every run opens with an ACT, so the rows touched are exactly
        # the rows activated.
        unique_rows_touched=int(row_ids.size),
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
    overcount at the default chunk size).  A window of one chunk -- every
    window shorter than the simulator's ``chunk_lines`` -- needs no merge:
    its result is that chunk's own statistics, and no histogram is built.
    """

    rows_per_bank: int
    max_hits: Optional[int] = 16
    keep_detail: bool = False
    _parts: List[TraceStats] = field(default_factory=list)
    #: Dense per-row activation histogram over the global-row domain,
    #: built when the second non-empty chunk arrives.  It replaces the
    #: sort-heavy cross-chunk merge (concatenate + np.unique over every
    #: chunk's ids) with one scatter per chunk; if the domain ever
    #: outgrows the dense budget, the accumulated counts fold into the
    #: list form and the merge falls back to :meth:`TraceStats.merge`.
    #: Every run opens with an ACT, so a chunk's ``row_ids`` are exactly
    #: the rows it touched and the histogram's nonzero entries are the
    #: window's touched rows.
    _hist: Optional[np.ndarray] = None
    _dense: bool = True
    _fed: int = 0
    _domain: int = 0

    def feed(self, global_row: np.ndarray, col: Optional[np.ndarray] = None) -> TraceStats:
        """Analyze one chunk of global row ids; returns the chunk's own stats.

        The ids are handed on to :func:`analyze_trace` with no reference
        left in this frame, so ids the caller handed over too are freed
        once grouped.
        """
        handed = [global_row]
        del global_row
        stats = analyze_trace(
            handed.pop(),
            rows_per_bank=self.rows_per_bank,
            max_hits=self.max_hits,
            col=col,
            keep_detail=self.keep_detail,
        )
        self._parts.append(stats)
        if stats.n_accesses == 0 or not self._dense:
            return stats
        self._fed += stats.n_accesses
        self._domain = max(self._domain, int(stats.row_ids[-1]) + 1)
        if self._fed == stats.n_accesses:
            # The first non-empty chunk: it stays the window's result
            # until another one arrives.
            return stats
        if not _histogram_domain_ok(self._domain, self._fed):
            # Domain outgrew the dense budget mid-stream: continue
            # sort-merged from here on.
            self._dense = False
            if self._hist is not None and not self.keep_detail:
                # The dense-era parts were slimmed to scalars, so the
                # histogram is the only copy of their per-row counts:
                # collapse it into one synthetic part the merge can consume.
                folded = self._dense_result(self._parts[:-1])
                self._parts = [folded, self._parts[-1]]
            self._hist = None
            return stats
        if self._hist is None:
            # The second non-empty chunk: the first one joins it now.
            fresh = [i for i, part in enumerate(self._parts) if part.n_accesses]
        else:
            fresh = [len(self._parts) - 1]
        count_dtype = _fitting_int(self._fed)
        if self._hist is None or self._hist.size < self._domain or self._hist.dtype != count_dtype:
            self._hist = _grown(self._hist, self._domain, count_dtype)
        for i in fresh:
            part = self._parts[i]
            # Row ids are unique within a chunk, so the scatter
            # needs no np.add.at.
            self._hist[part.row_ids] += part.acts_per_row
            if not self.keep_detail:
                # The chunk's per-row arrays now live in the
                # histogram; retaining them per part as well made a
                # long streamed window hold every chunk's histogram
                # at once (gigabytes over a 100M-line trace).  Keep
                # only the scalar tallies the merged result needs.
                self._parts[i] = TraceStats(
                    n_accesses=part.n_accesses,
                    n_activations=part.n_activations,
                    n_hits=part.n_hits,
                    row_ids=_EMPTY_HISTOGRAM,
                    acts_per_row=_EMPTY_HISTOGRAM,
                    unique_rows_touched=part.unique_rows_touched,
                )
        return stats

    def result(self) -> TraceStats:
        """Merged statistics across all chunks fed so far."""
        if self._hist is not None:
            return self._dense_result(self._parts)
        if len(self._parts) == 1:
            return self._parts[0]
        return TraceStats.merge(self._parts)

    def _dense_result(self, parts: List[TraceStats]) -> TraceStats:
        """Merge of ``parts`` whose per-row counts live in the histogram.

        Same contract as :meth:`TraceStats.merge` -- row ids come out of
        ``np.flatnonzero`` sorted, counts from the histogram, details
        concatenated in chunk order, all bit-identical to the reference
        merge.
        """
        n_activations = sum(p.n_activations for p in parts)
        row_ids = np.flatnonzero(self._hist)
        row_ids, acts = TraceStats.narrow_histogram(row_ids, self._hist[row_ids], n_activations)
        rows_kept = [p.act_rows is not None for p in parts]
        cols_kept = [p.act_cols is not None for p in parts]
        keep = bool(parts) and all(rows_kept) and (all(cols_kept) or not any(cols_kept))
        return TraceStats(
            n_accesses=sum(p.n_accesses for p in parts),
            n_activations=n_activations,
            n_hits=sum(p.n_hits for p in parts),
            row_ids=row_ids,
            acts_per_row=acts,
            unique_rows_touched=int(row_ids.size),
            act_rows=np.concatenate([p.act_rows for p in parts]) if keep else None,
            act_cols=(
                np.concatenate([p.act_cols for p in parts])
                if keep and all(cols_kept)
                else None
            ),
        )


__all__ = ["TraceStats", "analyze_trace", "ChunkedAnalyzer"]
