"""Vectorized single-pass DRAM trace analyzer.

Given a mapped trace -- the global physical row id of every access
(``flat_bank * rows_per_bank + row``), in program order -- this module
computes, without per-access Python loops:

* the number of activations (ACT commands) and row-buffer hits under the
  open-adaptive page policy,
* the per-physical-row activation histogram (the input to hot-row and
  mitigation-invocation analysis).

:func:`activated_lines` gives the (row, column) pair of every
activation instead, for the line-contribution analysis of Table 3, the
only consumer of per-activation detail.

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

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

_INT32_MAX = int(np.iinfo(np.int32).max)


def _fitting_int(largest: int):
    """``np.int32`` when values up to ``largest`` fit in it, else ``np.int64``."""
    return np.int32 if largest <= _INT32_MAX else np.int64


#: Shared empty array for empty results (never mutated).
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

    Both producers -- :func:`analyze_trace` and :class:`ChunkedAnalyzer`
    -- hand out the histogram in these dtypes (see
    :meth:`narrow_histogram`).  The stats cache keeps only how many rows
    reach each count (see :mod:`repro.parallel.cache`): a hit hands back
    the counts' dtype and multiset, which is all the per-row metrics
    below read, and no ids.
    """

    n_accesses: int
    n_activations: int
    n_hits: int
    row_ids: Optional[np.ndarray]
    acts_per_row: np.ndarray
    unique_rows_touched: int

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

        Blockhammer throttles exactly these activations.  Only the
        counts above ``threshold`` are summed, in ``int64``, so no wide
        copy of every row's count is made.
        """
        above = self.acts_per_row[self.acts_per_row > threshold]
        return int(above.sum(dtype=np.int64)) - threshold * int(above.size)

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


def _group_by_bank(global_row: np.ndarray, rows_per_bank: int) -> np.ndarray:
    """Row ids grouped by bank, program order kept per bank.

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
    position_mask = dtype((1 << position_bits) - 1)
    for start in range(0, n, _BLOCK):
        block = key[start : start + _BLOCK]
        block[:] = global_row[block & position_mask]
    return key


def check_max_hits(max_hits: Optional[int]) -> None:
    """Reject an open-adaptive budget below one access (``None`` is open page).

    Every tier -- this analyzer, the event-level memory system and the
    protocol engine -- takes the budget as ``max_hits`` and checks it here.
    """
    if max_hits is not None and max_hits < 1:
        raise ValueError(f"max_hits must be >= 1 or None, got {max_hits}")


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

    Returns:
        A :class:`TraceStats` for the window.
    """
    global_row = np.asarray(global_row)
    if global_row.ndim != 1:
        raise ValueError("global_row must be a 1-D array")
    check_max_hits(max_hits)
    n = global_row.size
    if n == 0:
        return TraceStats(0, 0, 0, _EMPTY_HISTOGRAM, _EMPTY_HISTOGRAM, 0)
    g = _group_by_bank(global_row, rows_per_bank)
    # From here on every count happens inside ``g``, which this call
    # owns.  Dropping the input lets ids a caller handed over (kept no
    # reference to) be freed now, not when the call returns.
    del global_row

    # An access opens a new run iff its row differs from its
    # predecessor's in the grouped order.  Row ids embed the bank id, so
    # the first access of every bank group opens a run as well.
    act_mask = _first_of_runs(g)
    if max_hits is not None:
        act_mask = _activation_mask(act_mask, max_hits)
    n_act = _compact(g, act_mask)
    del act_mask

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
    )


def activated_lines(
    global_row: np.ndarray,
    col: np.ndarray,
    *,
    rows_per_bank: int,
    lines_per_row: int,
    max_hits: Optional[int] = 16,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(row, column)`` of every ACT of one window, grouped by bank.

    The activations are the ones :func:`analyze_trace` counts, in bank
    order and program order within a bank.  Each access's row and column
    (below ``lines_per_row``) are packed into one line id, so the same
    bank grouping as :func:`analyze_trace`'s carries the columns along;
    the window holds the packed ids and their grouped copy, never a
    separate column permutation.  Both results are in the packed ids'
    dtype (``int32`` for every modelled geometry).  The input is never
    written to.
    """
    global_row, col = np.asarray(global_row), np.asarray(col)
    if global_row.ndim != 1 or col.shape != global_row.shape:
        raise ValueError("global_row and col must be aligned 1-D arrays")
    check_max_hits(max_hits)
    if global_row.size == 0:
        return _EMPTY_HISTOGRAM, _EMPTY_HISTOGRAM
    dtype = _fitting_int((int(global_row.max()) + 1) * lines_per_row - 1)
    line = np.multiply(global_row, lines_per_row, dtype=dtype, casting="unsafe")
    np.add(line, col, out=line, dtype=dtype, casting="unsafe")
    grouped = _group_by_bank(line, rows_per_bank * lines_per_row)
    del line
    act_mask = _first_of_runs(grouped // lines_per_row)
    if max_hits is not None:
        act_mask = _activation_mask(act_mask, max_hits)
    n_act = _compact(grouped, act_mask)
    del act_mask
    # No view of ``grouped`` is alive: it shrinks in place to the
    # activated lines and becomes their columns.
    grouped.resize(n_act, refcheck=False)
    rows = grouped // lines_per_row
    grouped %= lines_per_row
    return rows, grouped


@dataclass
class ChunkedAnalyzer:
    """Incremental analyzer for traces mapped chunk-by-chunk.

    Rubix-D changes the mapping *during* a window, so the simulator maps
    and analyzes the trace in chunks, feeding each chunk's activation
    count back into the remap engine.  This class accumulates the chunk
    statistics and produces the window result; the row buffer is
    conservatively assumed cold at each chunk boundary (a <0.1% activation
    overcount at the default chunk size).  A window of one chunk -- every
    window shorter than the simulator's ``chunk_lines`` -- needs no merge:
    its result is that chunk's own statistics, and no histogram is built.
    ``rows_total`` is the global-row domain: a chunk with an id at or
    past it raises ``ValueError`` before the histogram grows.
    """

    rows_per_bank: int
    rows_total: int
    max_hits: Optional[int] = 16
    #: The first non-empty chunk's statistics, the window's result until
    #: a second non-empty chunk arrives.
    _first: Optional[TraceStats] = None
    #: Dense per-row activation histogram over the global-row domain,
    #: built when the second non-empty chunk arrives: one scatter per
    #: chunk instead of a sort-heavy cross-chunk merge.  It is O(largest
    #: row id), below ``rows_total``: 8 MiB of ``int32`` counts on the
    #: 2^21-row baseline, 16 MiB on the 2^22-row systems.  Every run opens
    #: with an ACT, so a chunk's ``row_ids`` are exactly the rows it
    #: touched and the histogram's nonzero entries are the window's
    #: touched rows.
    _hist: Optional[np.ndarray] = None
    _n_accesses: int = 0
    _n_activations: int = 0

    def feed(self, global_row: np.ndarray) -> TraceStats:
        """Analyze one chunk of global row ids; returns the chunk's own stats.

        The ids are handed on to :func:`analyze_trace` with no reference
        left in this frame, so ids the caller handed over too are freed
        once grouped.
        """
        handed = [global_row]
        del global_row
        stats = analyze_trace(
            handed.pop(), rows_per_bank=self.rows_per_bank, max_hits=self.max_hits
        )
        if stats.n_accesses == 0:
            return stats
        if stats.row_ids[-1] >= self.rows_total:
            raise ValueError(f"row id {stats.row_ids[-1]} is outside the {self.rows_total}-row domain")
        self._n_accesses += stats.n_accesses
        self._n_activations += stats.n_activations
        parts = [stats]
        if self._hist is None:
            if self._first is None:
                self._first = stats
                return stats
            # The second non-empty chunk: the first one joins it now, and
            # the histogram is sized for both at once.
            parts.append(self._first)
            self._first = None
        count_dtype = _fitting_int(self._n_accesses)
        held = _EMPTY_HISTOGRAM if self._hist is None else self._hist
        size = max([held.size] + [int(part.row_ids[-1]) + 1 for part in parts])
        if size > held.size or held.dtype != count_dtype:
            self._hist = np.zeros(size, dtype=count_dtype)
            self._hist[: held.size] = held
        for part in parts:
            # Row ids are unique within a chunk, so the scatter needs no
            # np.add.at.
            self._hist[part.row_ids] += part.acts_per_row
        return stats

    def result(self) -> TraceStats:
        """The window's statistics across all chunks fed so far."""
        if self._first is not None:
            return self._first
        if self._hist is None:
            return TraceStats(0, 0, 0, _EMPTY_HISTOGRAM, _EMPTY_HISTOGRAM, 0)
        row_ids = np.flatnonzero(self._hist)
        row_ids, acts = TraceStats.narrow_histogram(
            row_ids, self._hist[row_ids], self._n_activations
        )
        return TraceStats(
            n_accesses=self._n_accesses,
            n_activations=self._n_activations,
            n_hits=self._n_accesses - self._n_activations,
            row_ids=row_ids,
            acts_per_row=acts,
            unique_rows_touched=int(row_ids.size),
        )


__all__ = ["TraceStats", "check_max_hits", "analyze_trace", "activated_lines", "ChunkedAnalyzer"]
