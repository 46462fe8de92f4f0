"""The simulator's dynamic window, on the optimized or the oracle kernels.

:func:`run_window` replays :meth:`~repro.perf.simulator.Simulator._run_dynamic`
without its instrumentation: chunked blocked global-row translation,
analysis and activation-driven remap advancement.
:func:`reference_window` runs the same window on the oracles of
:mod:`oracles.kernels`.  The two must agree bit for bit.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence, Tuple

import numpy as np

from oracles.kernels import analyze_trace_sorted, remap_steps_loop, translate_trace_loop
from repro.core.rubix_d import RubixDMapping
from repro.dram.config import DRAMConfig
from repro.dram.fast_model import ChunkedAnalyzer, TraceStats
from repro.workloads.trace import interleave, iter_line_chunks


def synth_lines(n: int, config: DRAMConfig, seed: int) -> np.ndarray:
    """A mixed synthetic line stream: hot gangs, streaming scans, pool.

    One quarter of the accesses hammer a small hot set (row-buffer hits
    and hot rows), one quarter streams sequentially (long same-row runs
    that exercise the open-adaptive budget), and the rest draws
    uniformly from the full line space (cold misses).  The three streams
    interleave deterministically, so the same ``(n, seed)`` always
    yields the same trace.
    """
    rng = np.random.default_rng(seed)
    total = config.total_lines
    n_hot = n // 4
    n_seq = n // 4
    n_rand = n - n_hot - n_seq
    hot_set = rng.integers(0, total, size=64, dtype=np.uint64)
    hot = hot_set[rng.integers(0, hot_set.size, size=n_hot)]
    start = int(rng.integers(0, max(1, total - n_seq)))
    seq = np.arange(start, start + n_seq, dtype=np.uint64)
    rand = rng.integers(0, total, size=n_rand, dtype=np.uint64)
    return interleave([hot, seq, rand])


def assert_histogram_dtypes(stats: TraceStats) -> None:
    """The documented dtypes: int32 row ids while the largest id fits,
    int64 beyond; int32 counts."""
    largest = int(stats.row_ids.max()) if stats.row_ids.size else 0
    assert stats.row_ids.dtype == (np.int32 if largest < 2**31 else np.int64)
    assert stats.acts_per_row.dtype == np.int32


def assert_stats_equal(a: TraceStats, b: TraceStats, *, dtypes: Optional[str] = None) -> None:
    """Require two analysis results to be bit-identical.

    ``dtypes`` adds a dtype check on top of the values: ``"same"``
    requires every array of ``b`` in the dtype of ``a``'s, and
    ``"documented"`` requires ``b``'s histogram in its documented narrow
    dtypes (:func:`assert_histogram_dtypes`), for an ``a`` from an
    oracle that stays ``int64``.
    """
    assert dtypes in (None, "same", "documented"), dtypes
    assert a.n_accesses == b.n_accesses
    assert a.n_activations == b.n_activations
    assert a.n_hits == b.n_hits
    assert a.unique_rows_touched == b.unique_rows_touched
    for name in ("row_ids", "acts_per_row"):
        x, y = getattr(a, name), getattr(b, name)
        assert np.array_equal(x, y), name
        if dtypes == "same":
            assert x.dtype == y.dtype, name
    if dtypes == "documented":
        assert_histogram_dtypes(b)


def merge_stats(parts: Sequence[TraceStats]) -> TraceStats:
    """The pre-optimization merge of chunk-wise statistics (the oracle).

    Per-row histograms are summed by row id through ``np.unique`` over
    every part's ids.  Unique rows touched can only be bounded from
    below across arbitrary parts; for parts from an analyzer the bound
    is exact, because every run opens with an ACT, so each part touched
    exactly its activated rows.
    """
    if not parts:
        return TraceStats(0, 0, 0, np.empty(0, np.int32), np.empty(0, np.int32), 0)
    all_rows = np.concatenate([p.row_ids for p in parts])
    all_acts = np.concatenate([p.acts_per_row for p in parts])
    row_ids, inverse = np.unique(all_rows, return_inverse=True)
    n_activations = sum(p.n_activations for p in parts)
    acts = np.zeros(row_ids.size, dtype=np.int64)
    np.add.at(acts, inverse, all_acts)
    row_ids, acts = TraceStats.narrow_histogram(row_ids, acts, n_activations)
    return TraceStats(
        n_accesses=sum(p.n_accesses for p in parts),
        n_activations=n_activations,
        n_hits=sum(p.n_hits for p in parts),
        row_ids=row_ids,
        acts_per_row=acts,
        unique_rows_touched=max(int(row_ids.size), max(p.unique_rows_touched for p in parts)),
    )


def _vgroup_shares(accesses: np.ndarray, n_activations: int) -> np.ndarray:
    """A chunk's activations attributed to v-groups by access share."""
    shares = accesses.astype(np.float64)
    total = shares.sum()
    if total > 0 and n_activations > 0:
        shares *= n_activations / total
    return shares


def run_window(
    mapping: RubixDMapping,
    lines: np.ndarray,
    *,
    chunk_lines: int,
    max_hits: Optional[int] = 16,
) -> Tuple[TraceStats, int]:
    """One dynamic window, exactly as the simulator runs it."""
    analyzer = ChunkedAnalyzer(
        rows_per_bank=mapping.config.rows_per_bank,
        rows_total=mapping.config.total_rows,
        max_hits=max_hits,
    )
    swaps = 0
    for chunk in iter_line_chunks(lines, chunk_lines):
        chunk_stats = analyzer.feed(mapping.global_rows(chunk, validate=False))
        swaps += mapping.record_activations(
            _vgroup_shares(mapping.vgroup_accesses(chunk), chunk_stats.n_activations)
        )
    return analyzer.result(), swaps


def reference_window(
    mapping: RubixDMapping,
    lines: np.ndarray,
    *,
    chunk_lines: int,
    max_hits: Optional[int] = 16,
) -> Tuple[TraceStats, int]:
    """:func:`run_window` on the pre-optimization kernels (the oracle).

    Masked per-engine translation, argsort/np.unique analysis per chunk,
    :func:`merge_stats` across chunks, ``np.unique`` over every
    touched row, v-group shares from the translated columns, and
    per-episode remap stepping (rebound on this mapping's engines only).
    Same chunking and activation attribution as :func:`run_window`, so
    the two must agree bit-for-bit.
    """
    for engine in mapping.engines:
        engine.remap_steps = partial(remap_steps_loop, engine)  # type: ignore[method-assign]
    rows_per_bank = mapping.config.rows_per_bank
    parts, touched, swaps = [], [], 0
    for chunk in iter_line_chunks(lines, chunk_lines):
        mapped = translate_trace_loop(mapping, chunk)
        stats = analyze_trace_sorted(
            mapped.flat_bank,
            mapped.row,
            rows_per_bank=rows_per_bank,
            max_hits=max_hits,
            col=mapped.col,
            keep_detail=False,
        )
        parts.append(stats)
        global_row = mapped.flat_bank.astype(np.int64) * rows_per_bank + mapped.row.astype(
            np.int64
        )
        touched.append(np.unique(global_row))
        vgroup = mapped.col.astype(np.int64) >> np.int64(mapping.k_bits)
        swaps += mapping.record_activations(
            _vgroup_shares(np.bincount(vgroup, minlength=mapping.vgroups), stats.n_activations)
        )
    merged = merge_stats(parts)
    merged.unique_rows_touched = int(np.unique(np.concatenate(touched)).size)
    return merged, swaps
