"""Hot-path kernel benchmark harness (see ``scripts/bench_hotpath.py``).

Five kernels dominate fast-tier simulation time on multi-million-line
windows, and each now has a vectorized implementation next to its
pre-optimization reference, kept in-tree:

* **translate** -- :meth:`RubixDMapping.translate_trace` (gather over
  snapshot register arrays) vs :meth:`RubixDMapping._translate_trace_loop`
  (one masked pass per remap engine),
* **analyze** -- :func:`analyze_trace` (packed bank/position keys
  sorted in place + sort-counted int32 histograms) vs
  :func:`_analyze_trace_sorted` (argsort/np.unique in int64),
* **remap** -- :meth:`XorRemapEngine.remap_steps` (closed-form swap
  counting) vs :meth:`XorRemapEngine._remap_steps_loop` (per-episode walk),
* **static translate** -- Coffee Lake's :meth:`FieldDecodeMapping.translate_trace`
  (one shift and mask per bit run, uint32) vs
  :meth:`FieldDecodeMapping._translate_trace_reference` (per-bit gather),
* **encrypt** -- Rubix-S's fused :meth:`KCipher.encrypt` vs the unfused
  per-round reference :func:`~repro.crypto.feistel._permute_unfused`,

plus an **end-to-end** dynamic window (chunked blocked global-row
translation + analyze + activation-driven remap advancement, mirroring
:meth:`~repro.perf.simulator.Simulator._run_dynamic`) run once with every
optimized kernel (:func:`run_window`) and once with every reference
kernel (:func:`_reference_window`).

Every benchmark *asserts* that both implementations produce bit-identical
results before reporting timings, so a regression in equivalence fails
loudly rather than producing a fast-but-wrong number.  Timings are
best-of-``reps`` over warmed inputs (first-touch page faults on fresh
10M-element allocations otherwise dominate and distort per-kernel
numbers on this class of machine).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.rubix_d import RubixDMapping
from repro.core.rubix_s import RubixSMapping
from repro.crypto.feistel import _permute_unfused
from repro.dram.config import DRAMConfig, baseline_config
from repro.dram.fast_model import (
    ChunkedAnalyzer,
    TraceStats,
    _analyze_trace_sorted,
    analyze_trace,
)
from repro.mapping.base import MappedTrace
from repro.mapping.intel import CoffeeLakeMapping
from repro.workloads.trace import interleave, iter_line_chunks

#: Default window length -- the ISSUE's benchmark target.
DEFAULT_LINES = 10_000_000

#: Default seed for the synthetic benchmark trace.
DEFAULT_SEED = 0xB16B00


@dataclass(frozen=True)
class KernelResult:
    """Timing of one kernel pair (reference vs optimized)."""

    name: str
    legacy_s: float
    optimized_s: float

    @property
    def speedup(self) -> float:
        if self.optimized_s <= 0.0:
            return float("inf")
        return self.legacy_s / self.optimized_s

    def as_dict(self) -> Dict[str, float]:
        return {
            "legacy_s": self.legacy_s,
            "optimized_s": self.optimized_s,
            "speedup": self.speedup,
        }


def synth_lines(n: int, config: DRAMConfig, seed: int = DEFAULT_SEED) -> np.ndarray:
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


def _best_of(fn: Callable[[], object], reps: int) -> Tuple[float, object]:
    """Minimum wall-clock over ``reps`` calls, plus the last result."""
    best = float("inf")
    result: object = None
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def assert_stats_equal(a: TraceStats, b: TraceStats) -> None:
    """Require two analysis results to be bit-identical, detail included."""
    assert a.n_accesses == b.n_accesses
    assert a.n_activations == b.n_activations
    assert a.n_hits == b.n_hits
    assert a.unique_rows_touched == b.unique_rows_touched
    assert np.array_equal(a.row_ids, b.row_ids)
    assert np.array_equal(a.acts_per_row, b.acts_per_row)
    assert (a.act_rows is None) == (b.act_rows is None)
    if a.act_rows is not None:
        assert np.array_equal(a.act_rows, b.act_rows)
    assert (a.act_cols is None) == (b.act_cols is None)
    if a.act_cols is not None:
        assert np.array_equal(a.act_cols, b.act_cols)


def assert_mapped_equal(a: MappedTrace, b: MappedTrace) -> None:
    """Require two translations to agree field-for-field."""
    assert np.array_equal(np.asarray(a.flat_bank), np.asarray(b.flat_bank))
    assert np.array_equal(np.asarray(a.row), np.asarray(b.row))
    assert np.array_equal(np.asarray(a.col), np.asarray(b.col))


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
    analyzer = ChunkedAnalyzer(rows_per_bank=mapping.config.rows_per_bank, max_hits=max_hits)
    swaps = 0
    for chunk in iter_line_chunks(lines, chunk_lines):
        chunk_stats = analyzer.feed(mapping.global_rows(chunk, validate=False))
        swaps += mapping.record_activations(
            _vgroup_shares(mapping.vgroup_accesses(chunk), chunk_stats.n_activations)
        )
    return analyzer.result(), swaps


def _reference_window(
    mapping: RubixDMapping,
    lines: np.ndarray,
    *,
    chunk_lines: int,
    max_hits: Optional[int] = 16,
) -> Tuple[TraceStats, int]:
    """:func:`run_window` on the pre-optimization kernels (the oracle).

    Masked per-engine translation, argsort/np.unique analysis per chunk,
    :meth:`TraceStats.merge` across chunks, ``np.unique`` over every
    touched row, v-group shares from the translated columns, and
    per-episode remap stepping (rebound on this mapping's engines only).
    Same chunking and activation attribution as :func:`run_window`, so
    the two must agree bit-for-bit.
    """
    for engine in mapping.engines:
        engine.remap_steps = engine._remap_steps_loop  # type: ignore[method-assign]
    rows_per_bank = mapping.config.rows_per_bank
    parts, touched, swaps = [], [], 0
    for chunk in iter_line_chunks(lines, chunk_lines):
        mapped = mapping._translate_trace_loop(chunk)
        stats = _analyze_trace_sorted(
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
    merged = TraceStats.merge(parts)
    merged.unique_rows_touched = int(np.unique(np.concatenate(touched)).size)
    return merged, swaps


def bench_translate(
    mapping: RubixDMapping, lines: np.ndarray, *, reps: int
) -> KernelResult:
    """Gather-based chunk translation vs the per-engine masked loop."""
    slow, ref = _best_of(lambda: mapping._translate_trace_loop(lines), reps)
    fast, new = _best_of(lambda: mapping.translate_trace(lines, validate=False), reps)
    assert_mapped_equal(ref, new)
    return KernelResult("translate_trace", slow, fast)


def bench_analyze(
    mapping: RubixDMapping, lines: np.ndarray, *, reps: int, max_hits: Optional[int] = 16
) -> KernelResult:
    """Packed-key analysis of global row ids vs the argsort/np.unique reference."""
    mapped = mapping.translate_trace(lines, validate=False)
    global_row = mapped.global_row
    kwargs = dict(rows_per_bank=mapping.config.rows_per_bank, max_hits=max_hits)
    slow, ref = _best_of(
        lambda: _analyze_trace_sorted(
            mapped.flat_bank, mapped.row, col=mapped.col, keep_detail=False, **kwargs
        ),
        reps,
    )
    fast, new = _best_of(lambda: analyze_trace(global_row, **kwargs), reps)
    assert_stats_equal(ref, new)
    return KernelResult("analyze_trace", slow, fast)


def bench_static_translate(config: DRAMConfig, lines: np.ndarray, *, reps: int) -> KernelResult:
    """Coffee Lake bit-run translation vs the per-bit ``_gather_field`` oracle."""
    mapping = CoffeeLakeMapping(config)
    slow, ref = _best_of(lambda: mapping._translate_trace_reference(lines), reps)
    fast, new = _best_of(lambda: mapping.translate_trace(lines, validate=False), reps)
    assert_mapped_equal(ref, new)
    return KernelResult("static_translate", slow, fast)


def bench_encrypt(
    config: DRAMConfig, lines: np.ndarray, *, reps: int, gang_size: int, seed: int
) -> KernelResult:
    """Rubix-S gang encryption: fused K-Cipher vs the unfused per-round reference."""
    mapping = RubixSMapping(config, gang_size=gang_size, seed=seed)
    gangs = lines >> np.uint64(mapping.splitter.k_bits)
    network = mapping.cipher._network
    slow, ref = _best_of(lambda: _permute_unfused(network, gangs), reps)
    fast, new = _best_of(lambda: mapping.cipher.encrypt(gangs, validate=False), reps)
    assert np.array_equal(ref, new), "fused encryption differs from the unfused reference"
    return KernelResult("encrypt", slow, fast)


def bench_e2e(
    config: DRAMConfig,
    lines: np.ndarray,
    *,
    chunk_lines: int,
    reps: int,
    gang_size: int = 4,
    segments: int = 1,
    seed: int = DEFAULT_SEED,
) -> KernelResult:
    """Full dynamic window: map + analyze + remap, legacy vs optimized.

    Fresh same-seed mappings per repetition (remap state advances during
    a window); the two pipelines' merged :class:`TraceStats` and swap
    totals are asserted bit-identical -- this is the acceptance check
    that the simulator's :class:`~repro.perf.simulator.RunResult`
    inputs are unchanged by the optimization.
    """

    def fresh() -> RubixDMapping:
        return RubixDMapping(config, gang_size=gang_size, seed=seed, segments=segments)

    def legacy() -> Tuple[TraceStats, int]:
        return _reference_window(fresh(), lines, chunk_lines=chunk_lines)

    def optimized() -> Tuple[TraceStats, int]:
        return run_window(fresh(), lines, chunk_lines=chunk_lines)

    slow, ref = _best_of(legacy, reps)
    fast, new = _best_of(optimized, reps)
    ref_stats, ref_swaps = ref
    new_stats, new_swaps = new
    assert ref_swaps == new_swaps, f"swap totals differ: {ref_swaps} vs {new_swaps}"
    assert_stats_equal(ref_stats, new_stats)
    return KernelResult("e2e_window", slow, fast)


def run_benchmarks(
    *,
    lines: int = DEFAULT_LINES,
    reps: int = 3,
    seed: int = DEFAULT_SEED,
    chunk_lines: int = 1 << 20,
    gang_size: int = 4,
    segments: int = 1,
    config: Optional[DRAMConfig] = None,
) -> Dict[str, object]:
    """Run all six kernel benchmarks; returns a JSON-ready report.

    Every pair is equivalence-checked before timing is reported, so a
    returned report certifies bit-identical results at its parameters.
    """
    config = config or baseline_config()
    trace = synth_lines(lines, config, seed=seed)
    mapping = RubixDMapping(config, gang_size=gang_size, seed=seed, segments=segments)
    # A remap-kernel call that crosses one epoch boundary (1.33x the
    # engine's space), so the wrap-around path -- key rotation and
    # pointer reset mid-count -- is always part of the equivalence check.
    remap_steps = mapping.engines[0].space + mapping.engines[0].space // 3

    results = [
        bench_translate(mapping, trace, reps=reps),
        bench_analyze(mapping, trace, reps=reps),
        bench_remap_steps_for(mapping, steps=remap_steps, reps=reps, seed=seed),
        bench_e2e(
            config,
            trace,
            chunk_lines=chunk_lines,
            reps=reps,
            gang_size=gang_size,
            segments=segments,
            seed=seed,
        ),
        bench_static_translate(config, trace, reps=reps),
        bench_encrypt(config, trace, reps=reps, gang_size=gang_size, seed=seed),
    ]
    return {
        "config": {
            "lines": int(lines),
            "reps": int(reps),
            "seed": int(seed),
            "chunk_lines": int(chunk_lines),
            "gang_size": int(gang_size),
            "segments": int(segments),
            "remap_steps": int(remap_steps),
            "total_lines": int(config.total_lines),
            "numpy": np.__version__,
        },
        "equivalence": "bit-identical (asserted in-run for every kernel pair)",
        "kernels": {r.name: r.as_dict() for r in results},
    }


def bench_remap_steps_for(
    mapping: RubixDMapping, *, steps: int, reps: int, seed: int
) -> KernelResult:
    """Remap-kernel benchmark sized to a mapping's engine space."""
    from repro.core.remap_engine import XorRemapEngine

    nbits = mapping.engines[0].nbits

    def loop() -> Tuple[int, int, int, int, int]:
        e = XorRemapEngine(nbits=nbits, seed=seed)
        swaps = e._remap_steps_loop(steps)
        return (swaps, e.swaps_performed, e.swaps_skipped, e.ptr, e.epochs_completed)

    def closed() -> Tuple[int, int, int, int, int]:
        e = XorRemapEngine(nbits=nbits, seed=seed)
        swaps = e.remap_steps(steps)
        return (swaps, e.swaps_performed, e.swaps_skipped, e.ptr, e.epochs_completed)

    slow, ref = _best_of(loop, reps)
    fast, new = _best_of(closed, reps)
    assert ref == new, f"remap_steps mismatch: loop={ref} closed={new}"
    return KernelResult("remap_steps", slow, fast)


def format_report(report: Dict[str, object]) -> str:
    """Human-readable table for one :func:`run_benchmarks` report."""
    cfg = report["config"]
    lines = [
        f"hot-path kernels @ {cfg['lines']:,} lines "
        f"(reps={cfg['reps']}, seed={cfg['seed']:#x}, "
        f"GS{cfg['gang_size']}, segments={cfg['segments']})",
        f"{'kernel':<16} {'legacy (s)':>12} {'optimized (s)':>14} {'speedup':>9}",
    ]
    for name, entry in report["kernels"].items():
        lines.append(
            f"{name:<16} {entry['legacy_s']:>12.4f} "
            f"{entry['optimized_s']:>14.4f} {entry['speedup']:>8.2f}x"
        )
    lines.append(f"equivalence: {report['equivalence']}")
    return "\n".join(lines)


__all__ = [
    "DEFAULT_LINES",
    "DEFAULT_SEED",
    "KernelResult",
    "assert_mapped_equal",
    "assert_stats_equal",
    "bench_analyze",
    "bench_e2e",
    "bench_encrypt",
    "bench_remap_steps_for",
    "bench_static_translate",
    "bench_translate",
    "format_report",
    "run_benchmarks",
    "run_window",
    "synth_lines",
]
