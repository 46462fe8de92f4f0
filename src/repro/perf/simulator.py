"""End-to-end simulation driver: trace -> mapping -> stats -> performance.

This is the orchestration layer the experiments use.  A run takes a
:class:`~repro.workloads.trace.Trace`, an address mapping, a mitigation
scheme name, and a Rowhammer threshold, and produces a
:class:`RunResult` with hot-row statistics, mitigation counts, execution
time, and (when a baseline is supplied) normalized performance.

Rubix-D traces are processed in chunks so the remap engines advance
*during* the window, exactly as the probabilistic remapping would.
Window statistics are cached per (trace, mapping) -- keyed on the trace
*content* fingerprint, not just its name/shape -- so the three
mitigation schemes, which share the same memory behaviour, reuse one
analysis pass, and (with a persistent
:class:`~repro.parallel.cache.StatsCache`) parallel campaign workers
reuse each other's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.rubix_d import RubixDMapping
from repro.dram.config import DRAMConfig, baseline_config
from repro.dram.fast_model import ChunkedAnalyzer, TraceStats, analyze_trace
from repro.dram.power import DDR4PowerModel, PowerBreakdown
from repro.mapping.base import AddressMapping
from repro.mapping.intel import CoffeeLakeMapping
from repro.obs.runtime import METRICS, TRACER
from repro.parallel.cache import StatsCache, stats_cache_key
from repro.perf.core_model import Calibration, PerformanceModel
from repro.perf.metrics import slowdown_percent
from repro.workloads.trace import Trace, iter_line_chunks

#: Schemes :meth:`Simulator.run` accepts.
SCHEMES = ("none", "aqua", "srs", "blockhammer", "trr")


@dataclass
class RunResult:
    """Outcome of one (trace, mapping, mitigation, threshold) run."""

    trace_name: str
    mapping_name: str
    scheme: str
    t_rh: int
    accesses: int
    activations: int
    hit_rate: float
    unique_rows: int
    hot_rows_64: int
    hot_rows_512: int
    max_row_activations: int
    mitigations: int
    remap_swaps: int
    exec_time_s: float
    window_s: float
    normalized_performance: Optional[float] = None
    t_core_s: float = 0.0
    t_memory_s: float = 0.0
    t_mitigation_s: float = 0.0
    t_remap_s: float = 0.0

    @property
    def slowdown_pct(self) -> float:
        """Percent slowdown vs the baseline (requires normalization)."""
        if self.normalized_performance is None:
            raise ValueError("run was not normalized against a baseline")
        return slowdown_percent(self.normalized_performance)

    def breakdown(self) -> "dict[str, float]":
        """Execution-time decomposition as fractions of the total.

        Useful for diagnosing *why* a configuration is slow: mitigation-
        dominated (baseline mappings at low T_RH) vs memory-latency-
        dominated (small gang sizes) vs remap traffic (Rubix-D).
        """
        total = self.exec_time_s or 1.0
        return {
            "core": self.t_core_s / total,
            "memory": self.t_memory_s / total,
            "mitigation": self.t_mitigation_s / total,
            "remap": self.t_remap_s / total,
        }


class Simulator:
    """Fast-tier simulation orchestrator.

    Args:
        config: DRAM geometry/timing (Table 1 baseline by default).
        chunk_lines: Chunk size for Rubix-D windows (remap state advances
            between chunks).
        max_hits: Open-adaptive budget (Table 1: 16).
        stats_cache: Window-statistics cache (a fresh in-memory
            :class:`~repro.parallel.cache.StatsCache` by default; pass
            one with a ``persist_dir`` to share analysis results across
            processes).
    """

    def __init__(
        self,
        config: Optional[DRAMConfig] = None,
        *,
        chunk_lines: int = 1 << 20,
        max_hits: int = 16,
        stats_cache: Optional[StatsCache] = None,
    ) -> None:
        self.config = config or baseline_config()
        self.model = PerformanceModel(self.config, Calibration())
        self.power_model = DDR4PowerModel()
        self.chunk_lines = chunk_lines
        self.max_hits = max_hits
        self.stats_cache = stats_cache if stats_cache is not None else StatsCache()

    # ------------------------------------------------------------------
    def _trace_key(self, trace: Trace) -> Tuple:
        # The content fingerprint (and the generator seed, when the
        # trace carries one) is load-bearing: name/scale/size alone
        # collide for same-shaped traces with different contents.
        return (
            trace.name,
            trace.scale,
            int(trace.lines.size),
            trace.fingerprint,
            trace.seed,
        )

    def _cache_key(self, trace: Trace, mapping: AddressMapping, *, dynamic: bool) -> str:
        # A mapping decodes differently on every geometry, so the key
        # carries the mapping's whole geometry, not just rows per bank.
        c = mapping.config
        geometry = (c.channels, c.ranks, c.banks, c.rows_per_bank, c.row_bytes, c.line_bytes)
        return stats_cache_key(
            trace_key=self._trace_key(trace),
            mapping_key=f"{mapping.cache_key}/geometry={geometry}",
            rows_per_bank=self.config.rows_per_bank,
            max_hits=self.max_hits,
            # Chunk boundaries only matter when the mapping advances
            # between chunks; keying them for static mappings would
            # needlessly split the cache across chunk-size settings.
            chunk_lines=self.chunk_lines if dynamic else None,
        )

    def window_stats(
        self,
        trace: Trace,
        mapping: AddressMapping,
        *,
        use_cache: bool = True,
    ) -> Tuple[TraceStats, int]:
        """Analyze one window; returns (stats, rubix_d_swaps).

        Rubix-D mappings are simulated chunk-by-chunk with activation-
        driven remap advancement; all other mappings translate the whole
        trace in one blockwise pass (:meth:`AddressMapping.global_rows`).
        The statistics are per-row activation counts, with no
        per-activation detail: Table 3, the one reader of activation
        columns, takes them from
        :func:`~repro.dram.fast_model.activated_lines` instead.
        """
        dynamic = isinstance(mapping, RubixDMapping) and mapping.remap_rate > 0.0
        # Only a consulted cache needs the key, and with it the trace's
        # fingerprint.
        key = None
        if use_cache:
            key = self._cache_key(trace, mapping, dynamic=dynamic)
            cached = self.stats_cache.get(key)
            if cached is not None:
                return cached

        self._check_window(trace, mapping)
        mode = "dynamic" if dynamic else "static"
        with TRACER.span(
            "sim.window", trace=trace.name, mapping=mapping.name, mode=mode
        ) as window:
            if not dynamic:
                # Window already validated above -- the mapping can skip
                # its own domain scan.  global_rows translates block by
                # block, and releases a memory-mapped window's pages
                # block by block too, so a static window over an .rtr
                # trace streams like a Rubix-D one.
                with window.child("sim.translate"):
                    handed = [mapping.global_rows(trace.lines, validate=False)]
                with window.child("sim.analyze"):
                    # Popped, the ids are handed over: on CPython 3.11
                    # and later the analyzer's frame then owns them, and
                    # frees them as soon as it has grouped them by bank
                    # (earlier versions free them when the call returns,
                    # with identical results).
                    stats = analyze_trace(
                        handed.pop(),
                        rows_per_bank=mapping.config.rows_per_bank,
                        max_hits=self.max_hits,
                    )
                swaps = 0
            else:
                stats, swaps = self._run_dynamic(trace, mapping, window)
        if METRICS.enabled:
            METRICS.inc("sim.windows", mode=mode)
            METRICS.inc("sim.lines", int(trace.lines.size))
            METRICS.inc("sim.activations", int(stats.n_activations))

        if key is not None:
            self.stats_cache.put(key, stats, swaps)
        return stats, swaps

    def _check_window(self, trace: Trace, mapping: AddressMapping) -> None:
        """Validate the window's line domain once, up front.

        One max scan per window replaces per-chunk (and, pre-PR 3,
        per-engine) scans in the translation hot loop.  The scan runs in
        released chunks so a memmap-backed trace is validated without
        ever becoming fully resident.
        """
        total_lines = mapping.config.total_lines
        for chunk in iter_line_chunks(trace.lines, 1 << 21):
            if chunk.size and int(chunk.max()) >= total_lines:
                raise ValueError(
                    f"trace '{trace.name}' has line addresses beyond the "
                    f"{total_lines}-line memory of {mapping.name}"
                )

    def _run_dynamic(
        self, trace: Trace, mapping: RubixDMapping, window
    ) -> Tuple[TraceStats, int]:
        analyzer = ChunkedAnalyzer(
            mapping.config.rows_per_bank, mapping.config.total_rows, max_hits=self.max_hits
        )
        swaps = 0
        # One child scope per phase, re-entered per chunk: the window
        # span records each phase once, summed over the chunks.
        translate = window.child("sim.translate")
        analyze = window.child("sim.analyze")
        # iter_line_chunks releases consumed memmap pages between chunks,
        # so file-backed traces stream through here at ~chunk-sized RSS.
        for chunk in iter_line_chunks(trace.lines, self.chunk_lines):
            with translate:
                handed = [mapping.global_rows(chunk, validate=False)]
            with analyze:
                # The ids are handed over, as in the static path.
                chunk_stats = analyzer.feed(handed.pop())
            # Attribute the chunk's activations to v-groups in proportion
            # to each group's access share (the probabilistic remap
            # trigger has no better information either).
            shares = mapping.vgroup_accesses(chunk).astype(np.float64)
            total = shares.sum()
            if total > 0 and chunk_stats.n_activations > 0:
                shares *= chunk_stats.n_activations / total
            swaps += mapping.record_activations(shares)
        return analyzer.result(), swaps

    # ------------------------------------------------------------------
    def run(
        self,
        trace: Trace,
        mapping: AddressMapping,
        *,
        scheme: str = "none",
        t_rh: int = 128,
        baseline_mapping: Optional[AddressMapping] = None,
    ) -> RunResult:
        """Run one configuration; normalize against ``baseline_mapping``.

        The baseline (an unprotected Coffee Lake system unless overridden)
        defines both the core-time split of the window and the execution
        time that ``normalized_performance`` is relative to.
        """
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme '{scheme}'; expected one of {SCHEMES}")
        baseline = baseline_mapping or CoffeeLakeMapping(self.config)
        base_stats, _ = self.window_stats(trace, baseline)
        core_time = self.model.core_time_s(base_stats, trace.window_s)
        base_time = core_time + self.model.memory_time_s(base_stats)

        stats, swaps = self.window_stats(trace, mapping)
        gang_size = getattr(mapping, "gang_size", 1)
        with TRACER.span("sim.mitigation", scheme=scheme):
            load = self.model.mitigation_load(scheme, stats, t_rh)
        t_memory = self.model.memory_time_s(stats)
        t_remap = self.model.remap_time_s(swaps, gang_size)
        exec_time = core_time + t_memory + load.serial_time_s + t_remap
        return RunResult(
            trace_name=trace.name,
            mapping_name=mapping.name,
            scheme=scheme,
            t_rh=t_rh,
            accesses=stats.n_accesses,
            activations=stats.n_activations,
            hit_rate=stats.hit_rate,
            unique_rows=stats.unique_rows_touched,
            hot_rows_64=stats.hot_rows(64),
            hot_rows_512=stats.hot_rows(512),
            max_row_activations=stats.max_row_activations(),
            mitigations=load.invocations,
            remap_swaps=swaps,
            exec_time_s=exec_time,
            window_s=trace.window_s,
            normalized_performance=base_time / exec_time,
            t_core_s=core_time,
            t_memory_s=t_memory,
            t_mitigation_s=load.serial_time_s,
            t_remap_s=t_remap,
        )

    # ------------------------------------------------------------------
    def power(
        self,
        trace: Trace,
        mapping: AddressMapping,
        *,
        write_fraction: float = 0.3,
        extra_activations: int = 0,
    ) -> PowerBreakdown:
        """DRAM power for a window under the given mapping.

        Rubix-D remap swaps contribute their ACT/CAS traffic via
        ``extra_activations`` plus the swap read/write bursts.
        """
        stats, swaps = self.window_stats(trace, mapping)
        gang_size = getattr(mapping, "gang_size", 1)
        act_total = stats.n_activations + extra_activations + 3 * swaps
        # Writes are the remainder, not a second truncation: two int()
        # floors could drop an access so reads + writes != n_accesses.
        base_reads = int(stats.n_accesses * (1.0 - write_fraction))
        base_writes = stats.n_accesses - base_reads
        reads = base_reads + 2 * gang_size * swaps
        writes = base_writes + 2 * gang_size * swaps
        return self.power_model.compute(
            activations=act_total,
            reads=reads,
            writes=writes,
            window_s=trace.window_s,
            ranks=self.config.ranks * self.config.channels,
        )


__all__ = ["SCHEMES", "RunResult", "Simulator"]
