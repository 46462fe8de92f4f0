"""Adversarial access-pattern analysis (Section 6.1's caveat).

The large-stride mapping reduces hot rows for *typical* workloads by
placing a row's gangs 512 MB apart -- but the placement is fixed and
public, so a pattern that strides by exactly that distance re-creates
hot rows at will.  Cipher-based Rubix-S has no such public structure:
the same pattern scatters like any other.

``mapping_robustness`` quantifies this: it feeds a mapping both a benign
pattern and the worst-case stride pattern for a given row-gang distance
and reports hot rows under each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dram.config import DRAMConfig
from repro.dram.fast_model import analyze_trace
from repro.mapping.base import AddressMapping
from repro.workloads.trace import Trace


def gang_stride_attack_trace(
    stride_lines: int,
    *,
    gangs: int = 32,
    accesses: int = 500_000,
    gang_size: int = 4,
    base_line: int = 0,
    background_ratio: int = 7,
    total_lines: int = 1 << 28,
    seed: int = 0x57D1,
) -> Trace:
    """A large-stride pattern interleaved with ordinary traffic.

    Models a benign-looking application (e.g. a column-major traversal)
    whose touches are spaced ``stride_lines`` apart, running alongside
    background traffic that keeps closing the row buffer.  Against a
    mapping that co-locates gangs at exactly that stride, the pattern's
    activations concentrate into a handful of rows; against a randomized
    mapping they spread out.
    """
    if stride_lines < 1 or gangs < 1:
        raise ValueError("stride_lines and gangs must be positive")
    if background_ratio < 0:
        raise ValueError("background_ratio must be non-negative")
    pattern_accesses = accesses // (1 + background_ratio)
    i = np.arange(pattern_accesses, dtype=np.uint64)
    gang_index = i % np.uint64(gangs)
    line_in_gang = (i // np.uint64(gangs)) % np.uint64(gang_size)
    pattern = np.uint64(base_line) + gang_index * np.uint64(stride_lines) + line_in_gang

    rng = np.random.default_rng(seed)
    background = rng.integers(
        0, total_lines, accesses - pattern_accesses, dtype=np.uint64
    )
    # Interleave: one pattern access per background_ratio random ones.
    lines = np.empty(accesses, dtype=np.uint64)
    step = 1 + background_ratio
    lines[0::step] = pattern[: len(lines[0::step])]
    mask = np.ones(accesses, dtype=bool)
    mask[0::step] = False
    lines[mask] = background[: int(mask.sum())]
    return Trace(name=f"stride-attack-{stride_lines}", lines=lines, instructions=accesses * 2)


@dataclass(frozen=True)
class RobustnessReport:
    """Concentration exposure of a mapping to a worst-case stride.

    Attributes:
        mapping_name: Mapping under test.
        benign_hot_rows: Hot rows from an ordinary stride-64 sweep.
        adversarial_hot_rows: Hot rows from the gang-stride pattern.
        adversarial_max_row_acts: Peak per-row activations under it.
        fair_share_acts: What the peak would be if the pattern's
            activations spread evenly over its gang positions.
    """

    mapping_name: str
    benign_hot_rows: int
    adversarial_hot_rows: int
    adversarial_max_row_acts: int
    fair_share_acts: int

    @property
    def concentration(self) -> float:
        """Peak-to-fair-share ratio (1.0 = perfectly spread)."""
        return self.adversarial_max_row_acts / max(1, self.fair_share_acts)

    @property
    def exposed(self) -> bool:
        """Does the stride concentrate far beyond an even spread?"""
        return self.concentration > 8.0


def mapping_robustness(
    config: DRAMConfig,
    mapping: AddressMapping,
    *,
    adversarial_stride_lines: int,
    accesses: int = 500_000,
    hot_threshold: int = 64,
    gangs: int = 32,
) -> RobustnessReport:
    """Compare hot-row pressure under a benign stride-64 sweep vs the
    worst-case gang stride for this mapping."""
    from repro.workloads.kernels import stride_kernel

    benign = stride_kernel(
        footprint_lines=min(config.total_lines, 1 << 16), accesses=accesses
    )
    adversarial = gang_stride_attack_trace(
        adversarial_stride_lines,
        gangs=gangs,
        accesses=accesses,
        total_lines=config.total_lines,
    )
    pattern_accesses = accesses // 8  # 1-in-8 interleave in the trace

    def hot(trace: Trace) -> "tuple[int, int]":
        stats = analyze_trace(
            mapping.global_rows(trace.lines),
            rows_per_bank=config.rows_per_bank,
            max_hits=16,
        )
        return stats.hot_rows(hot_threshold), stats.max_row_activations()

    benign_hot, _ = hot(benign)
    adversarial_hot, max_acts = hot(adversarial)
    return RobustnessReport(
        mapping_name=mapping.name,
        benign_hot_rows=benign_hot,
        adversarial_hot_rows=adversarial_hot,
        adversarial_max_row_acts=max_acts,
        fair_share_acts=pattern_accesses // gangs,
    )


__all__ = ["gang_stride_attack_trace", "RobustnessReport", "mapping_robustness"]
