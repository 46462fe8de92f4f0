"""Frozen reference SPEC generator: the test oracle for ``spec_trace``.

This is the original, trace-sized implementation of the calibrated SPEC
window generator (``pick``/``salts[pick]`` gathers per hot tier, one
``np.concatenate`` of the single-access components, and a weave through
``int64`` ``lengths``/``offsets`` arrays).  ``repro.workloads.spec``
builds the same windows in one buffer and weaves them in bounded
blocks; ``test_spec_reference.py`` asserts the two agree byte for byte.
Only the helpers the rewrite did not touch are imported.

Do not edit this module to follow generator changes: an intended change
of the generated stream must change the tests, not the oracle.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.utils.prng import SplitMix64, derive_key
from repro.workloads.spec import (
    BLOB_ROWS,
    INSTRUCTIONS_PER_CORE_WINDOW,
    LINES_PER_ROW,
    MAX_COLD_RATE,
    NOMINAL_COLD_RATE,
    SCAN_BLOCK,
    _pareto_acts,
    _place_regions,
    _solve_cold_region,
    _tier_row_bases,
    spec_profile,
)
from repro.workloads.trace import Trace


def _hot_component(
    rng: np.random.Generator,
    row_bases: np.ndarray,
    acts_per_row: np.ndarray,
    active_lines: int,
    perm: np.ndarray,
) -> np.ndarray:
    if row_bases.size == 0 or acts_per_row.sum() == 0:
        return np.empty(0, dtype=np.uint64)
    rows = row_bases.size
    salts = rng.integers(0, LINES_PER_ROW, size=rows, dtype=np.int64)
    pick = np.repeat(np.arange(rows, dtype=np.int64), acts_per_row)
    accesses = pick.size
    j = rng.integers(0, active_lines, size=accesses, dtype=np.int64)
    col = perm[(salts[pick] + j) % LINES_PER_ROW].astype(np.uint64)
    return row_bases[pick] + col


def reference_spec_trace(
    name: str,
    *,
    line_addr_bits: int = 28,
    scale: float = 1.0,
    cores: int = 4,
    seed: int = 2024,
) -> Trace:
    """The original ``spec_trace``, with the same arguments and output."""
    profile = spec_profile(name)
    if cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores}")
    factor = scale * (cores / 4.0)
    total_lines = 1 << line_addr_bits
    rng = SplitMix64(derive_key(seed, f"spec/{name}", 64)).numpy_rng()
    perm = rng.permutation(LINES_PER_ROW).astype(np.int64)

    tier512_rows = int(round(profile.hot512_rows * factor))
    tier64_rows = int(round((profile.hot64_rows - profile.hot512_rows) * factor))
    unique_target = max(1, int(round(profile.unique_rows * factor)))

    acts64 = np.minimum(_pareto_acts(rng, tier64_rows, 64, profile.hot64_acts), 500)
    acts512 = np.minimum(
        _pareto_acts(rng, tier512_rows, 512, profile.hot512_acts),
        int(1.6 * profile.hot512_acts),
    )
    acc64 = int(acts64.sum())
    acc512 = int(acts512.sum())
    hot_acc = acc512 + acc64

    accesses = int(profile.mpki / 1000.0 * INSTRUCTIONS_PER_CORE_WINDOW * cores * scale)
    accesses = max(accesses, int(np.ceil(hot_acc / 0.85)), 1000)
    rest = accesses - hot_acc

    u_rem = max(0, unique_target - tier512_rows - tier64_rows)
    scan_rows = int(round(u_rem * profile.seq_fraction))
    cold_rows = u_rem - scan_rows

    cold_acc = int(min(rest, NOMINAL_COLD_RATE * cold_rows))
    seq_acc = rest - cold_acc
    if scan_rows == 0 and seq_acc > 0:
        cold_acc += seq_acc
        seq_acc = 0
    cold_region = _solve_cold_region(cold_rows, cold_acc)
    if cold_region:
        cold_region = max(cold_region, int(np.ceil(cold_acc / MAX_COLD_RATE)))

    hot_rows_total = tier512_rows + tier64_rows
    blob_count = int(np.ceil(hot_rows_total / BLOB_ROWS)) if hot_rows_total else 0
    scan_lines = scan_rows * LINES_PER_ROW
    cold_lines = cold_region * LINES_PER_ROW
    blob_bases, scan_base, cold_base = _place_regions(
        rng, total_lines, blob_count, scan_lines, cold_lines
    )
    all_hot_rows = _tier_row_bases(blob_bases, hot_rows_total)
    rng.shuffle(all_hot_rows)
    rows512 = all_hot_rows[:tier512_rows]
    rows64 = all_hot_rows[tier512_rows:]

    active512 = max(profile.active_lines, 63)
    hot512_lines = _hot_component(rng, rows512, acts512, active512, perm)
    hot64_lines = _hot_component(rng, rows64, acts64, profile.active_lines, perm)

    block = SCAN_BLOCK
    visits = seq_acc // block if scan_rows else 0
    if scan_rows and visits < scan_rows:
        block = max(1, seq_acc // scan_rows)
        visits = seq_acc // block if block else 0
    if visits:
        v = np.arange(visits, dtype=np.uint64)
        row = v % np.uint64(scan_rows)
        bursts_per_row = max(1, LINES_PER_ROW // block)
        sweep = ((v // np.uint64(scan_rows)) % np.uint64(bursts_per_row)) * np.uint64(block)
        scan_starts = np.uint64(scan_base) + row * np.uint64(LINES_PER_ROW) + sweep
    else:
        scan_starts = np.empty(0, dtype=np.uint64)

    if cold_acc and cold_region:
        cold_lines_arr = np.uint64(cold_base) + rng.integers(
            0, cold_region * LINES_PER_ROW, size=cold_acc, dtype=np.uint64
        )
    else:
        cold_lines_arr = np.empty(0, dtype=np.uint64)

    lines = _weave(
        rng,
        singles=[hot512_lines, hot64_lines, cold_lines_arr],
        block_starts=scan_starts,
        block_len=block,
    )
    instructions = max(1, int(round(lines.size * 1000.0 / profile.mpki)))
    return Trace(
        name=name,
        lines=lines,
        instructions=instructions,
        window_s=64e-3 * scale,
        scale=scale,
        seed=seed,
    )


def _weave(
    rng: np.random.Generator,
    singles: List[np.ndarray],
    block_starts: np.ndarray,
    block_len: int,
) -> np.ndarray:
    single_lines = (
        np.concatenate([s for s in singles if s.size])
        if any(s.size for s in singles)
        else np.empty(0, dtype=np.uint64)
    )
    n_single = single_lines.size
    n_blocks = block_starts.size
    if n_blocks == 0:
        if n_single == 0:
            raise ValueError("empty trace: no accesses generated")
        return single_lines[rng.permutation(n_single)]

    labels = np.zeros(n_single + n_blocks, dtype=np.int8)
    labels[n_single:] = 1
    rng.shuffle(labels)
    lengths = np.where(labels == 1, block_len, 1).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    out = np.empty(offsets[-1], dtype=np.uint64)

    single_order = rng.permutation(n_single) if n_single else np.empty(0, dtype=np.int64)
    single_slots = offsets[:-1][labels == 0]
    out[single_slots] = single_lines[single_order]

    block_slots = offsets[:-1][labels == 1]
    for j in range(block_len):
        out[block_slots + j] = block_starts + np.uint64(j)
    return out
