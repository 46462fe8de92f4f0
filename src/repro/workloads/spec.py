"""Synthetic SPEC CPU2017-like workload generators.

SPEC traces are proprietary and the paper's gem5 checkpoints are not
redistributable, so each of the 18 rate workloads is modeled as a
composition of three components whose parameters are calibrated to the
paper's published per-workload statistics (Tables 2 and 3):

* **hot blobs** -- contiguous 128 KB regions (32 pages / 16 baseline
  rows) receiving concentrated accesses.  These are what make rows hot:
  under the Intel mappings each blob row collects ~90 activations from
  ~56 distinct lines (Table 3); two tiers reproduce the ACT-64+ and
  ACT-512+ populations.  The 128 KB blob granularity is what makes the
  Coffee Lake, Skylake, and MOP mappings see equivalent hot-row counts,
  as the paper observes.
* **sequential scans** -- streaming sweeps in 32-line bursts, supplying
  the row-buffer hits (~55% baseline hit rate) and touching many rows
  thinly.
* **cold random** -- sparse uniform accesses filling out the unique-rows
  footprint at a per-row rate far below the hot threshold.

Every generator is deterministic in (name, seed, scale, cores); scale
shrinks the footprint/row populations while *preserving per-row
activation intensities*, so hot-row ratios between mappings are stable
at reduced cost.

Note on Table 2: the published table's "unique rows" column contains
OCR-inconsistent entries (values smaller than the same row's hot-row
count); this module uses the self-consistent hot-row columns verbatim
(their averages match the quoted 9528 / 206) and unique-rows targets
chosen to respect feasibility and the paper's "<5% of rows touched"
observation.  EXPERIMENTS.md records measured-vs-paper for all columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.utils.bitops import fitting_uint
from repro.utils.prng import SplitMix64, derive_key
from repro.workloads.trace import Trace, draw_lines

#: Lines per baseline (Coffee Lake) row: the blob/row granularity.
LINES_PER_ROW = 128

#: Pages per hot blob (32 pages = 16 baseline rows = 128 KB).
BLOB_ROWS = 16

#: Instructions per core per 64 ms window at 3 GHz and IPC ~1.
INSTRUCTIONS_PER_CORE_WINDOW = 192_000_000

#: Per-row cold-access rate cap, kept well under the hot threshold so
#: the cold component cannot mint accidental hot rows.
MAX_COLD_RATE = 32.0

#: Nominal cold rate: enough Poisson mass to touch ~99.8% of the region.
NOMINAL_COLD_RATE = 6.0

#: Scan burst length in lines (one block = one row-buffer episode).
SCAN_BLOCK = 32

#: Accesses (or weave slots) per block while a window is assembled:
#: bounds every index temporary to a fixed size, whatever the trace.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class SpecProfile:
    """Calibration targets for one SPEC-rate workload (4-core system).

    Attributes:
        name: SPEC benchmark name.
        mpki: LLC misses per kilo-instruction (Table 2).
        unique_rows: Distinct baseline rows touched per 64 ms window.
        hot64_rows: Rows with >= 64 activations (ACT-64+, includes the
            512+ population).
        hot512_rows: Rows with >= 512 activations (ACT-512+).
        seq_fraction: Share of the non-hot footprint devoted to
            sequential scanning (controls the row-buffer hit rate).
        hot64_acts: Mean activations per ACT-64+ row.
        hot512_acts: Mean activations per ACT-512+ row.
        active_lines: Distinct lines per hot row carrying the accesses
            (Table 3 reports ~56 of 128).
    """

    name: str
    mpki: float
    unique_rows: int
    hot64_rows: int
    hot512_rows: int
    seq_fraction: float
    hot64_acts: int = 90
    hot512_acts: int = 700
    active_lines: int = 56

    def __post_init__(self) -> None:
        if self.hot512_rows > self.hot64_rows:
            raise ValueError(f"{self.name}: ACT-512+ rows exceed ACT-64+ rows")
        if self.unique_rows < self.hot64_rows:
            raise ValueError(f"{self.name}: unique rows below hot-row count")
        if not 0.0 <= self.seq_fraction <= 1.0:
            raise ValueError(f"{self.name}: seq_fraction must be in [0, 1]")
        if not 1 <= self.active_lines <= LINES_PER_ROW:
            raise ValueError(f"{self.name}: active_lines out of range")


#: Calibration table for the 18 SPEC2017 rate workloads (Table 2).
SPEC_PROFILES: Dict[str, SpecProfile] = {
    p.name: p
    for p in [
        SpecProfile("blender", 12.78, 88_800, 34_700, 2_900, 0.55),
        SpecProfile("lbm", 20.87, 294_000, 70_300, 0, 0.75),
        SpecProfile("gcc", 6.12, 104_000, 21_800, 384, 0.50),
        SpecProfile("cactuBSSN", 2.57, 52_000, 12_200, 0, 0.60),
        SpecProfile("mcf", 5.81, 49_000, 10_500, 425, 0.35),
        SpecProfile("roms", 3.33, 279_000, 6_600, 9, 0.35),
        SpecProfile("perlbench", 0.71, 114_000, 1_700, 0, 0.45),
        SpecProfile("xz", 0.40, 108_000, 496, 0, 0.30),
        SpecProfile("nab", 0.53, 44_000, 189, 0, 0.50),
        SpecProfile("namd", 0.37, 34_000, 105, 0, 0.50),
        SpecProfile("imagick", 0.13, 11_000, 89, 0, 0.50),
        SpecProfile("bwaves", 0.21, 17_000, 20, 0, 0.70),
        SpecProfile("wrf", 0.02, 702, 20, 0, 0.50),
        SpecProfile("exchange2", 0.01, 1_220, 14, 0, 0.40),
        SpecProfile("deepsjeng", 0.25, 68_100, 12, 0, 0.20),
        SpecProfile("povray", 0.01, 390, 8, 0, 0.40),
        SpecProfile("parest", 0.10, 24_000, 3, 0, 0.40),
        SpecProfile("leela", 0.02, 879, 0, 0, 0.40),
    ]
}


def spec_names() -> List[str]:
    """The 18 workload names in the paper's (hot-rows-descending) order."""
    return list(SPEC_PROFILES.keys())


def spec_profile(name: str) -> SpecProfile:
    """Look up a workload's calibration profile."""
    try:
        return SPEC_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown SPEC workload '{name}'; known: {', '.join(SPEC_PROFILES)}"
        ) from None


# ---------------------------------------------------------------------------
def _solve_cold_region(target_rows: int, accesses: int) -> int:
    """Region size whose Poisson coverage touches ~target_rows rows."""
    if target_rows <= 0 or accesses <= 0:
        return 0
    region = float(target_rows)
    for _ in range(8):
        lam = accesses / region
        coverage = 1.0 - np.exp(-lam)
        if coverage <= 1e-9:
            break
        region = target_rows / coverage
    return max(1, int(round(region)))


def _place_regions(
    rng: np.random.Generator,
    total_lines: int,
    blob_count: int,
    scan_lines: int,
    cold_lines: int,
) -> Tuple[np.ndarray, int, int]:
    """Assign disjoint address ranges: blob bases, scan base, cold base.

    Blobs are scattered over the lower half of the address space on a
    blob-aligned grid; the scan and cold regions occupy the upper half.
    Blob bases come in the address space's line dtype.
    """
    dt = fitting_uint(total_lines - 1)
    blob_lines = BLOB_ROWS * LINES_PER_ROW
    half = total_lines // 2
    slots = max(1, half // blob_lines)
    if blob_count > slots:
        raise ValueError(
            f"footprint needs {blob_count} hot blobs but only {slots} slots fit"
        )
    chosen = rng.choice(slots, size=blob_count, replace=False) if blob_count else np.empty(
        0, dtype=np.int64
    )
    blob_bases = chosen.astype(dt) * dt(blob_lines)
    scan_base = half
    cold_base = scan_base + scan_lines
    if cold_base + cold_lines > total_lines:
        raise ValueError(
            f"scan+cold footprint ({scan_lines + cold_lines} lines) exceeds the "
            f"upper half of the {total_lines}-line address space"
        )
    return blob_bases, scan_base, cold_base


def _pareto_acts(
    rng: np.random.Generator, rows: int, floor_acts: int, mean_acts: int
) -> np.ndarray:
    """Per-row activation counts: Pareto with the given floor and mean.

    Real per-row activation histograms are heavy-tailed; a Pareto tier
    anchored at the hot threshold reproduces both the row count at the
    threshold and the mid-range population between thresholds that
    intermediate-T_RH mitigation counts depend on.
    """
    if rows == 0:
        return np.empty(0, dtype=np.int64)
    if mean_acts <= floor_acts:
        return np.full(rows, floor_acts, dtype=np.int64)
    alpha = mean_acts / (mean_acts - floor_acts)
    u = rng.random(rows)
    acts = floor_acts * np.power(1.0 - u, -1.0 / alpha)
    # Clip the extreme tail so a single synthetic row cannot dominate a
    # whole window (real rows are bounded by the row-cycle time anyway).
    return np.minimum(acts, 50.0 * mean_acts).astype(np.int64)


def _hot_component(
    rng: np.random.Generator,
    row_bases: np.ndarray,
    acts_per_row: np.ndarray,
    active_lines: int,
    perm: np.ndarray,
    out: np.ndarray,
) -> None:
    """Write a tier's accesses over its hot rows into ``out``.

    Row ``r`` receives exactly ``acts_per_row[r]`` consecutive accesses
    (``out.size`` is their sum), confined to a fixed window of
    ``active_lines`` positions in the global column permutation ``perm``
    (so each hot row shows ~active_lines distinct activating lines, per
    Table 3).  Columns and row bases are built in blocks of
    ``_BLOCK`` accesses, so no temporary grows with the tier.  A block
    spans rows ``r0..r1`` (two scalar searches of the running ends);
    each of those rows is repeated for as many of its accesses as fall
    inside the block.
    """
    if out.size == 0:
        return
    salts = rng.integers(0, LINES_PER_ROW, size=row_bases.size, dtype=np.int64)
    j = rng.integers(0, active_lines, size=out.size, dtype=np.int64)
    ends = np.cumsum(acts_per_row)
    for start in range(0, out.size, _BLOCK):
        stop = min(start + _BLOCK, out.size)
        r0 = int(np.searchsorted(ends, start, side="right"))
        r1 = int(np.searchsorted(ends, stop - 1, side="right"))
        counts = np.diff(np.minimum(ends[r0 : r1 + 1], stop), prepend=start)
        pick = np.repeat(np.arange(r0, r1 + 1), counts)
        cols = j[start:stop]
        cols += salts[pick]
        cols &= LINES_PER_ROW - 1
        block = out[start:stop]
        np.take(perm, cols, out=block)
        block += row_bases[pick]


def _tier_row_bases(blob_bases: np.ndarray, rows_needed: int) -> np.ndarray:
    """First ``rows_needed`` row base addresses across the given blobs."""
    if rows_needed <= 0:
        return np.empty(0, dtype=blob_bases.dtype)
    offsets = np.arange(BLOB_ROWS, dtype=blob_bases.dtype) * LINES_PER_ROW
    all_rows = (blob_bases[:, None] + offsets[None, :]).reshape(-1)
    return all_rows[:rows_needed]


def spec_trace(
    name: str,
    *,
    line_addr_bits: int = 28,
    scale: float = 1.0,
    cores: int = 4,
    seed: int = 2024,
) -> Trace:
    """Generate one 64 ms window of a calibrated SPEC-like workload.

    Args:
        name: SPEC workload name (see :data:`SPEC_PROFILES`).
        line_addr_bits: Width of the target line-address space (28 for
            the 16 GB baseline, 29 for the 32 GB systems of Fig. 15).
        scale: Footprint/duration scaling in (0, 1]; per-row activation
            intensities are preserved so hot-row counts scale linearly.
        cores: Cores running rate copies (4 in the baseline, 8 in
            Fig. 15); scales accesses and footprint together.
        seed: Determinism seed.
    """
    if not 0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    profile = spec_profile(name)
    if cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores}")
    factor = scale * (cores / 4.0)
    total_lines = 1 << line_addr_bits
    dt = fitting_uint(total_lines - 1)
    rng = SplitMix64(derive_key(seed, f"spec/{name}", 64)).numpy_rng()
    perm = rng.permutation(LINES_PER_ROW).astype(dt)

    # --- population sizing -------------------------------------------------
    tier512_rows = int(round(profile.hot512_rows * factor))
    tier64_rows = int(round((profile.hot64_rows - profile.hot512_rows) * factor))
    unique_target = max(1, int(round(profile.unique_rows * factor)))

    # Per-row activation counts: heavy-tailed above each threshold, with
    # the 64+ tier clipped below 512 so the ACT-512+ population stays at
    # its calibrated size, and the 512+ tier clipped at 1.6x its mean
    # (beyond that the per-line rate would exceed what any single line
    # of a benign row sustains; the clip level also sets the small
    # population of individually-hot gangs that survives Rubix at GS4,
    # calibrated to Figure 7's residual).
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

    # Cold accesses: just enough to touch the cold footprint (a nominal
    # per-row rate far below the hot threshold); the rest streams, which
    # is what sustains the baseline row-buffer hit rate.
    cold_acc = int(min(rest, NOMINAL_COLD_RATE * cold_rows))
    seq_acc = rest - cold_acc
    if scan_rows == 0 and seq_acc > 0:
        # No scan footprint: the remainder lands in the cold region too.
        cold_acc += seq_acc
        seq_acc = 0
    cold_region = _solve_cold_region(cold_rows, cold_acc)
    if cold_region:
        # Never let the cold component mint accidental hot rows: dilute
        # the region if the per-row rate would approach the threshold.
        cold_region = max(cold_region, int(np.ceil(cold_acc / MAX_COLD_RATE)))

    # --- address layout -----------------------------------------------------
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

    # --- component streams ---------------------------------------------------
    # All single accesses share one buffer, in stream order: the 512+
    # tier, the 64+ tier, then the cold draw.
    cold_count = cold_acc if cold_region else 0
    singles = np.empty(hot_acc + cold_count, dtype=dt)
    # Ultra-hot rows engage a denser line set than ordinary hot rows
    # (their activation volume comes from broader structures), but stay
    # inside Table 3's dominant 32-64 distinct-line bucket.
    active512 = max(profile.active_lines, 63)
    _hot_component(rng, rows512, acts512, active512, perm, singles[:acc512])
    _hot_component(
        rng, rows64, acts64, profile.active_lines, perm, singles[acc512:hot_acc]
    )

    block = SCAN_BLOCK
    visits = seq_acc // block if scan_rows else 0
    if scan_rows and visits < scan_rows:
        # Not enough streaming volume for 32-line bursts; shrink bursts
        # so every scan row is still touched.
        block = max(1, seq_acc // scan_rows)
        visits = seq_acc // block if block else 0
    if visits:
        v = np.arange(visits, dtype=dt)
        row = v % dt(scan_rows)
        bursts_per_row = max(1, LINES_PER_ROW // block)
        sweep = ((v // dt(scan_rows)) % dt(bursts_per_row)) * dt(block)
        scan_starts = dt(scan_base) + row * dt(LINES_PER_ROW) + sweep
    else:
        scan_starts = np.empty(0, dtype=dt)

    draw_lines(rng, cold_region * LINES_PER_ROW, cold_base, out=singles[hot_acc:])

    lines = _weave(rng, singles, block_starts=scan_starts, block_len=block)
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
    singles: np.ndarray,
    block_starts: np.ndarray,
    block_len: int,
) -> np.ndarray:
    """Interleave single accesses with burst blocks.

    Singles are already i.i.d., so a uniform shuffle of *block slots*
    (each single is a length-1 block, each scan visit a length-
    ``block_len`` burst that stays contiguous, as a memory controller
    would see it) produces the merged stream.  The slot labels are
    walked in blocks of ``_BLOCK``: a slot ``s`` with ``b`` bursts
    before it starts at ``s + (block_len - 1) * b``, and the singles,
    shuffled in place (consumed: with no bursts they are the result),
    fill their slots in order.  The output has the singles' dtype.
    """
    n_single = singles.size
    n_blocks = block_starts.size
    n_slots = n_single + n_blocks
    if n_slots == 0:
        raise ValueError("empty trace: no accesses generated")
    labels = np.zeros(n_slots, dtype=np.int8)
    if n_blocks:
        labels[n_single:] = 1
        rng.shuffle(labels)
    # The swaps of rng.permutation(n_single), and its RNG state: a
    # shuffle draws the same swaps for any dtype.
    rng.shuffle(singles)
    if not n_blocks:
        return singles
    out = np.empty(n_single + n_blocks * block_len, dtype=singles.dtype)

    singles_done = bursts_done = 0
    for start in range(0, n_slots, _BLOCK):
        is_burst = labels[start : start + _BLOCK].view(np.bool_)
        bursts_before = bursts_done + np.cumsum(is_burst) - is_burst
        pos = np.arange(start, start + is_burst.size) + (block_len - 1) * bursts_before

        single_pos = pos[~is_burst]
        stop = singles_done + single_pos.size
        out[single_pos] = singles[singles_done:stop]
        singles_done = stop

        burst_pos = pos[is_burst]
        stop = bursts_done + burst_pos.size
        starts = block_starts[bursts_done:stop]
        for j in range(block_len):
            out[burst_pos + j] = starts + j
        bursts_done = stop
    return out


__all__ = [
    "SpecProfile",
    "SPEC_PROFILES",
    "spec_names",
    "spec_profile",
    "spec_trace",
    "LINES_PER_ROW",
    "BLOB_ROWS",
    "INSTRUCTIONS_PER_CORE_WINDOW",
]
