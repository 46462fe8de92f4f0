"""Rowhammer attack access patterns (for the security analysis).

Attack traces are built *mapping-aware*: the attacker is assumed to know
(or to have reverse-engineered) the line-to-row mapping, so aggressor
line addresses are derived with ``mapping.inverse``.  Against Rubix-D
the mapping changes under the attacker's feet, which is exactly the
hardening Section 5.6 claims; the ``blind`` helper models an attacker
stuck with baseline-adjacency assumptions.

Every aggressor row becomes a line address through :func:`line_of`, one
geometry-checked path, so an out-of-geometry row (``victim_row - 2``
below row 0, a row past the bank) is a clear error instead of an
address for the wrong row.  Each pattern is then a ``np.tile`` of the
aggressor lines, that tile with Half-Double's near rows written over
two slices, or Blacksmith's one seeded ``rng.permuted`` schedule.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.dram.config import Coordinate
from repro.mapping.base import AddressMapping
from repro.workloads.trace import Trace


def line_of(mapping: AddressMapping, bank: int, row: int, col: int = 0) -> int:
    """Line address of ``(bank, row, col)``, geometry-checked.

    Every attack derives its aggressor lines through this one path.
    Out-of-geometry coordinates -- e.g. ``victim_row - 2`` underflowing
    row 0, or a row beyond the bank -- raise a clear :class:`ValueError`
    here instead of flowing into ``mapping.inverse`` and producing an
    address for the wrong row.
    """
    config = mapping.config
    if not 0 <= bank < config.banks:
        raise ValueError(
            f"bank {bank} out of range [0, {config.banks}) for {mapping.name}"
        )
    if not 0 <= row < config.rows_per_bank:
        raise ValueError(
            f"row {row} out of range [0, {config.rows_per_bank}) for {mapping.name}"
            " (attack rows, including victim_row +/- 1/2 neighbours, must stay"
            " inside the bank)"
        )
    if not 0 <= col < config.lines_per_row:
        raise ValueError(
            f"col {col} out of range [0, {config.lines_per_row}) for {mapping.name}"
        )
    return mapping.inverse(Coordinate(channel=0, rank=0, bank=bank, row=row, col=col))


def _row_lines(mapping: AddressMapping, bank: int, rows: Sequence[int]) -> np.ndarray:
    return np.asarray([line_of(mapping, bank, row) for row in rows], dtype=np.uint64)


def _attack_trace(name: str, lines: np.ndarray, seed: Optional[int] = None) -> Trace:
    return Trace(name=name, lines=lines, instructions=int(lines.size) * 2, seed=seed)


def single_sided_attack(
    mapping: AddressMapping,
    *,
    bank: int = 0,
    aggressor_row: int = 1000,
    dummy_row: int = 5000,
    activations: int = 2000,
) -> Trace:
    """Classic single-sided hammer: alternate the aggressor with a dummy
    row in the same bank so every aggressor access causes an ACT."""
    _check_count(activations)
    pair = _row_lines(mapping, bank, [aggressor_row, dummy_row])
    return _attack_trace("attack-single-sided", np.tile(pair, activations))


def double_sided_attack(
    mapping: AddressMapping,
    *,
    bank: int = 0,
    victim_row: int = 1000,
    activations_per_side: int = 2000,
) -> Trace:
    """Double-sided hammer: alternate the two rows sandwiching the victim."""
    _check_count(activations_per_side)
    pair = _row_lines(mapping, bank, [victim_row - 1, victim_row + 1])
    return _attack_trace("attack-double-sided", np.tile(pair, activations_per_side))


def half_double_attack(
    mapping: AddressMapping,
    *,
    bank: int = 0,
    victim_row: int = 1000,
    far_activations: int = 20000,
    near_every: int = 400,
) -> Trace:
    """Half-Double: hammer *distance-2* rows heavily plus occasional
    distance-1 accesses.

    Victim-refresh defenses see the far aggressors and repeatedly refresh
    the distance-1 rows -- and those refreshes hammer the victim at
    distance 2 from the far aggressors.  The direct accesses to the
    distance-1 rows are deliberately *infrequent* (below any tracker
    threshold) so the defense never refreshes the victim itself.  Secure
    (aggressor-focused) mitigations cap the far rows' activations
    instead, so the pattern never accumulates.

    The far (distance-2) pair alternates on even/odd slots; the near
    (distance-1) accesses replace one far_a slot *and one far_b slot*
    per period.  ``near_b``'s phase is forced odd so it lands on far_b
    slots -- the legacy constructor planted it on even (far_a) slots,
    which drained far_a twice per period, left far_b untouched, and made
    the distance-2 pressure asymmetric.
    """
    _check_count(far_activations)
    if near_every < 2:
        raise ValueError(f"near_every must be >= 2, got {near_every}")
    far = _row_lines(mapping, bank, [victim_row - 2, victim_row + 2])
    near_a, near_b = _row_lines(mapping, bank, [victim_row - 1, victim_row + 1])
    lines = np.tile(far, far_activations)
    period = near_every * 2
    lines[0::period] = near_a
    # Odd phase == an odd pattern slot == a far_b slot.
    lines[near_every | 1 :: period] = near_b
    return _attack_trace("attack-half-double", lines)


def many_sided_attack(
    mapping: AddressMapping,
    *,
    bank: int = 0,
    base_row: int = 1000,
    sides: int = 10,
    row_gap: int = 2,
    rounds: int = 500,
) -> Trace:
    """TRRespass-style many-sided hammer.

    Hammers ``sides`` aggressor rows spaced ``row_gap`` apart in one
    bank, round-robin.  Deployed TRR trackers with few counters cannot
    follow that many simultaneous aggressors; ideal trackers and the
    aggressor-focused schemes handle it (each row still accumulates
    ``rounds`` activations and gets mitigated on threshold).
    """
    _check_sides(sides, row_gap)
    _check_count(rounds)
    rows = _row_lines(
        mapping, bank, range(base_row, base_row + sides * row_gap, row_gap)
    )
    return _attack_trace(f"attack-{sides}-sided", np.tile(rows, rounds))


def blacksmith_attack(
    mapping: AddressMapping,
    *,
    bank: int = 0,
    base_row: int = 1000,
    sides: int = 6,
    row_gap: int = 2,
    rounds: int = 500,
    intensity_ratio: int = 4,
    seed: int = 0xB5,
) -> Trace:
    """Blacksmith-style non-uniform frequency pattern.

    Like a many-sided hammer but with *non-uniform* per-row intensities
    and jittered phases -- the structure Blacksmith uses to slip past
    sampling-based TRR trackers.  Against guaranteed tracking the total
    per-row activation counts are what matter, and those are bounded by
    the mitigations exactly as for uniform patterns.

    Each round repeats the first two ("loud") rows ``intensity_ratio``
    times and every other row once, in a seeded jittered order.  The
    schedule is built in one vectorized ``rng.permuted`` pass that is
    bit-identical (same seed, same bit stream) to the historical
    per-round ``rng.permutation`` loop.
    """
    _check_sides(sides, row_gap)
    if intensity_ratio < 1:
        raise ValueError(f"intensity_ratio must be >= 1, got {intensity_ratio}")
    _check_count(rounds)
    rows = _row_lines(
        mapping, bank, range(base_row, base_row + sides * row_gap, row_gap)
    )
    round_pattern = np.repeat(
        np.arange(sides), [intensity_ratio, intensity_ratio] + [1] * (sides - 2)
    )
    rng = np.random.default_rng(seed)
    schedule = rng.permuted(
        np.tile(np.arange(round_pattern.size, dtype=np.int64), (rounds, 1)), axis=1
    )
    lines = rows[round_pattern[schedule].reshape(-1)]
    return _attack_trace("attack-blacksmith", lines, seed)


def blind_adjacency_attack(
    *,
    base_line: int = 128 * 1000,
    lines_per_row: int = 128,
    activations: int = 20000,
) -> Trace:
    """An attacker assuming baseline adjacency (no mapping knowledge):
    alternates line addresses 'one row apart' in the conventional layout.

    Against a randomized mapping these lines land in unrelated rows, so
    the hammer pressure never concentrates.
    """
    _check_count(activations)
    if lines_per_row < 1:
        raise ValueError(f"lines_per_row must be >= 1, got {lines_per_row}")
    if base_line < lines_per_row:
        # base_line - lines_per_row would fall below address 0; in the
        # legacy uint64 construction it wrapped to a huge line address
        # (or crashed on recent numpy) instead of failing clearly.
        raise ValueError(
            f"base_line {base_line} must be >= lines_per_row {lines_per_row}"
            " so the row-above address does not wrap below 0"
        )
    pair = np.asarray(
        [base_line - lines_per_row, base_line + lines_per_row], dtype=np.uint64
    )
    return _attack_trace("attack-blind", np.tile(pair, activations))


def _check_count(count: int) -> None:
    if count < 1:
        raise ValueError(f"activation count must be >= 1, got {count}")


def _check_sides(sides: int, row_gap: int) -> None:
    if sides < 2:
        raise ValueError(f"sides must be >= 2, got {sides}")
    if row_gap < 1:
        raise ValueError(f"row_gap must be >= 1, got {row_gap}")


__all__ = [
    "line_of",
    "single_sided_attack",
    "double_sided_attack",
    "half_double_attack",
    "many_sided_attack",
    "blacksmith_attack",
    "blind_adjacency_attack",
]
