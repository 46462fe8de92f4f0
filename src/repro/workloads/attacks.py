"""Rowhammer attack access patterns (for the security analysis).

Attack traces are built *mapping-aware*: the attacker is assumed to know
(or to have reverse-engineered) the line-to-row mapping, so aggressor
line addresses are derived with ``mapping.inverse``.  Against Rubix-D
the mapping changes under the attacker's feet, which is exactly the
hardening Section 5.6 claims; the ``blind`` helper models an attacker
stuck with baseline-adjacency assumptions.

Every constructor here is a thin wrapper over a declarative attack
spec (:mod:`repro.workloads.playbook`): one validated compilation path
builds the line stream, so the historical trace-construction bug class
-- mis-phased interleaves, uint64 wraparound, out-of-geometry rows --
cannot recur.  The specs are exposed as ``*_spec`` helpers.
"""

from __future__ import annotations

from repro.mapping.base import AddressMapping
from repro.workloads.playbook import compile_playbook
from repro.workloads.trace import Trace


def single_sided_spec(
    *, bank: int = 0, aggressor_row: int = 1000, dummy_row: int = 5000, activations: int = 2000
) -> dict:
    """Attack spec behind :func:`single_sided_attack`."""
    _check_count(activations)
    return {
        "name": "attack-single-sided",
        "bank": bank,
        "rows": [aggressor_row, dummy_row],
        "pattern": "paired",
        "rounds": activations,
    }


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
    return compile_playbook(
        single_sided_spec(
            bank=bank,
            aggressor_row=aggressor_row,
            dummy_row=dummy_row,
            activations=activations,
        ),
        mapping,
    )


def double_sided_spec(
    *, bank: int = 0, victim_row: int = 1000, activations_per_side: int = 2000
) -> dict:
    """Attack spec behind :func:`double_sided_attack`."""
    _check_count(activations_per_side)
    return {
        "name": "attack-double-sided",
        "bank": bank,
        "rows": [victim_row - 1, victim_row + 1],
        "pattern": "paired",
        "rounds": activations_per_side,
    }


def double_sided_attack(
    mapping: AddressMapping,
    *,
    bank: int = 0,
    victim_row: int = 1000,
    activations_per_side: int = 2000,
) -> Trace:
    """Double-sided hammer: alternate the two rows sandwiching the victim."""
    return compile_playbook(
        double_sided_spec(
            bank=bank, victim_row=victim_row, activations_per_side=activations_per_side
        ),
        mapping,
    )


def half_double_spec(
    *,
    bank: int = 0,
    victim_row: int = 1000,
    far_activations: int = 20000,
    near_every: int = 400,
) -> dict:
    """Attack spec behind :func:`half_double_attack`.

    The far (distance-2) pair alternates on even/odd slots; the near
    (distance-1) injections replace one far_a slot *and one far_b slot*
    per period.  ``near_b``'s phase is forced odd so it lands on far_b
    slots -- the legacy constructor planted it on even (far_a) slots,
    which drained far_a twice per period, left far_b untouched, and made
    the distance-2 pressure asymmetric.
    """
    _check_count(far_activations)
    if near_every < 2:
        raise ValueError(f"near_every must be >= 2, got {near_every}")
    return {
        "name": "attack-half-double",
        "bank": bank,
        "rows": [victim_row - 2, victim_row + 2],
        "pattern": "paired",
        "rounds": far_activations,
        "near_injections": [
            {"row": victim_row - 1, "every": near_every * 2, "phase": 0},
            {
                "row": victim_row + 1,
                "every": near_every * 2,
                # Odd phase == an odd pattern slot == a far_b slot.
                "phase": near_every | 1,
            },
        ],
    }


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
    """
    return compile_playbook(
        half_double_spec(
            bank=bank,
            victim_row=victim_row,
            far_activations=far_activations,
            near_every=near_every,
        ),
        mapping,
    )


def many_sided_spec(
    *, bank: int = 0, base_row: int = 1000, sides: int = 10, row_gap: int = 2, rounds: int = 500
) -> dict:
    """Attack spec behind :func:`many_sided_attack`."""
    if sides < 2:
        raise ValueError(f"sides must be >= 2, got {sides}")
    if row_gap < 1:
        raise ValueError(f"row_gap must be >= 1, got {row_gap}")
    _check_count(rounds)
    return {
        "name": f"attack-{sides}-sided",
        "bank": bank,
        "rows": list(range(base_row, base_row + sides * row_gap, row_gap)),
        "pattern": "round-robin",
        "rounds": rounds,
    }


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
    return compile_playbook(
        many_sided_spec(
            bank=bank, base_row=base_row, sides=sides, row_gap=row_gap, rounds=rounds
        ),
        mapping,
    )


def blacksmith_spec(
    *,
    bank: int = 0,
    base_row: int = 1000,
    sides: int = 6,
    row_gap: int = 2,
    rounds: int = 500,
    intensity_ratio: int = 4,
    seed: int = 0xB5,
) -> dict:
    """Attack spec behind :func:`blacksmith_attack`."""
    if sides < 2:
        raise ValueError(f"sides must be >= 2, got {sides}")
    if row_gap < 1:
        raise ValueError(f"row_gap must be >= 1, got {row_gap}")
    if intensity_ratio < 1:
        raise ValueError(f"intensity_ratio must be >= 1, got {intensity_ratio}")
    _check_count(rounds)
    return {
        "name": "attack-blacksmith",
        "bank": bank,
        "rows": list(range(base_row, base_row + sides * row_gap, row_gap)),
        "pattern": "frequency-weighted",
        "rounds": rounds,
        # The first two rows are the "loud" pair.
        "intensities": [intensity_ratio, intensity_ratio] + [1] * (sides - 2),
        "seed": seed,
    }


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

    The jittered schedule is built in one vectorized ``rng.permuted``
    pass that is bit-identical (same seed, same bit stream) to the
    historical per-round ``rng.permutation`` loop.
    """
    return compile_playbook(
        blacksmith_spec(
            bank=bank,
            base_row=base_row,
            sides=sides,
            row_gap=row_gap,
            rounds=rounds,
            intensity_ratio=intensity_ratio,
            seed=seed,
        ),
        mapping,
    )


def blind_adjacency_spec(
    *, base_line: int = 128 * 1000, lines_per_row: int = 128, activations: int = 20000
) -> dict:
    """Attack spec behind :func:`blind_adjacency_attack`."""
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
    return {
        "name": "attack-blind",
        "address_space": "line",
        "rows": [base_line - lines_per_row, base_line + lines_per_row],
        "pattern": "paired",
        "rounds": activations,
    }


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
    return compile_playbook(
        blind_adjacency_spec(
            base_line=base_line, lines_per_row=lines_per_row, activations=activations
        )
    )


def _check_count(count: int) -> None:
    if count < 1:
        raise ValueError(f"activation count must be >= 1, got {count}")


__all__ = [
    "single_sided_attack",
    "double_sided_attack",
    "half_double_attack",
    "many_sided_attack",
    "blacksmith_attack",
    "blind_adjacency_attack",
    "single_sided_spec",
    "double_sided_spec",
    "half_double_spec",
    "many_sided_spec",
    "blacksmith_spec",
    "blind_adjacency_spec",
]
