"""Golden tests for the attack constructors.

Pins (a) the exact per-row activation histograms of all six attacks
under Coffee Lake and Rubix-S -- any change to trace construction must
be a deliberate golden update -- (b) the two historical
trace-construction bugs this layer fixed: the Half-Double near_b
interleaving (which silently drained far_a twice per period) and the
blind-adjacency uint64 wraparound below address 0 -- and (c) the
geometry checks of ``line_of``, the one path from a row to a line.
"""

import numpy as np
import pytest

from repro.core.rubix_s import RubixSMapping
from repro.dram.config import baseline_config
from repro.mapping.intel import CoffeeLakeMapping
from repro.workloads.attacks import (
    blacksmith_attack,
    blind_adjacency_attack,
    double_sided_attack,
    half_double_attack,
    line_of,
    many_sided_attack,
    single_sided_attack,
)


@pytest.fixture(scope="module")
def coffeelake():
    return CoffeeLakeMapping(baseline_config())


@pytest.fixture(scope="module")
def rubix_s():
    return RubixSMapping(baseline_config(), gang_size=4, seed=7)


def histogram(mapping, lines):
    mapped = mapping.translate_trace(lines)
    rows, counts = np.unique(mapped.global_row, return_counts=True)
    return dict(zip(rows.tolist(), counts.tolist()))


def build_all(mapping):
    """All six attacks, at small golden-friendly parameters."""
    return {
        "single": single_sided_attack(mapping, activations=100),
        "double": double_sided_attack(mapping, activations_per_side=100),
        "half_double": half_double_attack(mapping, far_activations=40, near_every=4),
        "many_sided": many_sided_attack(mapping, sides=4, rounds=50),
        "blacksmith": blacksmith_attack(mapping, sides=4, rounds=50, intensity_ratio=3),
        "blind": blind_adjacency_attack(activations=100),
    }


#: Per-global-row activation counts of the Coffee-Lake-constructed
#: attacks, as seen by each evaluation mapping.  Under Rubix-S (seed 7)
#: the same line stream lands in unrelated rows -- the randomized
#: mapping disperses exactly the adjacency the attacks rely on.
GOLDEN_COFFEELAKE = {
    "single": {1000: 100, 5000: 100},
    "double": {999: 100, 1001: 100},
    "half_double": {998: 30, 999: 10, 1001: 10, 1002: 30},
    "many_sided": {1000: 50, 1002: 50, 1004: 50, 1006: 50},
    "blacksmith": {1000: 150, 1002: 150, 1004: 50, 1006: 50},
    "blind": {524350: 100, 1310782: 100},
}
GOLDEN_RUBIX_S = {
    "single": {1243386: 100, 1495893: 100},
    "double": {1147: 100, 1258541: 100},
    "half_double": {1147: 10, 323008: 30, 1258541: 10, 1611735: 30},
    "many_sided": {323008: 50, 1012029: 50, 1495893: 50, 1640845: 50},
    "blacksmith": {323008: 150, 1012029: 50, 1495893: 150, 1640845: 50},
    "blind": {1888909: 100, 1967306: 100},
}


class TestGoldenHistograms:
    @pytest.mark.parametrize("name", sorted(GOLDEN_COFFEELAKE))
    def test_under_coffeelake(self, coffeelake, name):
        attack = build_all(coffeelake)[name]
        assert histogram(coffeelake, attack.lines) == GOLDEN_COFFEELAKE[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUBIX_S))
    def test_under_rubix_s(self, coffeelake, rubix_s, name):
        attack = build_all(coffeelake)[name]
        assert histogram(rubix_s, attack.lines) == GOLDEN_RUBIX_S[name]

    def test_rubix_s_disperses_every_adjacency(self, coffeelake, rubix_s):
        # No two aggressor rows of any Coffee-Lake-built attack stay
        # within hammering distance (2 rows) of each other under Rubix-S.
        for name, attack in build_all(coffeelake).items():
            rows = sorted(histogram(rubix_s, attack.lines))
            gaps = np.diff(np.asarray(rows))
            assert (gaps > 2).all(), f"{name}: adjacent rows survived remapping"


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(GOLDEN_COFFEELAKE))
    def test_identical_lines_on_rebuild(self, coffeelake, name):
        a = build_all(coffeelake)[name]
        b = build_all(coffeelake)[name]
        assert np.array_equal(a.lines, b.lines)
        assert a.name == b.name and a.instructions == b.instructions


class TestHalfDoubleInterleaving:
    """Satellite: near_b must land on far_b (odd) slots.

    The legacy constructor planted both injections on even slots, so
    far_a lost two activations per period while far_b lost none.
    """

    def test_exact_counts_small_period(self, coffeelake):
        attack = half_double_attack(coffeelake, far_activations=40, near_every=4)
        assert histogram(coffeelake, attack.lines) == {
            998: 30,
            999: 10,
            1001: 10,
            1002: 30,
        }

    @pytest.mark.parametrize(
        "far,near_every,expected",
        [
            (40, 4, {998: 30, 999: 10, 1001: 10, 1002: 30}),
            (40, 5, {998: 32, 999: 8, 1001: 8, 1002: 32}),
            (60, 6, {998: 50, 999: 10, 1001: 10, 1002: 50}),
        ],
    )
    def test_exact_counts(self, coffeelake, far, near_every, expected):
        attack = half_double_attack(
            coffeelake, far_activations=far, near_every=near_every
        )
        assert histogram(coffeelake, attack.lines) == expected

    @pytest.mark.parametrize("far,near_every", [(40, 4), (100, 3), (20000, 400)])
    def test_far_pressure_is_symmetric(self, coffeelake, far, near_every):
        attack = half_double_attack(
            coffeelake, far_activations=far, near_every=near_every
        )
        counts = histogram(coffeelake, attack.lines)
        # Both distance-2 aggressors within one activation of each other
        # (exact when the period divides the pattern length), and both
        # distance-1 rows likewise -- the property the legacy phase bug
        # broke (far_a drained twice per period, far_b untouched).
        assert abs(counts[998] - counts[1002]) <= 1
        assert abs(counts[999] - counts[1001]) <= 1
        assert counts[998] + counts[999] == far
        assert counts[1001] + counts[1002] == far

    def test_near_rows_stay_infrequent(self, coffeelake):
        # Defaults: near accesses must stay below tracker thresholds
        # while far pressure greatly exceeds them (the attack's premise).
        attack = half_double_attack(coffeelake)
        counts = histogram(coffeelake, attack.lines)
        assert counts[999] < 64 and counts[1001] < 64
        assert counts[998] > 512 and counts[1002] > 512

    def test_period_validation(self, coffeelake):
        with pytest.raises(ValueError, match="near_every"):
            half_double_attack(coffeelake, near_every=1)


class TestBlindWraparound:
    """Satellite: base_line below one row must fail, not wrap."""

    def test_underflow_raises(self):
        with pytest.raises(ValueError, match="wrap below 0"):
            blind_adjacency_attack(base_line=64, lines_per_row=128)

    def test_boundary_is_legal(self):
        attack = blind_adjacency_attack(
            base_line=128, lines_per_row=128, activations=3
        )
        assert attack.lines.tolist() == [0, 256] * 3

    def test_spec_rejects_bad_lines_per_row(self):
        with pytest.raises(ValueError, match="lines_per_row"):
            blind_adjacency_attack(lines_per_row=0)


class TestBlacksmithVectorization:
    """Satellite: the one-shot permuted schedule is bit-identical to the
    historical per-round permutation loop (same seed, same bit stream)."""

    @staticmethod
    def legacy_reference(mapping, *, bank, base_row, sides, row_gap, rounds,
                         intensity_ratio, seed):
        rows = [base_row + i * row_gap for i in range(sides)]
        lines = np.asarray(
            [line_of(mapping, bank, row) for row in rows], dtype=np.uint64
        )
        intensities = [intensity_ratio, intensity_ratio] + [1] * (sides - 2)
        round_pattern = np.repeat(np.arange(sides), intensities)
        rng = np.random.default_rng(seed)
        chunks = [
            lines[round_pattern[rng.permutation(round_pattern.size)]]
            for _ in range(rounds)
        ]
        return np.concatenate(chunks)

    @pytest.mark.parametrize("seed", [0xB5, 1, 2024])
    def test_bit_identical_to_per_round_loop(self, coffeelake, seed):
        params = dict(
            bank=0, base_row=1000, sides=6, row_gap=2, rounds=40,
            intensity_ratio=4, seed=seed,
        )
        attack = blacksmith_attack(coffeelake, **params)
        reference = self.legacy_reference(coffeelake, **params)
        assert np.array_equal(attack.lines, reference)


class TestLineOf:
    """Every attack row goes through one geometry-checked path."""

    def test_valid_coordinate_round_trips(self, coffeelake):
        line = line_of(coffeelake, 3, 1000, 5)
        coord = coffeelake.translate(line)
        assert (coord.bank, coord.row, coord.col) == (3, 1000, 5)

    def test_row_underflow_is_a_clear_error(self, coffeelake):
        with pytest.raises(ValueError, match="row -2 out of range"):
            line_of(coffeelake, 0, -2)

    def test_row_overflow_is_a_clear_error(self, coffeelake):
        rows = coffeelake.config.rows_per_bank
        with pytest.raises(ValueError, match="out of range"):
            line_of(coffeelake, 0, rows)

    def test_bank_bounds(self, coffeelake):
        with pytest.raises(ValueError, match="bank"):
            line_of(coffeelake, coffeelake.config.banks, 0)

    def test_col_bounds(self, coffeelake):
        with pytest.raises(ValueError, match="col"):
            line_of(coffeelake, 0, 0, coffeelake.config.lines_per_row)

    def test_edge_rows_are_legal(self, coffeelake):
        line_of(coffeelake, 0, 0)
        line_of(coffeelake, 0, coffeelake.config.rows_per_bank - 1)
