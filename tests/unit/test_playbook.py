"""Unit tests for the attack-spec compiler behind the attack constructors."""

import numpy as np
import pytest

from repro.dram.config import baseline_config
from repro.mapping.intel import CoffeeLakeMapping
from repro.workloads.playbook import (
    compile_playbook,
    line_of,
    parse_rows,
    validate_spec,
)


@pytest.fixture(scope="module")
def mapping():
    return CoffeeLakeMapping(baseline_config())


class TestParseRows:
    def test_single_int(self):
        assert parse_rows(7) == [7]

    @pytest.mark.parametrize("bad", [[], [1.5], [True], [None], 2.5, "3:6", [1, "3:6"]])
    def test_rejects_bad_entries(self, bad):
        with pytest.raises(ValueError):
            parse_rows(bad)


class TestValidateSpec:
    def base(self, **extra):
        spec = {"rows": [10, 20], "pattern": "paired", "rounds": 4}
        spec.update(extra)
        return spec

    def test_accepts_valid(self):
        assert validate_spec(self.base()) is not None

    def test_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown playbook spec key"):
            validate_spec(self.base(rownds=4))

    @pytest.mark.parametrize("key", ["refresh_gap", "gap_row", "target_mapping"])
    def test_rejects_retired_keys(self, key):
        with pytest.raises(ValueError, match="unknown playbook spec key"):
            validate_spec(self.base(**{key: 1}))

    def test_rejects_unknown_pattern(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            validate_spec(self.base(pattern="zigzag"))

    def test_paired_needs_two_rows(self):
        with pytest.raises(ValueError, match="exactly 2 rows"):
            validate_spec(self.base(rows=[1, 2, 3]))

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError, match="must be a dict"):
            validate_spec([1, 2])

    def test_intensities_need_frequency_weighted(self):
        with pytest.raises(ValueError, match="frequency-weighted"):
            validate_spec(self.base(intensities=[2, 1]))

    def test_intensities_must_align_with_rows(self):
        spec = self.base(pattern="frequency-weighted", intensities=[2, 1, 1])
        with pytest.raises(ValueError, match="one repeat count per row"):
            validate_spec(spec)

    def test_intensities_must_be_positive_ints(self):
        spec = self.base(pattern="frequency-weighted", intensities=[2, 0])
        with pytest.raises(ValueError, match="integers >= 1"):
            validate_spec(spec)

    def test_injection_needs_row_and_every(self):
        with pytest.raises(ValueError, match="'row' and an 'every'"):
            validate_spec(self.base(near_injections=[{"row": 9}]))

    def test_injection_phase_must_be_inside_period(self):
        bad = [{"row": 9, "every": 4, "phase": 4}]
        with pytest.raises(ValueError, match="must be < its period"):
            validate_spec(self.base(near_injections=bad))

    def test_injection_rejects_unknown_keys(self):
        bad = [{"row": 9, "every": 4, "phaze": 1}]
        with pytest.raises(ValueError, match="unknown near_injection key"):
            validate_spec(self.base(near_injections=bad))

    def test_rejects_bad_address_space(self):
        with pytest.raises(ValueError, match="address_space"):
            validate_spec(self.base(address_space="page"))


class TestLineOf:
    """Satellite: every attack row goes through one geometry-checked path."""

    def test_valid_coordinate_round_trips(self, mapping):
        line = line_of(mapping, 3, 1000, 5)
        coord = mapping.translate(line)
        assert (coord.bank, coord.row, coord.col) == (3, 1000, 5)

    def test_row_underflow_is_a_clear_error(self, mapping):
        with pytest.raises(ValueError, match="row -2 out of range"):
            line_of(mapping, 0, -2)

    def test_row_overflow_is_a_clear_error(self, mapping):
        rows = mapping.config.rows_per_bank
        with pytest.raises(ValueError, match="out of range"):
            line_of(mapping, 0, rows)

    def test_bank_bounds(self, mapping):
        with pytest.raises(ValueError, match="bank"):
            line_of(mapping, mapping.config.banks, 0)

    def test_col_bounds(self, mapping):
        with pytest.raises(ValueError, match="col"):
            line_of(mapping, 0, 0, mapping.config.lines_per_row)

    def test_edge_rows_are_legal(self, mapping):
        line_of(mapping, 0, 0)
        line_of(mapping, 0, mapping.config.rows_per_bank - 1)


class TestCompile:
    def test_round_robin_is_tiled(self, mapping):
        spec = {"rows": [10, 20, 30], "pattern": "round-robin", "rounds": 4}
        trace = compile_playbook(spec, mapping)
        expected = np.tile(
            np.array([line_of(mapping, 0, r) for r in (10, 20, 30)], dtype=np.uint64), 4
        )
        assert np.array_equal(trace.lines, expected)
        assert trace.instructions == 2 * len(trace.lines)

    def test_paired_alternates(self, mapping):
        spec = {"rows": [999, 1001], "pattern": "paired", "rounds": 3}
        trace = compile_playbook(spec, mapping)
        rows = mapping.translate_trace(trace.lines).row
        assert rows.tolist() == [999, 1001] * 3

    def test_frequency_weighted_is_deterministic(self, mapping):
        spec = {
            "rows": [10, 20, 30],
            "pattern": "frequency-weighted",
            "intensities": [3, 1, 1],
            "rounds": 20,
            "seed": 42,
        }
        a = compile_playbook(spec, mapping)
        b = compile_playbook(spec, mapping)
        assert np.array_equal(a.lines, b.lines)
        other = compile_playbook({**spec, "seed": 43}, mapping)
        assert not np.array_equal(a.lines, other.lines)
        counts = np.unique(
            mapping.translate_trace(a.lines).row, return_counts=True
        )[1]
        assert sorted(counts.tolist()) == [20, 20, 60]

    def test_near_injection_hits_exactly_its_slots(self, mapping):
        spec = {
            "rows": [998, 1002],
            "pattern": "paired",
            "rounds": 8,
            "near_injections": [{"row": 999, "every": 4, "phase": 1}],
        }
        rows = mapping.translate_trace(compile_playbook(spec, mapping).lines).row
        assert rows.tolist() == [998, 999, 998, 1002] * 4

    def test_scale_shrinks_rounds(self, mapping):
        spec = {"rows": [10, 20], "pattern": "paired", "rounds": 100}
        assert len(compile_playbook(spec, mapping, scale=0.25)) == 50
        # Never below one round.
        assert len(compile_playbook(spec, mapping, scale=0.001)) == 2

    @pytest.mark.parametrize("scale", [0.0, -1.0, 1.5])
    def test_scale_bounds(self, mapping, scale):
        spec = {"rows": [10, 20], "pattern": "paired", "rounds": 4}
        with pytest.raises(ValueError, match="scale"):
            compile_playbook(spec, mapping, scale=scale)

    def test_line_space_needs_no_mapping(self):
        spec = {
            "rows": [4096, 8192],
            "pattern": "paired",
            "rounds": 2,
            "address_space": "line",
        }
        trace = compile_playbook(spec)
        assert trace.lines.tolist() == [4096, 8192, 4096, 8192]

    def test_line_space_rejects_negative_addresses(self):
        spec = {
            "rows": [-128, 128],
            "pattern": "paired",
            "rounds": 1,
            "address_space": "line",
        }
        with pytest.raises(ValueError, match="negative"):
            compile_playbook(spec)

    def test_row_space_requires_mapping(self):
        spec = {"rows": [10, 20], "pattern": "paired", "rounds": 1}
        with pytest.raises(ValueError, match="needs a mapping"):
            compile_playbook(spec)
