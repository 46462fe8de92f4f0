"""Unit tests for the baseline address mappings."""

import numpy as np
import pytest
from oracles.kernels import translate_trace_reference

from repro.core.rubix_s import RubixSMapping
from repro.dram.config import DRAMConfig, baseline_config, multichannel_config
from repro.mapping.base import FieldDecodeMapping, fields_from_segments
from repro.mapping.intel import CoffeeLakeMapping, SkylakeMapping
from repro.mapping.linear import LinearMapping
from repro.mapping.mop import MOPMapping
from repro.mapping.stride import LargeStrideMapping
from repro.workloads.trace import Trace
from repro.workloads.trace_io import load_trace, save_trace_raw

ALL_MAPPINGS = [
    LinearMapping,
    CoffeeLakeMapping,
    SkylakeMapping,
    MOPMapping,
    LargeStrideMapping,
]

#: Single channel (the bench geometry), non-empty channel field, and a
#: 35-bit line address (the uint64 path).
GEOMETRIES = [
    baseline_config(),
    multichannel_config(2),
    DRAMConfig(channels=2, ranks=2, rows_per_bank=1 << 22),
]


@pytest.fixture(scope="module")
def config():
    return baseline_config()


class TestFieldSpecValidation:
    def test_segments_must_cover_address(self, config):
        with pytest.raises(ValueError):
            fields_from_segments(config, [("col", 7), ("bank", 4), ("row", 16)])

    def test_unknown_field_rejected(self, config):
        with pytest.raises(ValueError):
            fields_from_segments(config, [("colour", 28)])

    def test_field_width_mismatch_rejected(self, config):
        spec = fields_from_segments(
            config,
            [("col", 7), ("bank", 4), ("rank", 0), ("channel", 0), ("row", 17)],
        )
        spec["col"] = spec["col"][:-1]  # drop a bit
        with pytest.raises(ValueError):
            FieldDecodeMapping(config, spec)


@pytest.mark.parametrize("mapping_cls", ALL_MAPPINGS)
class TestCommonMappingProperties:
    def test_translate_inverse_roundtrip(self, mapping_cls, config):
        mapping = mapping_cls(config)
        for line in (0, 1, 127, 128, 8191, 123_456_789, config.total_lines - 1):
            assert mapping.inverse(mapping.translate(line)) == line

    def test_scalar_matches_vectorized(self, mapping_cls, rng):
        # The bit-run kernel, and Rubix-S decoding through it at GS1/2/4,
        # against the per-bit oracle on every element and scalar
        # translate on a sample, on every geometry.
        for config in GEOMETRIES:
            dtype = np.uint32 if config.line_addr_bits <= 32 else np.uint64
            decode = mapping_cls(config)
            lines = rng.integers(0, config.total_lines, 500, dtype=np.uint64)
            mappings = [decode] + [
                RubixSMapping(config, gang_size=gang, base_decode=decode) for gang in (1, 2, 4)
            ]
            for mapping in mappings:
                mapped = mapping.translate_trace(lines)
                decoded = lines
                if mapping is not decode:
                    decoded = np.array([mapping.encrypt_line(int(x)) for x in lines], np.uint64)
                oracle = translate_trace_reference(decode, decoded)
                for field in ("flat_bank", "row", "col"):
                    assert getattr(mapped, field).dtype == dtype
                    assert np.array_equal(getattr(mapped, field), getattr(oracle, field))
                for i in (0, 100, 499):
                    coord = mapping.translate(int(lines[i]))
                    assert config.flat_bank(coord) == int(mapped.flat_bank[i])
                    assert coord.row == int(mapped.row[i])
                    assert coord.col == int(mapped.col[i])

    def test_bijective_on_sample(self, mapping_cls, config, rng):
        mapping = mapping_cls(config)
        lines = np.unique(rng.integers(0, config.total_lines, 5000, dtype=np.uint64))
        mapped = mapping.translate_trace(lines)
        keys = mapped.global_row * np.int64(config.lines_per_row) + mapped.col.astype(
            np.int64
        )
        assert len(np.unique(keys)) == len(lines)

    def test_out_of_range_rejected(self, mapping_cls, config):
        mapping = mapping_cls(config)
        with pytest.raises(ValueError):
            mapping.translate(config.total_lines)
        with pytest.raises(ValueError):
            mapping.translate(-1)


@pytest.mark.parametrize("gang_size", [None, 1, 4])
def test_translate_trace_leaves_readonly_memmap_untouched(tmp_path, config, rng, gang_size):
    """The in-place kernels write only into their own arrays."""
    lines = rng.integers(0, config.total_lines, 3000, dtype=np.uint64)
    path = save_trace_raw(Trace("ro", lines, instructions=10_000), tmp_path / "ro.rtr")
    trace = load_trace(path)
    assert not trace.lines.flags.writeable
    if gang_size is None:
        mapping = CoffeeLakeMapping(config)
    else:
        mapping = RubixSMapping(config, gang_size=gang_size)
    expected = mapping.translate_trace(lines.copy())
    mapped = mapping.translate_trace(trace.lines, validate=False)
    assert np.array_equal(mapped.global_row, expected.global_row)
    assert np.array_equal(mapped.col, expected.col)
    assert np.array_equal(trace.lines, lines)


class TestCoffeeLake:
    def test_128_consecutive_lines_share_row(self, config):
        mapping = CoffeeLakeMapping(config)
        rows = {config.global_row(mapping.translate(line)) for line in range(128)}
        assert len(rows) == 1

    def test_next_128_lines_different_location(self, config):
        mapping = CoffeeLakeMapping(config)
        first = config.global_row(mapping.translate(0))
        second = config.global_row(mapping.translate(128))
        assert first != second

    def test_bank_hash_spreads_strided_rows(self, config):
        # Rows at a power-of-two stride should not all land in one bank.
        mapping = CoffeeLakeMapping(config)
        stride = 128 * 16  # one per (row, bank-field) step
        banks = {
            mapping.translate(i * stride * 16).bank for i in range(64)
        }
        assert len(banks) > 1


class TestSkylake:
    def test_pairs_alternate_between_two_banks(self, config):
        mapping = SkylakeMapping(config)
        banks = [mapping.translate(line).bank for line in range(8)]
        # lines 0,1 -> bank A; 2,3 -> bank B; 4,5 -> A; 6,7 -> B.
        assert banks[0] == banks[1] == banks[4] == banks[5]
        assert banks[2] == banks[3] == banks[6] == banks[7]
        assert banks[0] != banks[2]

    def test_32_lines_of_page_per_row(self, config):
        mapping = SkylakeMapping(config)
        rows = {}
        for line in range(64):  # one 4 KB page
            coord = mapping.translate(line)
            rows.setdefault(config.global_row(coord), []).append(line)
        assert sorted(len(v) for v in rows.values()) == [32, 32]

    def test_four_consecutive_pages_share_rows(self, config):
        mapping = SkylakeMapping(config)
        rows_page0 = {config.global_row(mapping.translate(line)) for line in range(64)}
        rows_page3 = {
            config.global_row(mapping.translate(line)) for line in range(192, 256)
        }
        assert rows_page0 == rows_page3


class TestMOP:
    def test_four_lines_per_page_per_row(self, config):
        mapping = MOPMapping(config)
        rows = {}
        for line in range(64):  # one page
            coord = mapping.translate(line)
            rows.setdefault(config.global_row(coord), []).append(line)
        # 16 chunks of 4 lines round-robined across 16 banks.
        assert all(len(v) == 4 for v in rows.values())
        assert len(rows) == 16

    def test_consecutive_pages_share_rows(self, config):
        mapping = MOPMapping(config)
        rows_p0 = {config.global_row(mapping.translate(line)) for line in range(0, 4)}
        rows_p1 = {
            config.global_row(mapping.translate(line)) for line in range(64, 68)
        }
        assert rows_p0 == rows_p1


class TestLargeStride:
    def test_gang_stays_together(self, config):
        mapping = LargeStrideMapping(config, gang_size=4)
        rows = {config.global_row(mapping.translate(line)) for line in range(4)}
        assert len(rows) == 1

    def test_row_gangs_are_far_apart(self, config):
        mapping = LargeStrideMapping(config, gang_size=4)
        assert mapping.gang_stride_bytes == 512 * 1024 * 1024
        base = config.global_row(mapping.translate(0))
        far = config.global_row(
            mapping.translate(mapping.gang_stride_bytes // config.line_bytes)
        )
        assert base == far  # the 512MB-distant gang co-resides

    def test_nearby_gangs_do_not_share_row(self, config):
        mapping = LargeStrideMapping(config, gang_size=4)
        near = config.global_row(mapping.translate(4))
        assert near != config.global_row(mapping.translate(0))

    def test_invalid_gang_rejected(self, config):
        with pytest.raises(ValueError):
            LargeStrideMapping(config, gang_size=0)


class TestMultichannelLayouts:
    @pytest.mark.parametrize("mapping_cls", [CoffeeLakeMapping, SkylakeMapping, MOPMapping])
    def test_channels_used(self, mapping_cls):
        config = multichannel_config(2)
        mapping = mapping_cls(config)
        lines = np.arange(1024, dtype=np.uint64)
        mapped = mapping.translate_trace(lines)
        banks = mapped.flat_bank
        # Flat bank ids must span both channels' bank ranges.
        assert int(banks.max()) >= config.banks
        assert int(banks.min()) < config.banks

    def test_coffeelake_stripes_gangs_across_channels(self):
        config = multichannel_config(2)
        mapping = CoffeeLakeMapping(config)
        ch = [mapping.translate(line).channel for line in range(8)]
        assert ch[:4] == [ch[0]] * 4  # a gang of 4 stays in a channel
        assert ch[4] != ch[0]  # the next gang switches
