"""Unit tests for the §5.2 pitfall mapping and adversarial analysis."""

import numpy as np
import pytest

from repro.analysis.adversarial import (
    RobustnessReport,
    gang_stride_attack_trace,
    mapping_robustness,
)
from repro.core.rubix_horizontal import HorizontalXorMapping
from repro.core.rubix_s import RubixSMapping
from repro.dram.config import baseline_config
from repro.mapping.stride import LargeStrideMapping


@pytest.fixture(scope="module")
def config():
    return baseline_config()


class TestHorizontalXor:
    def test_roundtrip(self, config):
        mapping = HorizontalXorMapping(config)
        for line in (0, 99, 123_456, config.total_lines - 1):
            assert mapping.inverse(mapping.translate(line)) == line

    def test_moves_rows(self, config):
        # The content of a row does move somewhere else...
        from repro.mapping.intel import CoffeeLakeMapping

        mapping = HorizontalXorMapping(config)
        baseline = CoffeeLakeMapping(config)
        moved = sum(
            config.global_row(mapping.translate(line))
            != config.global_row(baseline.translate(line))
            for line in range(0, 12800, 128)
        )
        assert moved > 90  # nearly every row relocated

    def test_lines_stay_together(self, config):
        # ...but row-mates remain row-mates: the pitfall.
        mapping = HorizontalXorMapping(config)
        assert mapping.lines_stay_together()
        rows = {
            config.global_row(mapping.translate(8_000_000 + c)) for c in range(128)
        }
        # One aligned 128-line region maps into at most 2 rows (the key's
        # low bits can straddle one boundary), versus 32 for Rubix.
        assert len(rows) <= 2

    def test_hot_rows_not_reduced(self, config):
        # The executable statement of §5.2: same hot-row population.
        from repro.dram.fast_model import analyze_trace
        from repro.mapping.intel import CoffeeLakeMapping
        from repro.workloads.spec import spec_trace

        trace = spec_trace("gcc", scale=0.03)

        def hot(mapping):
            mapped = mapping.translate_trace(trace.lines)
            return analyze_trace(
                mapped.global_row, rows_per_bank=config.rows_per_bank
            ).hot_rows(64)

        base = hot(CoffeeLakeMapping(config))
        horizontal = hot(HorizontalXorMapping(config))
        assert horizontal == pytest.approx(base, rel=0.1)

    def test_cache_key_distinguishes_keys(self, config):
        a = HorizontalXorMapping(config, seed=1)
        b = HorizontalXorMapping(config, seed=2)
        assert a.cache_key != b.cache_key


class TestGangStrideAttack:
    def test_pattern_spacing(self):
        trace = gang_stride_attack_trace(1 << 23, gangs=4, accesses=800, background_ratio=0)
        uniques = np.unique(trace.lines // np.uint64(1 << 23))
        assert len(uniques) == 4

    def test_background_interleaved(self):
        trace = gang_stride_attack_trace(1 << 23, accesses=800, background_ratio=7)
        # 1 in 8 accesses belong to the stride pattern.
        pattern = trace.lines[0::8]
        assert np.all(pattern % np.uint64(1 << 23) < 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            gang_stride_attack_trace(0)
        with pytest.raises(ValueError):
            gang_stride_attack_trace(8, background_ratio=-1)


class TestRobustness:
    def test_large_stride_exposed(self, config):
        mapping = LargeStrideMapping(config, gang_size=4)
        stride_lines = mapping.gang_stride_bytes // config.line_bytes
        report = mapping_robustness(
            config, mapping, adversarial_stride_lines=stride_lines, accesses=120_000
        )
        assert report.exposed
        assert report.concentration > 8

    def test_rubix_s_robust(self, config):
        mapping = RubixSMapping(config, gang_size=4)
        stride_lines = LargeStrideMapping(config, gang_size=4).gang_stride_bytes // 64
        report = mapping_robustness(
            config, mapping, adversarial_stride_lines=stride_lines, accesses=120_000
        )
        assert not report.exposed
        assert report.concentration < 3

    def test_report_properties(self):
        report = RobustnessReport("m", 0, 10, 1000, 100)
        assert report.concentration == 10.0
        assert report.exposed
