"""Unit tests for the calibrated SPEC-like workload generators."""

import numpy as np
import pytest

from repro.dram.fast_model import analyze_trace
from repro.mapping.intel import CoffeeLakeMapping
from repro.dram.config import baseline_config
from repro.workloads import spec
from repro.workloads.spec import (
    SPEC_PROFILES,
    SpecProfile,
    spec_names,
    spec_profile,
    spec_trace,
)


class TestProfiles:
    def test_eighteen_workloads(self):
        assert len(spec_names()) == 18

    def test_profile_lookup(self):
        assert spec_profile("gcc").mpki == pytest.approx(6.12)
        with pytest.raises(KeyError):
            spec_profile("nonexistent")

    def test_calibration_targets_match_paper_averages(self):
        # Paper: average 9528 ACT-64+ hot rows and 206 ACT-512+.
        hot64 = sum(p.hot64_rows for p in SPEC_PROFILES.values()) / 18
        hot512 = sum(p.hot512_rows for p in SPEC_PROFILES.values()) / 18
        assert hot64 == pytest.approx(9528, rel=0.15)
        assert hot512 == pytest.approx(206, rel=0.05)

    def test_average_mpki_matches_paper(self):
        mpki = sum(p.mpki for p in SPEC_PROFILES.values()) / 18
        assert mpki == pytest.approx(3.01, rel=0.05)

    def test_footprint_under_five_percent(self):
        # Paper: <5% of the 2M rows touched per window.
        avg_unique = sum(p.unique_rows for p in SPEC_PROFILES.values()) / 18
        assert avg_unique < 0.05 * 2 * 1024 * 1024

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            SpecProfile("bad", 1.0, 10, 20, 0, 0.5)  # unique < hot
        with pytest.raises(ValueError):
            SpecProfile("bad", 1.0, 100, 10, 20, 0.5)  # 512 > 64
        with pytest.raises(ValueError):
            SpecProfile("bad", 1.0, 100, 10, 0, 1.5)  # bad fraction


class TestGeneratedTraces:
    def test_deterministic(self):
        a = spec_trace("xz", scale=0.05)
        b = spec_trace("xz", scale=0.05)
        assert np.array_equal(a.lines, b.lines)

    def test_seed_changes_trace(self):
        a = spec_trace("xz", scale=0.05, seed=1)
        b = spec_trace("xz", scale=0.05, seed=2)
        assert not np.array_equal(a.lines, b.lines)

    def test_addresses_in_range(self):
        trace = spec_trace("mcf", scale=0.05)
        assert int(trace.lines.max()) < (1 << 28)

    def test_mpki_close_to_profile(self):
        for name in ("blender", "gcc", "namd"):
            trace = spec_trace(name, scale=0.1)
            assert trace.mpki == pytest.approx(spec_profile(name).mpki, rel=0.25)

    @pytest.mark.parametrize("name", ["gcc", "mcf", "xz"])
    def test_hot_rows_match_targets(self, name):
        scale = 0.1
        config = baseline_config()
        trace = spec_trace(name, scale=scale)
        mapped = CoffeeLakeMapping(config).translate_trace(trace.lines)
        stats = analyze_trace(
            mapped.global_row, rows_per_bank=config.rows_per_bank
        )
        profile = spec_profile(name)
        assert stats.hot_rows(64) == pytest.approx(profile.hot64_rows * scale, rel=0.25)
        if profile.hot512_rows * scale >= 10:
            assert stats.hot_rows(512) == pytest.approx(
                profile.hot512_rows * scale, rel=0.4
            )

    def test_leela_has_no_hot_rows(self):
        config = baseline_config()
        trace = spec_trace("leela", scale=0.5)
        mapped = CoffeeLakeMapping(config).translate_trace(trace.lines)
        stats = analyze_trace(
            mapped.global_row, rows_per_bank=config.rows_per_bank
        )
        assert stats.hot_rows(64) <= 2

    def test_scale_shrinks_footprint(self):
        small = spec_trace("gcc", scale=0.05)
        large = spec_trace("gcc", scale=0.1)
        assert len(large) > 1.5 * len(small)

    def test_cores_scale_accesses(self):
        four = spec_trace("gcc", scale=0.05, cores=4)
        eight = spec_trace("gcc", scale=0.05, cores=8)
        assert len(eight) == pytest.approx(2 * len(four), rel=0.1)

    def test_wider_address_space(self):
        trace = spec_trace("gcc", scale=0.05, line_addr_bits=29)
        assert int(trace.lines.max()) < (1 << 29)

    def test_invalid_args(self, monkeypatch):
        with pytest.raises(ValueError):
            spec_trace("gcc", scale=0.05, cores=0)
        with pytest.raises(KeyError):
            spec_trace("notaworkload")

        # A bad scale is rejected before any generation work starts.
        def generating(*args, **kwargs):
            raise AssertionError("generation started")

        monkeypatch.setattr(spec, "_pareto_acts", generating)
        for scale in (0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match=r"scale must be in \(0, 1\], got"):
                spec_trace("lbm", scale=scale)
