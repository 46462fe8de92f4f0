"""Unit tests for the performance model, metrics, and simulator."""

from unittest.mock import patch

import numpy as np
import pytest

from repro.dram.config import baseline_config
from repro.dram.fast_model import TraceStats
from repro.mapping.intel import CoffeeLakeMapping
from repro.core.rubix_s import RubixSMapping
from repro.perf.core_model import Calibration, PerformanceModel
from repro.perf.metrics import (
    arithmetic_mean,
    geometric_mean,
    percent,
    slowdown_percent,
)
from repro.perf.simulator import Simulator
from repro.workloads.kernels import random_kernel


def _stats(activations, hits, acts_per_row=None):
    acts_per_row = acts_per_row if acts_per_row is not None else [activations]
    row_ids = np.arange(len(acts_per_row), dtype=np.int64)
    return TraceStats(
        n_accesses=activations + hits,
        n_activations=activations,
        n_hits=hits,
        row_ids=row_ids,
        acts_per_row=np.asarray(acts_per_row, dtype=np.int64),
        unique_rows_touched=len(acts_per_row),
    )


class TestMetrics:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 1.0]) == pytest.approx(1.0)
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geometric_mean_validates(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            arithmetic_mean([])

    def test_slowdown_percent(self):
        assert slowdown_percent(1.0) == pytest.approx(0.0)
        assert slowdown_percent(0.5) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            slowdown_percent(0.0)

    def test_percent(self):
        assert percent(0.25) == 25.0


class TestPerformanceModel:
    @pytest.fixture()
    def model(self):
        return PerformanceModel(baseline_config())

    def test_memory_time_monotone_in_activations(self, model):
        low = model.memory_time_s(_stats(activations=1000, hits=9000))
        high = model.memory_time_s(_stats(activations=9000, hits=1000))
        assert high > low

    def test_core_time_floor(self, model):
        # A memory-saturated window keeps a nonzero core share.
        heavy = _stats(activations=50_000_000, hits=0)
        assert model.core_time_s(heavy, 0.064) == pytest.approx(
            0.064 * model.calibration.min_core_fraction
        )

    def test_mitigation_loads(self, model):
        stats = _stats(activations=200, hits=0, acts_per_row=[130, 70])
        aqua = model.mitigation_load("aqua", stats, t_rh=128)
        # Threshold 64: floor(130/64) + floor(70/64) = 2 + 1.
        assert aqua.invocations == 3
        srs = model.mitigation_load("srs", stats, t_rh=128)
        # Threshold 42: 3 + 1.
        assert srs.invocations == 4
        bh = model.mitigation_load("blockhammer", stats, t_rh=128)
        # Excess over 64: 66 + 6.
        assert bh.throttled_activations == 72

    def test_none_scheme_free(self, model):
        stats = _stats(activations=100, hits=0, acts_per_row=[100])
        load = model.mitigation_load("none", stats, t_rh=128)
        assert load.serial_time_s == 0.0

    def test_unknown_scheme(self, model):
        with pytest.raises(ValueError):
            model.mitigation_load("tr", _stats(1, 1), 128)

    def test_srs_costlier_than_aqua_per_event(self, model):
        stats = _stats(activations=100, hits=0, acts_per_row=[64])
        aqua = model.mitigation_load("aqua", stats, 128)
        srs_stats = _stats(activations=100, hits=0, acts_per_row=[42])
        srs = model.mitigation_load("srs", srs_stats, 128)
        assert srs.serial_time_s > aqua.serial_time_s

    def test_remap_time_mostly_hidden(self, model):
        visible = model.remap_time_s(1000, gang_size=4)
        raw = 1000 * model.costs.rubix_d_swap_s(4)
        assert visible < 0.2 * raw
        with pytest.raises(ValueError):
            model.remap_time_s(-1, gang_size=4)

    def test_execution_time_composition(self, model):
        stats = _stats(activations=1000, hits=1000, acts_per_row=[100] * 10)
        base = model.execution_time_s(stats, core_time_s=0.01)
        with_mitigation = model.execution_time_s(
            stats, core_time_s=0.01, scheme="aqua", t_rh=128
        )
        assert with_mitigation > base


class TestSimulator:
    @pytest.fixture(scope="class")
    def sim(self):
        return Simulator(baseline_config())

    @pytest.fixture(scope="class")
    def trace(self):
        return random_kernel(footprint_lines=1 << 16, accesses=100_000, seed=8)

    def test_baseline_normalizes_to_one(self, sim, trace):
        mapping = CoffeeLakeMapping(sim.config)
        result = sim.run(trace, mapping, scheme="none")
        assert result.normalized_performance == pytest.approx(1.0)

    def test_mitigation_never_speeds_up(self, sim, trace):
        mapping = CoffeeLakeMapping(sim.config)
        base = sim.run(trace, mapping, scheme="none")
        protected = sim.run(trace, mapping, scheme="srs", t_rh=128)
        assert protected.normalized_performance <= base.normalized_performance + 1e-9

    def test_stats_cached(self, sim, trace):
        mapping = CoffeeLakeMapping(sim.config)
        a, _ = sim.window_stats(trace, mapping)
        hits = sim.stats_cache.hits
        with patch("repro.perf.simulator.analyze_trace", side_effect=AssertionError):
            b, _ = sim.window_stats(trace, mapping)
        assert sim.stats_cache.hits == hits + 1
        for name in ("n_accesses", "n_activations", "n_hits", "unique_rows_touched"):
            assert getattr(b, name) == getattr(a, name)
        # A hit keeps the counts, ascending and in their dtype, not the ids.
        assert b.row_ids is None
        assert b.acts_per_row.dtype == a.acts_per_row.dtype
        assert np.array_equal(b.acts_per_row, np.sort(a.acts_per_row))

    @pytest.mark.parametrize("kwargs", [{"use_cache": False}], ids=["uncached"])
    def test_uncached_window_never_fingerprints(self, kwargs):
        """Only a consulted cache needs the key, so a window that skips
        the cache never hashes its trace."""
        trace = random_kernel(footprint_lines=1 << 12, accesses=20_000, seed=303)
        sim = Simulator(baseline_config())
        with patch("repro.workloads.trace.lines_fingerprint", side_effect=AssertionError):
            stats, _ = sim.window_stats(trace, CoffeeLakeMapping(sim.config), **kwargs)
        assert stats.n_accesses == 20_000
        assert (sim.stats_cache.hits, sim.stats_cache.misses, len(sim.stats_cache)) == (0, 0, 0)

    def test_trace_key_distinguishes_same_shaped_traces(self, sim):
        # Regression: the cache key was (name, scale, size), so two
        # same-shaped traces from different generator seeds silently
        # shared one cached analysis.  The key now includes a content
        # fingerprint -- these two must analyze independently.
        t1 = random_kernel(footprint_lines=1 << 12, accesses=20_000, seed=101)
        t2 = random_kernel(footprint_lines=1 << 12, accesses=20_000, seed=202)
        assert t1.name == t2.name and t1.scale == t2.scale
        assert t1.lines.size == t2.lines.size
        assert t1.fingerprint != t2.fingerprint
        mapping = CoffeeLakeMapping(sim.config)
        a, _ = sim.window_stats(t1, mapping)
        b, _ = sim.window_stats(t2, mapping)
        assert a is not b
        assert a.acts_per_row.tolist() != b.acts_per_row.tolist()

    def test_trace_key_includes_seed(self, sim):
        t1 = random_kernel(footprint_lines=1 << 10, accesses=1_000, seed=7)
        assert sim._trace_key(t1)[-2:] == (t1.fingerprint, t1.seed)

    def test_power_read_write_conservation(self, sim, trace, monkeypatch):
        # Regression: reads and writes were each int()-truncated from
        # n_accesses, so a fractional write_fraction dropped an access
        # (e.g. 100000/3 + 100000*2/3 floors to 99999).  Writes are now
        # the remainder; conservation must hold exactly, swaps included.
        captured = {}
        real_compute = sim.power_model.compute

        def spy(**kwargs):
            captured.update(kwargs)
            return real_compute(**kwargs)

        monkeypatch.setattr(sim.power_model, "compute", spy)
        for mapping in (
            CoffeeLakeMapping(sim.config),
            RubixSMapping(sim.config, gang_size=4),
        ):
            stats, swaps = sim.window_stats(trace, mapping)
            sim.power(trace, mapping, write_fraction=1 / 3)
            gang_size = getattr(mapping, "gang_size", 1)
            assert (
                captured["reads"] + captured["writes"]
                == stats.n_accesses + 4 * gang_size * swaps
            )

    def test_unknown_scheme_rejected(self, sim, trace):
        with pytest.raises(ValueError):
            sim.run(trace, CoffeeLakeMapping(sim.config), scheme="nope")

    def test_run_result_fields(self, sim, trace):
        result = sim.run(trace, RubixSMapping(sim.config, gang_size=4), scheme="aqua")
        assert result.accesses == len(trace)
        assert result.activations > 0
        assert 0 <= result.hit_rate <= 1
        assert result.mapping_name == "Rubix-S (GS4)"
        assert result.slowdown_pct >= -5  # small speedups possible vs CL

    def test_power_reasonable(self, sim, trace):
        power = sim.power(trace, CoffeeLakeMapping(sim.config))
        assert 1.0 < power.total_w < 6.0
