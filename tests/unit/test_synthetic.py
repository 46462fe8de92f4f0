"""Unit tests for the composable synthetic workload builder."""

import numpy as np
import pytest

from repro.dram.config import baseline_config
from repro.dram.fast_model import analyze_trace
from repro.mapping.intel import CoffeeLakeMapping
from repro.workloads.synthetic import (
    ColdPool,
    HotSpots,
    PointerChase,
    SequentialScan,
    WorkloadBuilder,
)


def _analyze(trace):
    config = baseline_config()
    mapped = CoffeeLakeMapping(config).translate_trace(trace.lines)
    return analyze_trace(
        mapped.global_row, rows_per_bank=config.rows_per_bank, max_hits=16
    )


class TestComponents:
    def test_hotspots_create_hot_rows(self):
        trace = (
            WorkloadBuilder(seed=1)
            .add(HotSpots(rows=100, activations_per_row=100))
            .add(ColdPool(rows=5000, accesses_per_row=4))
            .build(name="hot")
        )
        stats = _analyze(trace)
        assert stats.hot_rows(64) == pytest.approx(100, abs=10)

    def test_scan_produces_hits(self):
        trace = (
            WorkloadBuilder(seed=2)
            .add(SequentialScan(rows=2000, accesses=200_000))
            .build(name="scan")
        )
        stats = _analyze(trace)
        assert stats.hit_rate > 0.8
        assert stats.hot_rows(64) == 0

    def test_cold_pool_touches_footprint(self):
        trace = (
            WorkloadBuilder(seed=3)
            .add(ColdPool(rows=10_000, accesses_per_row=6))
            .build(name="cold")
        )
        stats = _analyze(trace)
        assert stats.unique_rows_touched > 9_000
        assert stats.hot_rows(64) == 0

    def test_pointer_chase_no_locality(self):
        trace = (
            WorkloadBuilder(seed=4)
            .add(PointerChase(rows=4000, accesses=100_000))
            .build(name="chase")
        )
        stats = _analyze(trace)
        assert stats.hit_rate < 0.05

    def test_component_validation(self):
        with pytest.raises(ValueError):
            HotSpots(rows=0)
        with pytest.raises(ValueError):
            HotSpots(rows=1, active_lines=200)
        with pytest.raises(ValueError):
            SequentialScan(rows=1, accesses=10, burst=33)
        with pytest.raises(ValueError):
            ColdPool(rows=1, accesses_per_row=0)
        with pytest.raises(ValueError):
            PointerChase(rows=0, accesses=1)


class TestBuilder:
    def test_regions_disjoint(self):
        builder = (
            WorkloadBuilder(seed=5)
            .add(HotSpots(rows=32, activations_per_row=50))
            .add(SequentialScan(rows=100, accesses=5000))
        )
        trace = builder.build()
        hot_limit = HotSpots(rows=32, activations_per_row=50).lines_needed()
        hot_lines = trace.lines[trace.lines < hot_limit]
        scan_lines = trace.lines[trace.lines >= hot_limit]
        assert hot_lines.size > 0 and scan_lines.size > 0

    def test_deterministic(self):
        def build():
            return (
                WorkloadBuilder(seed=6)
                .add(HotSpots(rows=10, activations_per_row=30))
                .add(ColdPool(rows=100, accesses_per_row=3))
                .build()
            )

        assert np.array_equal(build().lines, build().lines)

    def test_mpki_sets_instructions(self):
        trace = (
            WorkloadBuilder(seed=7)
            .add(ColdPool(rows=100, accesses_per_row=5))
            .build(mpki=10.0)
        )
        assert trace.mpki == pytest.approx(10.0, rel=0.01)

    def test_empty_builder_rejected(self):
        with pytest.raises(ValueError):
            WorkloadBuilder().build()

    def test_oversized_footprint_rejected(self):
        with pytest.raises(ValueError):
            WorkloadBuilder(line_addr_bits=12).add(ColdPool(rows=10_000)).build()

    def test_bursts_stay_contiguous(self):
        trace = (
            WorkloadBuilder(seed=8)
            .add(SequentialScan(rows=50, accesses=3200, burst=32))
            .add(ColdPool(rows=500, accesses_per_row=2))
            .build()
        )
        # Find a scan burst start (scan region is laid out first) and
        # check the next 31 accesses are its continuation.
        scan_limit = 50 * 128
        starts = np.where((trace.lines < scan_limit) & (trace.lines % 32 == 0))[0]
        index = int(starts[0])
        burst = trace.lines[index : index + 32]
        assert np.array_equal(burst, burst[0] + np.arange(32, dtype=np.uint64))

    def test_doctest_example(self):
        trace = (
            WorkloadBuilder(line_addr_bits=28, seed=7)
            .add(HotSpots(rows=500, activations_per_row=100))
            .add(SequentialScan(rows=20_000, accesses=400_000))
            .add(ColdPool(rows=50_000, accesses_per_row=4.0))
            .build(name="my-app", mpki=4.0)
        )
        assert trace.name == "my-app"
        stats = _analyze(trace)
        assert stats.hot_rows(64) >= 450
