"""Unit tests for the deterministic fault-injection harness.

The contract under test: every injected fault is either *detected* (a
typed error) or *flagged* (a degraded record) -- never a silent wrong
result.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import FaultInjectedError, MappingConfigError, TraceFormatError
from repro.perf.simulator import RunResult
from repro.resilience.executor import check_result_invariants
from repro.resilience.faults import FaultPlan, FaultySimulator, SimulatedCrash
from repro.workloads.trace import Trace
from repro.workloads.trace_io import load_trace, save_trace_raw
from support.faults import (
    corrupt_remap_keys,
    corrupt_trace_file,
    snapshot_key_state,
    verify_key_state,
)


@pytest.fixture()
def trace_file(tmp_path):
    trace = Trace(
        name="demo",
        lines=np.arange(5000, dtype=np.uint64) * 7,
        instructions=100_000,
        scale=0.5,
    )
    return save_trace_raw(trace, tmp_path / "demo")


class TestTraceCorruption:
    def test_truncation_detected(self, trace_file):
        corrupted = corrupt_trace_file(trace_file, mode="truncate")
        assert corrupted.name == "demo.corrupt.rtr"
        with pytest.raises(TraceFormatError, match="trace is truncated"):
            load_trace(corrupted)

    def test_corruption_is_deterministic(self, trace_file, tmp_path):
        a = corrupt_trace_file(trace_file, out=tmp_path / "a.rtr")
        b = corrupt_trace_file(trace_file, out=tmp_path / "b.rtr")
        assert a.read_bytes() == b.read_bytes()

    def test_original_untouched(self, trace_file):
        before = trace_file.read_bytes()
        corrupt_trace_file(trace_file, mode="truncate")
        assert trace_file.read_bytes() == before
        load_trace(trace_file)

    def test_unknown_mode_rejected(self, trace_file):
        with pytest.raises(ValueError):
            corrupt_trace_file(trace_file, mode="bitflip")


class TestKeyCorruption:
    def test_corrupted_keys_fail_verification(self, small_config):
        from repro.core.rubix_d import RubixDMapping

        mapping = RubixDMapping(small_config, gang_size=4, seed=9)
        snapshot = snapshot_key_state(mapping)
        verify_key_state(mapping, snapshot)  # pristine state passes
        where = corrupt_remap_keys(mapping, seed=5)
        assert "curr_key" in where
        with pytest.raises(FaultInjectedError):
            verify_key_state(mapping, snapshot)

    def test_corruption_changes_translation(self, small_config):
        from repro.core.rubix_d import RubixDMapping

        lines = np.arange(1 << 12, dtype=np.uint64)
        pristine = RubixDMapping(small_config, gang_size=4, seed=9)
        rows_before = pristine.translate_trace(lines).global_row.copy()
        corrupt_remap_keys(pristine, seed=5)
        assert not np.array_equal(pristine.translate_trace(lines).global_row, rows_before)

    def test_static_cipher_mappings_snapshot_but_cannot_corrupt(self, small_config):
        from repro.core.rubix_s import RubixSMapping

        mapping = RubixSMapping(small_config, gang_size=4)
        assert snapshot_key_state(mapping)  # cipher key is checksummable
        with pytest.raises(MappingConfigError):
            corrupt_remap_keys(mapping)  # no mutable remap engines

    def test_keyless_mappings_rejected(self, small_config):
        from repro.mapping.intel import CoffeeLakeMapping

        with pytest.raises(MappingConfigError):
            snapshot_key_state(CoffeeLakeMapping(small_config))


def _result(**overrides) -> RunResult:
    base = RunResult(
        trace_name="demo",
        mapping_name="CoffeeLake",
        scheme="blockhammer",
        t_rh=128,
        accesses=10_000,
        activations=4_000,
        hit_rate=0.6,
        unique_rows=900,
        hot_rows_64=10,
        hot_rows_512=2,
        max_row_activations=700,
        mitigations=25,
        remap_swaps=0,
        exec_time_s=0.05,
        window_s=0.064,
        normalized_performance=0.97,
    )
    return dataclasses.replace(base, **overrides)


class TestResultInvariants:
    def test_healthy_result_passes(self):
        assert check_result_invariants(_result()) == []

    @pytest.mark.parametrize(
        "overrides",
        [
            {"activations": -1},
            {"activations": 20_000},  # more ACTs than accesses
            {"hit_rate": 1.5},
            {"mitigations": -3},
            {"exec_time_s": 0.0},
            {"normalized_performance": float("nan")},
            {"hot_rows_512": 99, "hot_rows_64": 1},
        ],
    )
    def test_impossible_results_raise(self, overrides):
        with pytest.raises(FaultInjectedError):
            check_result_invariants(_result(**overrides))

    def test_dropped_mitigations_flagged_not_silent(self):
        # A row crossed T_RH yet the scheme never fired: suspicious.
        flags = check_result_invariants(_result(mitigations=0, max_row_activations=500))
        assert flags == ["suspect-mitigation-count"]

    def test_zero_mitigations_legitimate_when_below_threshold(self):
        flags = check_result_invariants(_result(mitigations=0, max_row_activations=90))
        assert flags == []


class _StubSimulator:
    """Minimal Simulator stand-in for plan-matching tests."""

    config = None

    def __init__(self):
        self.runs = 0

    def run(self, trace, mapping, *, scheme="none", t_rh=128):
        self.runs += 1
        return _result(trace_name=trace.name, scheme=scheme, t_rh=t_rh)


class _StubMapping:
    name = "CoffeeLake"


def _trace(name="demo"):
    return Trace(name=name, lines=np.arange(16, dtype=np.uint64), instructions=1000)


class TestFaultySimulator:
    def test_unmatched_cells_pass_through(self):
        sim = FaultySimulator(_StubSimulator(), FaultPlan(fail_cells=("other|",)))
        result = sim.run(_trace(), _StubMapping(), scheme="aqua", t_rh=128)
        assert result.mitigations == 25 and sim.cells_completed == 1

    def test_hard_fault_raises_typed_error(self):
        sim = FaultySimulator(_StubSimulator(), FaultPlan(fail_cells=("demo|CoffeeLake",)))
        with pytest.raises(FaultInjectedError):
            sim.run(_trace(), _StubMapping())
        assert sim.cells_completed == 0

    def test_dropped_mitigations_are_flagged_by_invariants(self):
        sim = FaultySimulator(_StubSimulator(), FaultPlan(drop_mitigation_cells=("demo",)))
        result = sim.run(_trace(), _StubMapping(), scheme="blockhammer")
        assert result.mitigations == 0  # silently corrupted...
        assert check_result_invariants(result) == ["suspect-mitigation-count"]  # ...but caught

    def test_crash_after_n_cells(self):
        sim = FaultySimulator(_StubSimulator(), FaultPlan(crash_after_cells=2))
        sim.run(_trace("a"), _StubMapping())
        sim.run(_trace("b"), _StubMapping())
        with pytest.raises(SimulatedCrash):
            sim.run(_trace("c"), _StubMapping())

    def test_crash_is_not_an_ordinary_exception(self):
        # The executor absorbs Exception; a crash must tear through it.
        assert not issubclass(SimulatedCrash, Exception)
