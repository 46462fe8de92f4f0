"""Benchmark: telemetry-disabled overhead on the simulation hot path.

The observability layer's contract is that when telemetry is off (the
default), every instrumented call site costs one boolean check.  This
measures it end to end: a 1M-line dynamic Rubix-D window through the
instrumented :meth:`Simulator.window_stats` vs the uninstrumented
replica of the same pipeline (:func:`hotpath_bench.run_window`), and
asserts the instrumented path stays within 2% -- with bit-identical
stats and swap totals, so the comparison is apples-to-apples.

Timing gates are inherently noisy, so the overhead is the median of
``PAIRS`` per-pair time ratios: each pair times both pipelines back to
back, alternating which one goes first, so drift and one-off stalls
hit a single pair rather than the verdict.  A few retry attempts
follow before failing; the gate lives here (outside tier-1 testpaths)
so machine jitter can never block the main suite.
"""

import gc
import statistics
import time

import pytest

from repro import obs
from repro.core.rubix_d import RubixDMapping
from repro.dram.config import baseline_config
from repro.perf.hotpath_bench import assert_stats_equal, run_window, synth_lines
from repro.perf.simulator import Simulator
from repro.workloads.trace import Trace

BENCH_LINES = 1_000_000
CHUNK_LINES = 1 << 20
SEED = 0xB16B00
MAX_OVERHEAD = 0.02
PAIRS = 61
ATTEMPTS = 3


@pytest.fixture(autouse=True)
def telemetry_off():
    obs.reset()  # disabled registry/tracer/logs -- the default state
    yield
    obs.reset()


def fresh_mapping():
    # Remap state advances during a window, so every measurement needs a
    # same-seed rebuild for its results to be comparable.
    return RubixDMapping(baseline_config(), gang_size=4, seed=SEED)


def make_inputs():
    config = baseline_config()
    lines = synth_lines(BENCH_LINES, config, seed=SEED)
    trace = Trace("bench", lines, instructions=BENCH_LINES, seed=SEED)
    return lines, trace


def timed(fn):
    # A cyclic collection over the test session's objects would land in
    # whichever side happens to trigger it; collect between timings instead.
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = fn()
        return time.perf_counter() - t0, result
    finally:
        gc.enable()


def test_disabled_overhead_under_two_percent():
    lines, trace = make_inputs()
    sim = Simulator(chunk_lines=CHUNK_LINES)
    assert not obs.METRICS.enabled

    def baseline():
        return run_window(fresh_mapping(), lines, chunk_lines=CHUNK_LINES)

    def instrumented():
        return sim.window_stats(trace, fresh_mapping(), use_cache=False)

    baseline()  # warm caches/page faults once before any timing
    instrumented()

    overhead = None
    for attempt in range(ATTEMPTS):
        ratios = []
        for pair in range(PAIRS):
            if pair % 2:
                dt_inst, (inst_stats, inst_swaps) = timed(instrumented)
                dt_base, (base_stats, base_swaps) = timed(baseline)
            else:
                dt_base, (base_stats, base_swaps) = timed(baseline)
                dt_inst, (inst_stats, inst_swaps) = timed(instrumented)
            ratios.append(dt_inst / dt_base)
        # Same pipeline, same seed: results must agree bit-for-bit.
        assert base_swaps == inst_swaps
        assert_stats_equal(base_stats, inst_stats)
        overhead = statistics.median(ratios) - 1.0
        print(
            f"\nattempt {attempt + 1}: median of {PAIRS} pair ratios, "
            f"overhead {overhead * 100:+.2f}% (pairs {min(ratios):.3f}-{max(ratios):.3f})"
        )
        if overhead < MAX_OVERHEAD:
            break
    assert overhead < MAX_OVERHEAD, (
        f"telemetry-disabled hot path is {overhead * 100:.2f}% slower than "
        f"the uninstrumented replica (budget {MAX_OVERHEAD * 100:.0f}%)"
    )
    # Nothing leaked into the disabled registry.
    assert obs.METRICS.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_enabled_mode_matches_disabled_results():
    lines, trace = make_inputs()
    sim = Simulator(chunk_lines=CHUNK_LINES)
    disabled_stats, disabled_swaps = sim.window_stats(
        trace, fresh_mapping(), use_cache=False
    )

    obs.configure(enabled=True)
    enabled_stats, enabled_swaps = sim.window_stats(
        trace, fresh_mapping(), use_cache=False
    )
    assert enabled_swaps == disabled_swaps
    assert_stats_equal(enabled_stats, disabled_stats)
    snap = obs.METRICS.snapshot()
    assert snap["counters"]["sim.windows|mode=dynamic"] == 1
    assert snap["counters"]["sim.lines"] == BENCH_LINES
    assert obs.validate_snapshot(snap) == []
