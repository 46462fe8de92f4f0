"""Property-based tests for workload generation invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.spec import spec_names, spec_trace
from repro.workloads.trace import interleave

SMALL_WORKLOADS = ["xz", "namd", "imagick", "wrf", "povray", "parest"]


@given(
    name=st.sampled_from(SMALL_WORKLOADS),
    scale=st.floats(min_value=0.02, max_value=0.2),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=25, deadline=None)
def test_spec_traces_well_formed(name, scale, seed):
    trace = spec_trace(name, scale=scale, seed=seed)
    assert trace.lines.dtype == np.uint32
    assert len(trace) > 0
    assert int(trace.lines.max()) < (1 << 28)
    assert trace.instructions > 0
    # MPKI stays near the calibration target regardless of scale/seed.
    from repro.workloads.spec import spec_profile

    assert 0.5 * spec_profile(name).mpki < trace.mpki < 2.0 * spec_profile(name).mpki


@given(
    name=st.sampled_from(SMALL_WORKLOADS),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=15, deadline=None)
def test_scale_monotone_in_accesses(name, seed):
    small = spec_trace(name, scale=0.05, seed=seed)
    large = spec_trace(name, scale=0.15, seed=seed)
    assert len(large) > len(small)


@given(
    lengths=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_interleave_is_order_preserving_merge(lengths):
    # Streams carry (stream_id, position) encoded values.
    streams = [
        np.array([i * 1000 + j for j in range(n)], dtype=np.uint64)
        for i, n in enumerate(lengths)
    ]
    merged = interleave(streams)
    assert merged.size == sum(lengths)
    for i, n in enumerate(lengths):
        positions = [np.where(merged == i * 1000 + j)[0][0] for j in range(n)]
        assert positions == sorted(positions)


def test_all_eighteen_generate():
    """Every calibrated profile produces a valid trace at tiny scale."""
    for name in spec_names():
        trace = spec_trace(name, scale=0.02)
        assert len(trace) > 0, name
