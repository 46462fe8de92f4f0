"""Property-based tests for workload generation invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles.kernels import hot_component

from repro.workloads import spec
from repro.workloads.spec import _BLOCK, LINES_PER_ROW, spec_names, spec_trace
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


#: Tier lengths around the generator's block: shorter than one, equal
#: to one or two, and straddling a multiple by one line either way.
BLOCK_TOTALS = [0, 1, 17, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 5]


def _run_hot_component(kernel, acts, active_lines, seed):
    rng = np.random.default_rng(seed)
    row_bases = rng.integers(0, 1 << 20, size=acts.size, dtype=np.uint32) * LINES_PER_ROW
    perm = rng.permutation(LINES_PER_ROW).astype(np.uint32)
    out = np.empty(int(acts.sum()), dtype=np.uint32)
    kernel(rng, row_bases, acts, active_lines, perm, out)
    return out, rng.integers(0, 1 << 30)


@given(
    counts=st.lists(st.integers(min_value=0, max_value=40), max_size=30),
    total=st.sampled_from(BLOCK_TOTALS) | st.integers(min_value=0, max_value=3 * _BLOCK),
    filler_at=st.integers(min_value=0, max_value=30),
    active_lines=st.integers(min_value=1, max_value=LINES_PER_ROW),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(counts=[], total=2 * _BLOCK + 5, filler_at=0, active_lines=63, seed=1)
@example(counts=[], total=_BLOCK, filler_at=0, active_lines=1, seed=2)
@example(counts=[0, 0, 3, 0, 5, 0], total=_BLOCK + 1, filler_at=3, active_lines=40, seed=3)
@example(counts=[0, 7, 0], total=0, filler_at=0, active_lines=40, seed=4)
@settings(max_examples=60, deadline=None)
def test_hot_component_matches_searchsorted_oracle(counts, total, filler_at, active_lines, seed):
    """The per-block ``np.repeat`` hot tier writes the oracle's lines
    and leaves the generator where the oracle does.  One filler row
    brings the tier to ``total`` accesses, so single-row tiers, zero-count
    rows and every position relative to the block edges occur."""
    filler = max(0, total - sum(counts))
    counts.insert(filler_at % (len(counts) + 1), filler)
    acts = np.array(counts, dtype=np.int64)
    got, got_next = _run_hot_component(spec._hot_component, acts, active_lines, seed)
    want, want_next = _run_hot_component(hot_component, acts, active_lines, seed)
    assert got.tobytes() == want.tobytes()
    assert got_next == want_next


@pytest.mark.parametrize("seed", [2024, 7])
def test_spec_traces_match_the_searchsorted_hot_tier(seed, monkeypatch):
    """Every calibrated trace is byte-identical to a build whose hot
    tiers run on the oracle."""
    got = {name: spec_trace(name, scale=0.05, seed=seed).lines for name in spec_names()}
    monkeypatch.setattr(spec, "_hot_component", hot_component)
    for name in spec_names():
        want = spec_trace(name, scale=0.05, seed=seed).lines
        assert got[name].dtype == want.dtype, name
        assert got[name].tobytes() == want.tobytes(), name
