"""Four-byte and eight-byte line arrays translate and analyze identically.

A :class:`~repro.workloads.trace.Trace` holds ``uint32`` lines whenever
its largest address fits, a memory-mapped trace keeps its on-disk
``uint64``, and the translation layer takes either dtype as it comes.
For every name in ``MAPPING_NAMES``, on the Table 1 baseline and on
Fig. 15's 4-channel system, both forms of one line array must give the
same global rows, mapped traces, Rubix-D v-group counts, window
statistics and cache keys, value for value and dtype for dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rubix_d import RubixDMapping
from repro.dram.config import baseline_config, multichannel_config
from repro.experiments.common import MAPPING_NAMES, make_mapping
from repro.perf.simulator import Simulator
from repro.workloads.trace import Trace, lines_fingerprint
from repro.workloads.trace_io import load_trace, save_trace_raw

CONFIGS = {"baseline": baseline_config(), "fig15-4ch": multichannel_config(4)}


def _twins(lines: np.ndarray):
    """A ``uint32`` trace and its ``uint64`` twin over the same lines."""
    narrow = Trace("dtype", lines, instructions=10 * lines.size)
    wide = Trace("dtype", lines, instructions=10 * lines.size)
    # The form a memory-mapped trace file holds.
    wide.lines = lines.astype(np.uint64)
    assert narrow.lines.dtype == np.uint32
    return narrow, wide


def _assert_identical(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)


@pytest.mark.parametrize("mapping_name", MAPPING_NAMES)
@pytest.mark.parametrize("config_name", list(CONFIGS))
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_uint32_and_uint64_lines_agree(config_name, mapping_name, data):
    config = CONFIGS[config_name]
    top = config.total_lines - 1
    drawn = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=400))
    lines = np.array(drawn + [top, 0, top], dtype=np.uint64)
    narrow, wide = _twins(lines)

    def build():
        return make_mapping(mapping_name, config, gang_size=2, segments=2)

    mapping = build()
    _assert_identical(mapping.global_rows(narrow.lines), mapping.global_rows(wide.lines))
    a, b = mapping.translate_trace(narrow.lines), mapping.translate_trace(wide.lines)
    for field in ("flat_bank", "row", "col"):
        _assert_identical(getattr(a, field), getattr(b, field))
    if isinstance(mapping, RubixDMapping):
        _assert_identical(
            mapping.vgroup_accesses(narrow.lines), mapping.vgroup_accesses(wide.lines)
        )

    # Rubix-D windows advance their remap state: each side gets its own
    # freshly built mapping, and chunks small enough to span several.
    sim = Simulator(config, chunk_lines=128)
    narrow_mapping, wide_mapping = build(), build()
    dynamic = isinstance(narrow_mapping, RubixDMapping) and narrow_mapping.remap_rate > 0
    assert sim._cache_key(narrow, narrow_mapping, dynamic=dynamic) == sim._cache_key(
        wide, wide_mapping, dynamic=dynamic
    )
    (s32, swaps32), (s64, swaps64) = (
        sim.window_stats(trace, m, use_cache=False)
        for trace, m in ((narrow, narrow_mapping), (wide, wide_mapping))
    )
    assert swaps32 == swaps64
    assert (s32.n_accesses, s32.n_activations, s32.n_hits, s32.unique_rows_touched) == (
        s64.n_accesses,
        s64.n_activations,
        s64.n_hits,
        s64.unique_rows_touched,
    )
    _assert_identical(s32.row_ids, s64.row_ids)
    _assert_identical(s32.acts_per_row, s64.acts_per_row)


@given(largest=st.integers(0, 1 << 40))
@settings(max_examples=50, deadline=None)
def test_trace_narrows_exactly_when_the_largest_address_fits(largest):
    trace = Trace("t", np.array([0, largest], dtype=np.uint64), instructions=1)
    assert trace.lines.dtype == (np.uint32 if largest < 1 << 32 else np.uint64)
    assert int(trace.lines[-1]) == largest
    assert trace.fingerprint == lines_fingerprint(np.array([0, largest], dtype=np.uint64))


def _memmapped_round_trip(tmp_path, lines, stored):
    path = save_trace_raw(Trace("t", lines, instructions=1), tmp_path / "t")
    loaded = load_trace(path)
    assert loaded.lines.dtype == stored
    assert not loaded.lines.flags.owndata
    # Re-wrapping the memmapped array (as Trace.head or a caller might)
    # keeps it memory-mapped in its stored dtype rather than copying it
    # into RAM.
    again = Trace("t", loaded.lines, instructions=1)
    assert again.lines.dtype == stored
    assert np.shares_memory(again.lines, loaded.lines)
    assert again.fingerprint == lines_fingerprint(lines)


def test_memmapped_trace_keeps_its_dtype(tmp_path):
    """Addresses that fit 32 bits are stored, and mapped, as uint32."""
    lines = np.arange(1000, dtype=np.uint64) * 3
    lines[-1] = (1 << 32) - 1
    _memmapped_round_trip(tmp_path, lines, np.uint32)


def test_memmapped_wide_trace_keeps_uint64(tmp_path):
    lines = np.arange(1000, dtype=np.uint64) * 3
    lines[-1] = 1 << 32
    _memmapped_round_trip(tmp_path, lines, np.uint64)
