"""Property-based tests of the stats cache's histogram entries.

Every entry keeps a window's scalars and how many rows reach each
activation count.  Whatever goes in must come back out of both layers
-- memory, and disk read by a fresh instance -- as the same counts in
ascending order and in the dtype that was put, with no row ids, and
every model that reads a window's counts must score the hit exactly as
it scores the window.
"""

import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.distribution import activation_distribution
from repro.dram.config import baseline_config
from repro.dram.fast_model import TraceStats
from repro.parallel.cache import StatsCache
from repro.perf.core_model import PerformanceModel
from repro.perf.simulator import SCHEMES

MODEL = PerformanceModel(baseline_config())


@st.composite
def histograms(draw):
    """A sorted unique row-id array and its counts, in documented dtypes."""
    id_dtype = draw(st.sampled_from([np.int32, np.int64]))
    largest = (1 << 31) - 1 if id_dtype is np.int32 else (1 << 40)
    ids = draw(st.sets(st.integers(0, largest), max_size=60))
    row_ids = np.array(sorted(ids), dtype=id_dtype)
    peak = draw(st.sampled_from([1, 255, 256, 65_535, 65_536, 1 << 31]))
    count_dtype = draw(st.sampled_from([np.int32, np.int64]))
    if peak > np.iinfo(count_dtype).max:
        count_dtype = np.int64
    # Few distinct counts, as in a randomized window, or any counts.
    pool = draw(st.lists(st.integers(1, peak), min_size=1, max_size=4))
    counts = draw(
        st.lists(
            st.sampled_from(pool) | st.integers(1, peak),
            min_size=row_ids.size,
            max_size=row_ids.size,
        )
    )
    acts = np.array(counts, dtype=count_dtype)
    if acts.size:
        acts[draw(st.integers(0, acts.size - 1))] = peak
    return row_ids, acts


def _thresholds(acts: np.ndarray):
    peak = int(acts.max()) if acts.size else 1
    return sorted({1, 2, 64, 128, 255, 256, 512, 1024, 65_536, peak, peak + 1})


def assert_hit_matches(got: TraceStats, want: TraceStats) -> None:
    """A cache hit is ``want`` without ids, its counts in ascending order."""
    for name in ("n_accesses", "n_activations", "n_hits", "unique_rows_touched"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.row_ids is None
    assert got.acts_per_row.dtype == want.acts_per_row.dtype
    assert np.array_equal(got.acts_per_row, np.sort(want.acts_per_row))
    assert got.max_row_activations() == want.max_row_activations()
    for threshold in _thresholds(want.acts_per_row):
        assert got.hot_rows(threshold) == want.hot_rows(threshold)
        assert got.threshold_crossings(threshold) == want.threshold_crossings(threshold)
        assert got.excess_activations(threshold) == want.excess_activations(threshold)
        # T_RH is at least 3, so every scheme's tracker threshold is >= 1.
        t_rh = threshold + 2
        for scheme in SCHEMES:
            assert MODEL.mitigation_load(scheme, got, t_rh) == MODEL.mitigation_load(
                scheme, want, t_rh
            )
    assert activation_distribution(got) == activation_distribution(want)
    assert MODEL.memory_time_s(got) == MODEL.memory_time_s(want)


@given(histogram=histograms(), swaps=st.integers(0, 1 << 40))
@example(histogram=(np.empty(0, np.int32), np.empty(0, np.int32)), swaps=0)
@example(histogram=(np.empty(0, np.int64), np.empty(0, np.int64)), swaps=3)
@settings(max_examples=120, deadline=None)
def test_pack_round_trip_through_memory_and_disk(histogram, swaps):
    row_ids, acts = histogram
    n_activations = int(acts.sum())
    stats = TraceStats(
        n_accesses=n_activations + 17,
        n_activations=n_activations,
        n_hits=17,
        row_ids=row_ids,
        acts_per_row=acts,
        unique_rows_touched=int(row_ids.size),
    )
    with tempfile.TemporaryDirectory() as folder:
        writer = StatsCache(persist_dir=folder)
        writer.put("entry", stats, swaps)
        memory = writer.get("entry")
        disk = StatsCache(persist_dir=folder).get("entry")
    for got in (memory, disk):
        assert got is not None
        assert_hit_matches(got[0], stats)
        assert got[1] == swaps
    assert writer.hits == 1
