"""Property-based tests of the stats cache's packed entry layout.

Every detail-free entry is stored as 16-bit row-id parts, one run per
65,536-row bucket and counts in the narrowest unsigned dtype.  Whatever
goes in must come back out of both layers -- memory, and disk read by a
fresh instance -- equal in value and dtype.
"""

import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dram.fast_model import TraceStats
from repro.parallel.cache import StatsCache

BUCKET = 1 << 16


@st.composite
def histograms(draw):
    """A sorted unique row-id array and its counts, in documented dtypes."""
    id_dtype = draw(st.sampled_from([np.int32, np.int64]))
    largest = (1 << 31) - 1 if id_dtype is np.int32 else (1 << 40)
    # Ids hugging bucket edges (both sides), plus ids anywhere.
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, largest // BUCKET), st.integers(-3, 3)),
            max_size=40,
        )
    )
    anywhere = draw(st.lists(st.integers(0, largest), max_size=40))
    ids = {bucket * BUCKET + delta for bucket, delta in edges} | set(anywhere)
    row_ids = np.array(sorted(i for i in ids if 0 <= i <= largest), dtype=id_dtype)
    peak = draw(st.sampled_from([1, 255, 256, 65_535, 65_536, 1 << 31]))
    count_dtype = draw(st.sampled_from([np.int32, np.int64]))
    if peak > np.iinfo(count_dtype).max:
        count_dtype = np.int64
    counts = draw(st.lists(st.integers(1, peak), min_size=row_ids.size, max_size=row_ids.size))
    acts = np.array(counts, dtype=count_dtype)
    if acts.size:
        acts[draw(st.integers(0, acts.size - 1))] = peak
    return row_ids, acts


def _assert_equal(got: TraceStats, want: TraceStats) -> None:
    for name in ("n_accesses", "n_activations", "n_hits", "unique_rows_touched"):
        assert getattr(got, name) == getattr(want, name)
    for name in ("row_ids", "acts_per_row"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.act_rows is None and got.act_cols is None


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
        _assert_equal(got[0], stats)
        assert got[1] == swaps
    assert writer.hits == 1
