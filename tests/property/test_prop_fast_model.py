"""Property-based tests for the fast trace analyzer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.fast_model import analyze_trace

traces = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=15)),
    min_size=1,
    max_size=300,
)


def _reference(accesses, max_hits):
    """Oracle: per-bank sequential row-buffer simulation in plain Python."""
    open_row = {}
    hits_since = {}
    activations = 0
    hits = 0
    acts_per_row = {}
    for bank, row in accesses:
        if open_row.get(bank) == row and (max_hits is None or hits_since[bank] < max_hits):
            hits += 1
            hits_since[bank] += 1
        else:
            activations += 1
            open_row[bank] = row
            hits_since[bank] = 1
            key = bank * 1024 + row
            acts_per_row[key] = acts_per_row.get(key, 0) + 1
    return activations, hits, acts_per_row


@given(trace=traces, max_hits=st.sampled_from([None, 1, 2, 16]))
@settings(max_examples=150, deadline=None)
def test_matches_reference_simulation(trace, max_hits):
    banks = np.array([b for b, _ in trace], dtype=np.uint64)
    rows = np.array([r for _, r in trace], dtype=np.uint64)
    stats = analyze_trace(banks * 1024 + rows, rows_per_bank=1024, max_hits=max_hits)
    ref_acts, ref_hits, ref_hist = _reference(trace, max_hits)
    assert stats.n_activations == ref_acts
    assert stats.n_hits == ref_hits
    assert dict(zip(stats.row_ids.tolist(), stats.acts_per_row.tolist())) == ref_hist


@given(trace=traces)
@settings(max_examples=80, deadline=None)
def test_accounting_invariants(trace):
    banks = np.array([b for b, _ in trace], dtype=np.uint64)
    rows = np.array([r for _, r in trace], dtype=np.uint64)
    stats = analyze_trace(banks * 1024 + rows, rows_per_bank=1024)
    # Conservation: every access is a hit or an activation.
    assert stats.n_hits + stats.n_activations == stats.n_accesses
    # The histogram sums to the activation count.
    assert int(stats.acts_per_row.sum()) == stats.n_activations
    # Hot rows are monotone in the threshold.
    assert stats.hot_rows(1) >= stats.hot_rows(2) >= stats.hot_rows(100)
    # Every touched row with an activation appears in the histogram.
    assert stats.hot_rows(1) == len(stats.row_ids)
    assert stats.unique_rows_touched >= len(stats.row_ids)


@given(trace=traces, threshold=st.integers(min_value=1, max_value=8))
@settings(max_examples=80, deadline=None)
def test_crossings_and_excess_consistent(trace, threshold):
    banks = np.array([b for b, _ in trace], dtype=np.uint64)
    rows = np.array([r for _, r in trace], dtype=np.uint64)
    stats = analyze_trace(banks * 1024 + rows, rows_per_bank=1024)
    crossings = stats.threshold_crossings(threshold)
    excess = stats.excess_activations(threshold)
    # floor(A/t) <= A/t and excess = sum(max(0, A-t)).
    manual_crossings = sum(int(a) // threshold for a in stats.acts_per_row)
    manual_excess = sum(max(0, int(a) - threshold) for a in stats.acts_per_row)
    assert crossings == manual_crossings
    assert excess == manual_excess
