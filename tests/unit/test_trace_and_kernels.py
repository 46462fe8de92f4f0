"""Unit tests for the trace container and Figure-4 kernels."""

import numpy as np
import pytest

from repro.workloads.kernels import random_kernel, stream_kernel, stride_kernel
from repro.workloads.trace import Trace, interleave


class TestTrace:
    def test_mpki(self):
        trace = Trace(name="t", lines=np.arange(100, dtype=np.uint64), instructions=50_000)
        assert trace.mpki == pytest.approx(2.0)

    def test_len(self):
        trace = Trace(name="t", lines=np.arange(7, dtype=np.uint64), instructions=100)
        assert len(trace) == 7

    def test_head(self):
        trace = Trace(name="t", lines=np.arange(100, dtype=np.uint64), instructions=1000)
        head = trace.head(10)
        assert len(head) == 10
        assert head.mpki == pytest.approx(trace.mpki, rel=0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            Trace(name="t", lines=np.arange(3, dtype=np.uint64), instructions=0)
        with pytest.raises(ValueError):
            Trace(name="t", lines=np.arange(3, dtype=np.uint64), instructions=1, scale=0.0)
        with pytest.raises(ValueError):
            Trace(name="t", lines=np.arange(3, dtype=np.uint64), instructions=1).head(0)

    def test_dtype_coerced(self):
        trace = Trace(name="t", lines=np.array([1, 2, 3]), instructions=10)
        assert trace.lines.dtype == np.uint32


class TestInterleave:
    def test_preserves_order_within_stream(self):
        a = np.array([1, 2, 3], dtype=np.uint64)
        b = np.array([10, 20, 30], dtype=np.uint64)
        merged = interleave([a, b])
        pos_a = [np.where(merged == v)[0][0] for v in a]
        pos_b = [np.where(merged == v)[0][0] for v in b]
        assert pos_a == sorted(pos_a)
        assert pos_b == sorted(pos_b)

    def test_total_length(self):
        merged = interleave([np.arange(5), np.arange(7), np.arange(3)])
        assert merged.size == 15

    def test_proportional_mixing(self):
        a = np.zeros(1000, dtype=np.uint64)
        b = np.ones(1000, dtype=np.uint64)
        merged = interleave([a, b])
        # First fifth should contain both streams.
        head = merged[:400]
        assert 100 < head.sum() < 300

    def test_empty_inputs(self):
        assert interleave([]).size == 0
        assert interleave([np.empty(0, dtype=np.uint64)]).size == 0


class TestKernels:
    def test_stream_is_sequential(self):
        trace = stream_kernel(footprint_lines=64, accesses=200)
        assert trace.lines[:64].tolist() == list(range(64))
        assert trace.lines[64] == 0  # wraps

    def test_stride_hits_every_page_first(self):
        trace = stride_kernel(footprint_lines=64 * 16, accesses=32, stride_lines=64)
        assert trace.lines[:16].tolist() == [i * 64 for i in range(16)]
        # Second pass advances within each page.
        assert trace.lines[16] == 1

    def test_stride_validates_footprint(self):
        with pytest.raises(ValueError):
            stride_kernel(footprint_lines=100, accesses=10, stride_lines=64)

    def test_random_within_footprint(self):
        trace = random_kernel(footprint_lines=1000, accesses=5000, seed=3)
        assert int(trace.lines.max()) < 1000
        assert len(np.unique(trace.lines)) > 900

    def test_random_deterministic(self):
        a = random_kernel(accesses=100, seed=5)
        b = random_kernel(accesses=100, seed=5)
        assert np.array_equal(a.lines, b.lines)

    def test_base_line_offset(self):
        trace = stream_kernel(footprint_lines=16, accesses=16, base_line=1000)
        assert int(trace.lines.min()) == 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            stream_kernel(footprint_lines=0)
        with pytest.raises(ValueError):
            random_kernel(accesses=0)
