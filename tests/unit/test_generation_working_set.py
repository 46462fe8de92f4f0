"""Working-set guard for SPEC trace generation.

Generating a window can peak above analyzing it, so generation is
pinned too, in bytes per generated line: the traced (``tracemalloc``)
peak of one ``spec_trace`` call.  The generator holds one ``uint32``
buffer of single accesses, shuffled in place, and the ``uint32`` output
(4 B/line each at most), the RNG's ``int8`` slot labels, and index
temporaries bounded by a fixed block size (the cold draw's ``uint64``
values included).  Measured: 9.7 and 7.25 B/line.
"""

import tracemalloc

import pytest

from repro.workloads.spec import spec_trace


@pytest.mark.parametrize(
    "kwargs, bytes_per_line",
    [
        (dict(scale=0.05), 10.5),
        (dict(scale=0.1, cores=8, line_addr_bits=29), 8),
    ],
    ids=["lbm-0.05", "lbm-0.1-8core"],
)
def test_generation_peak_bytes_per_line(kwargs, bytes_per_line):
    spec_trace("lbm", scale=0.01)  # warm imports and caches outside the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = spec_trace("lbm", **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / len(trace) <= bytes_per_line, f"{peak / len(trace):.1f} B/line"
