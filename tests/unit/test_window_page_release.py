"""A window over a memory-mapped ``.rtr`` trace drops the file's pages as it goes.

The trace cache charges a memory-mapped trace nothing, which holds only
if no window leaves the file resident.  Each case saves one ≥2M-line
window as ``.rtr``, opens it (zero-copy ``np.memmap``), runs one
uncached ``Simulator.window_stats`` over it and then reads the
resident size of the file's own mapping (the one holding the trace's
data) from ``/proc/self/smaps``.
The process-wide ``RssFile`` would not do: it also grows as library
pages are faulted in.  Static windows release through
``AddressMapping.global_rows`` and Rubix-D windows through the chunk
loop, ``global_rows`` and ``RubixDMapping.vgroup_accesses``, all by
:func:`repro.workloads.trace.iter_line_chunks`; whatever stays mapped
must be a few 64 Ki-line blocks, not the 8 MB file.  The statistics
must equal the in-memory trace's bit for bit.
"""

import sys

import numpy as np
import pytest

from oracles.window import assert_stats_equal, synth_lines
from repro.core.rubix_d import RubixDMapping
from repro.core.rubix_s import RubixSMapping
from repro.dram.config import baseline_config
from repro.mapping.intel import CoffeeLakeMapping
from repro.perf.simulator import Simulator
from repro.workloads.trace import Trace
from repro.workloads.trace_io import load_trace, save_trace_raw

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="reads the file's mapping from /proc/self/smaps"
)

#: Lines in the saved window: over 2M, and not a whole number of blocks.
LINES = (1 << 21) + 12_345

#: Bytes of one ``global_rows`` block of four-byte lines.
BLOCK_BYTES = (1 << 16) * 4

#: What the file's mapping may keep resident after a window.
RESIDENT_BOUND = 4 * BLOCK_BYTES


def _resident_bytes(lines: np.ndarray) -> int:
    """Resident bytes of the mapping that holds ``lines``' data, from ``/proc/self/smaps``."""
    address = lines.__array_interface__["data"][0]
    inside = None
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            head = line.split(maxsplit=1)[0]
            if not head.endswith(":"):
                start, _, end = head.partition("-")
                inside = int(start, 16) <= address < int(end, 16)
            elif inside and head == "Rss:":
                return int(line.split()[1]) * 1024
    raise AssertionError(f"no mapping holds address {address:#x}")


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """``(in-memory trace, path of its .rtr copy)``."""
    config = baseline_config()
    trace = Trace("page-release", synth_lines(LINES, config, seed=0x9A6E), instructions=LINES)
    assert trace.lines.dtype == np.uint32
    path = save_trace_raw(trace, tmp_path_factory.mktemp("rtr") / "window.rtr")
    return trace, path


@pytest.mark.parametrize(
    "build, chunk_lines",
    [
        (lambda config: CoffeeLakeMapping(config), 1 << 22),
        (lambda config: RubixSMapping(config, gang_size=1), 1 << 22),
        (lambda config: RubixDMapping(config, gang_size=1), 1 << 22),
        (lambda config: RubixDMapping(config, gang_size=1), 1 << 19),
    ],
    ids=["coffeelake", "rubix-s-gs1", "rubix-d-gs1", "rubix-d-gs1-chunked"],
)
def test_window_releases_file_pages(saved, build, chunk_lines):
    trace, path = saved
    sim = Simulator(chunk_lines=chunk_lines)
    expected, expected_swaps = sim.window_stats(trace, build(sim.config), use_cache=False)

    file_trace = load_trace(path)
    stats, swaps = sim.window_stats(file_trace, build(sim.config), use_cache=False)
    resident = _resident_bytes(file_trace.lines)

    assert_stats_equal(expected, stats, dtypes="same")
    assert swaps == expected_swaps
    assert resident <= RESIDENT_BOUND, (
        f"{resident / 2**20:.1f} MiB of the {path.stat().st_size / 2**20:.1f} MiB file"
        " stayed resident after the window"
    )


def test_smaps_reading_sees_touched_pages(saved):
    """The measurement itself: reading every line faults the whole file in."""
    _, path = saved
    file_trace = load_trace(path)
    assert _resident_bytes(file_trace.lines) <= RESIDENT_BOUND
    int(file_trace.lines.sum(dtype=np.uint64))
    assert _resident_bytes(file_trace.lines) >= 4 * LINES
