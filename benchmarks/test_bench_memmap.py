"""Benchmark: 100M-line file-backed trace at chunk-bounded peak RSS.

Writes a 100-million-line raw ``<u8`` ``.rtr`` trace (~800 MB) with
``save_trace_raw`` from a trace built over a scratch ``np.memmap`` (so
the lines are never held in RAM either; the scratch file is deleted once
the trace is written), then pushes it through the full dynamic window
pipeline -- memmap load (which hashes the mapped lines in
page-releasing chunks to verify the stored fingerprint), chunked
Rubix-D translation, chunked analysis, remap advancement -- inside a
subprocess, and asserts the subprocess's
peak RSS stayed far below the file size (i.e. the trace was never
materialized; :func:`repro.workloads.trace.iter_line_chunks` released
consumed pages as the window streamed).

Scale down with ``REPRO_BENCH_MEMMAP_LINES`` for quick runs; the RSS
bound is enforced whenever the file is comfortably larger than the
bound itself.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.workloads.trace import Trace
from repro.workloads.trace_io import save_trace_raw

N_LINES = int(os.environ.get("REPRO_BENCH_MEMMAP_LINES", 100_000_000))
CHUNK_LINES = 1 << 21  # 2M lines / 16 MB per chunk
#: Peak-RSS ceiling for the analysis subprocess.  The trace file is ~8
#: bytes/line, so at the default 100M lines (~800 MB) this bound can
#: only hold if the pipeline truly streams.
RSS_BOUND_MB = 400

_CHILD = textwrap.dedent(
    """
    import resource, sys
    import numpy as np
    from repro.dram.config import baseline_config
    from repro.core.rubix_d import RubixDMapping
    from oracles.window import run_window
    from repro.workloads.trace_io import load_trace

    def peak_rss_kb():
        # VmHWM is the canonical peak-resident figure on Linux; some
        # kernels report ru_maxrss as cumulative faulted pages, which
        # never goes down when madvise() releases them and so cannot
        # measure a streaming pipeline.
        try:
            with open("/proc/self/status") as status:
                for line in status:
                    if line.startswith("VmHWM"):
                        return int(line.split()[1])
        except OSError:
            pass
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    path, chunk_lines = sys.argv[1], int(sys.argv[2])
    trace = load_trace(path)           # zero-copy memmap, verified on open
    config = baseline_config()
    mapping = RubixDMapping(config, gang_size=4, seed=7, remap_rate=0.01)
    stats, swaps = run_window(
        mapping, trace.lines, chunk_lines=chunk_lines
    )
    print(f"{stats.n_activations} {swaps} {peak_rss_kb()}")
    """
)


@pytest.mark.skipif(sys.platform != "linux", reason="madvise page release is POSIX/linux")
def test_100m_line_memmap_window_bounded_rss(tmp_path, benchmark):
    from repro.dram.config import baseline_config

    total = baseline_config().total_lines
    scratch = tmp_path / "lines.u8"
    lines = np.memmap(scratch, dtype="<u8", mode="w+", shape=(N_LINES,))
    rng = np.random.default_rng(0xB16)
    for start in range(0, N_LINES, CHUNK_LINES):
        stop = min(start + CHUNK_LINES, N_LINES)
        lines[start:stop] = rng.integers(0, total, size=stop - start, dtype=np.uint64)
    lines.flush()
    trace = Trace("memmap-bench", lines, instructions=max(1, N_LINES // 2))
    path = save_trace_raw(trace, tmp_path / "big.rtr")
    del trace, lines
    scratch.unlink()
    file_mb = path.stat().st_size / 1e6

    def run():
        out = subprocess.run(
            [sys.executable, "-c", _CHILD, str(path), str(CHUNK_LINES)],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        n_act, swaps, peak_kb = (int(x) for x in out.stdout.split())
        return n_act, swaps, peak_kb / 1024.0

    n_act, swaps, peak_mb = benchmark.pedantic(run, iterations=1, rounds=1)
    print(f"\nfile={file_mb:.0f}MB lines={N_LINES:,} "
          f"activations={n_act:,} swaps={swaps:,} peak_rss={peak_mb:.0f}MB")
    assert n_act > 0 and swaps > 0
    # Only meaningful when the file dwarfs the bound (scaled-down runs
    # still exercise the pipeline, just not the memory claim).
    if file_mb > 1.5 * RSS_BOUND_MB:
        assert peak_mb < RSS_BOUND_MB, (
            f"peak RSS {peak_mb:.0f}MB exceeds {RSS_BOUND_MB}MB bound "
            f"for a {file_mb:.0f}MB trace -- the window is materializing"
        )
