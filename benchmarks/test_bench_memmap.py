"""Benchmark: 100M-line file-backed trace at chunk-bounded peak RSS.

Writes a 100-million-line raw ``.rtr`` trace (~800 MB) with the
streaming writer, then pushes it through the full dynamic window
pipeline -- memmap load, chunked Rubix-D translation, chunked analysis,
remap advancement -- inside a subprocess, and asserts the subprocess's
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

from repro.workloads.trace_io import RawTraceWriter

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
    from repro.perf.hotpath_bench import run_window
    from repro.workloads.trace_io import load_trace_raw

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
    trace = load_trace_raw(path)           # zero-copy memmap
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
    path = tmp_path / "big.rtr"
    rng = np.random.default_rng(0xB16)
    with RawTraceWriter(
        path, name="memmap-bench", instructions=max(1, N_LINES // 2)
    ) as writer:
        written = 0
        while written < N_LINES:
            n = min(CHUNK_LINES, N_LINES - written)
            writer.append(rng.integers(0, total, size=n, dtype=np.uint64))
            written += n
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
