"""STREAM memory-bandwidth kernels (McCalpin) for Section 5.13.

Copy, Scale, Add, and Triad stream 1 GiB arrays with LLC MPKI above 50;
the paper uses them to show Rubix stays low-cost even for memory-bound
workloads (2-8% slowdown from the reduced row-buffer hit rate).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.utils.bitops import fitting_uint
from repro.utils.units import GB, LINE_BYTES
from repro.workloads.trace import Trace

#: Kernels and the number of arrays each touches per iteration
#: (destination counted like a source: every array is streamed).
STREAM_KERNELS: Dict[str, int] = {"copy": 2, "scale": 2, "add": 3, "triad": 3}

#: STREAM array size (1 GiB per array, §5.13).
DEFAULT_ARRAY_BYTES = 1 * GB

#: Instructions per element iteration (load/store + FLOP + loop overhead).
#: Kept low -- STREAM's inner loops are tight -- so the LLC MPKI lands
#: above 50, matching the paper's characterization.
_INSTRUCTIONS_PER_ELEMENT = 5


def stream_suite_trace(
    kernel: str,
    *,
    line_addr_bits: int = 28,
    accesses: int = 6_000_000,
    array_bytes: int = DEFAULT_ARRAY_BYTES,
    scale: float = 1.0,
) -> Trace:
    """Generate one window of a STREAM kernel.

    The kernel walks its 2-3 arrays in lockstep: per 64 B line step it
    emits one access to each array (a[i], b[i][, c[i]]), producing the
    interleaved sequential streams a real core's LLC misses form.
    """
    if kernel not in STREAM_KERNELS:
        raise ValueError(f"unknown STREAM kernel '{kernel}'; known: {list(STREAM_KERNELS)}")
    n_arrays = STREAM_KERNELS[kernel]
    accesses = int(accesses * scale)
    if accesses < n_arrays:
        raise ValueError(f"need at least {n_arrays} accesses, got {accesses}")
    array_lines = array_bytes // LINE_BYTES
    total_lines = 1 << line_addr_bits
    if n_arrays * array_lines > total_lines:
        raise ValueError("arrays do not fit in the address space")
    # Arrays placed at equal spacing across the address space.
    spacing = total_lines // n_arrays
    dt = fitting_uint(total_lines - 1)
    bases = np.arange(n_arrays, dtype=dt) * dt(spacing)

    steps = accesses // n_arrays
    index = np.arange(steps, dtype=dt) % dt(array_lines)
    lines = (bases[None, :] + index[:, None]).reshape(-1)
    # One line holds 8 doubles; each element iteration is ~8 instructions.
    instructions = max(1, steps * 8 * _INSTRUCTIONS_PER_ELEMENT)
    return Trace(
        name=f"stream-{kernel}",
        lines=lines,
        instructions=instructions,
        window_s=64e-3 * scale,
        scale=scale,
    )


def stream_suite_names() -> List[str]:
    """Kernel names in canonical order."""
    return list(STREAM_KERNELS)


__all__ = ["STREAM_KERNELS", "stream_suite_trace", "stream_suite_names", "DEFAULT_ARRAY_BYTES"]
