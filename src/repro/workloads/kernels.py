"""The illustrative kernels of Figure 4: stream, stride-64, random.

All three sweep a 4 MB footprint with one million accesses; under the
sequential baseline mapping stride-64 and random make every row hot,
while an encrypted mapping eliminates the hot rows entirely.
"""

from __future__ import annotations

import numpy as np

from repro.utils.bitops import fitting_uint
from repro.utils.prng import SplitMix64
from repro.utils.units import MB, LINE_BYTES
from repro.workloads.trace import Trace, draw_lines

#: Figure 4 defaults: 4 MB footprint, 1 M accesses.
DEFAULT_FOOTPRINT_LINES = 4 * MB // LINE_BYTES
DEFAULT_ACCESSES = 1_000_000


def stream_kernel(
    footprint_lines: int = DEFAULT_FOOTPRINT_LINES,
    accesses: int = DEFAULT_ACCESSES,
    *,
    base_line: int = 0,
) -> Trace:
    """Sequential sweep: line 0, 1, 2, ... wrapping over the footprint."""
    _check(footprint_lines, accesses)
    # The access index itself must fit the dtype, not only the lines.
    dt = fitting_uint(base_line + max(footprint_lines, accesses) - 1)
    lines = np.arange(accesses, dtype=dt) % dt(footprint_lines) + dt(base_line)
    return Trace(name="stream", lines=lines, instructions=accesses * 4)


def stride_kernel(
    footprint_lines: int = DEFAULT_FOOTPRINT_LINES,
    accesses: int = DEFAULT_ACCESSES,
    *,
    stride_lines: int = 64,
    base_line: int = 0,
) -> Trace:
    """Stride-64: every access hits a new page; after a full pass the
    stride continues from the next line of each page (Section 4.1)."""
    _check(footprint_lines, accesses)
    if footprint_lines % stride_lines != 0:
        raise ValueError("footprint must be a multiple of the stride")
    pages = footprint_lines // stride_lines
    dt = fitting_uint(base_line + max(footprint_lines, accesses) - 1)
    i = np.arange(accesses, dtype=dt)
    page = i % dt(pages)
    pass_index = (i // dt(pages)) % dt(stride_lines)
    lines = page * dt(stride_lines) + pass_index + dt(base_line)
    return Trace(name=f"stride-{stride_lines}", lines=lines, instructions=accesses * 4)


def random_kernel(
    footprint_lines: int = DEFAULT_FOOTPRINT_LINES,
    accesses: int = DEFAULT_ACCESSES,
    *,
    seed: int = 0xF16,
    base_line: int = 0,
) -> Trace:
    """Uniform random accesses within the footprint."""
    _check(footprint_lines, accesses)
    rng = SplitMix64(seed).numpy_rng()
    lines = np.empty(accesses, dtype=fitting_uint(base_line + footprint_lines - 1))
    draw_lines(rng, footprint_lines, base_line, out=lines)
    return Trace(name="random", lines=lines, instructions=accesses * 4)


def _check(footprint_lines: int, accesses: int) -> None:
    if footprint_lines < 1:
        raise ValueError(f"footprint_lines must be >= 1, got {footprint_lines}")
    if accesses < 1:
        raise ValueError(f"accesses must be >= 1, got {accesses}")


__all__ = [
    "DEFAULT_FOOTPRINT_LINES",
    "DEFAULT_ACCESSES",
    "stream_kernel",
    "stride_kernel",
    "random_kernel",
]
