"""Mixed workloads: 16 four-way combinations of SPEC workloads (§3.2).

Each mix runs four (deterministically drawn) SPEC workloads, one per
core, in disjoint quarters of the address space, with their streams
merged in controller order.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.utils.bitops import fitting_uint
from repro.utils.prng import SplitMix64, derive_key
from repro.workloads.spec import spec_names, spec_trace
from repro.workloads.trace import Trace, interleave

#: Number of mixed workloads the paper evaluates.
MIX_COUNT = 16


def mix_names() -> List[str]:
    """Names mix1..mix16."""
    return [f"mix{i}" for i in range(1, MIX_COUNT + 1)]


def mix_profile(name: str, *, seed: int = 2024) -> List[str]:
    """The four SPEC members of a mix (deterministic in name and seed)."""
    if not name.startswith("mix"):
        raise ValueError(f"mix names look like 'mix3', got '{name}'")
    index = int(name[3:])
    if not 1 <= index <= MIX_COUNT:
        raise ValueError(f"mix index must be in [1, {MIX_COUNT}], got {index}")
    rng = SplitMix64(derive_key(seed, f"mix/{index}", 64))
    pool = spec_names()
    return [pool[rng.next_below(len(pool))] for _ in range(4)]


def mix_trace(
    name: str,
    *,
    line_addr_bits: int = 28,
    scale: float = 1.0,
    seed: int = 2024,
) -> Trace:
    """Generate one window of a four-way mix.

    Each member generates its single-core stream inside a private
    quarter of the address space (modeling OS placement), then the four
    streams merge proportionally.
    """
    members = mix_profile(name, seed=seed)
    quarter_bits = line_addr_bits - 2
    dt = fitting_uint((1 << line_addr_bits) - 1)
    streams = []
    instructions = 0
    for core, member in enumerate(members):
        trace = spec_trace(
            member,
            line_addr_bits=quarter_bits,
            scale=scale,
            cores=1,
            seed=derive_key(seed, f"{name}/core{core}", 64),
        )
        stream = trace.lines.astype(dt, copy=False)
        stream |= dt(core << quarter_bits)
        streams.append(stream)
        instructions += trace.instructions
    lines = interleave(streams)
    return Trace(
        name=name,
        lines=lines,
        instructions=instructions,
        window_s=64e-3 * scale,
        scale=scale,
        seed=seed,
    )


__all__ = ["MIX_COUNT", "mix_names", "mix_profile", "mix_trace"]
