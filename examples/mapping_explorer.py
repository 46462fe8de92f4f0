#!/usr/bin/env python3
"""Mapping explorer: where do the lines of a page actually land?

Shows, for each mapping, how the 128 lines of two consecutive 4 KB pages
scatter across banks and rows -- the spatial correlation Rubix breaks --
then reruns the Figure-4 kernels (stream / stride-64 / random) under a
sequential and an encrypted mapping to show hot rows appear and vanish.

Run:  python examples/mapping_explorer.py
"""

from collections import Counter

from repro import (
    CoffeeLakeMapping,
    LinearMapping,
    MOPMapping,
    RubixDMapping,
    RubixSMapping,
    SkylakeMapping,
    baseline_config,
)
from repro.dram.config import DRAMConfig
from repro.dram.fast_model import analyze_trace
from repro.mapping.stride import LargeStrideMapping
from repro.utils.units import KB
from repro.workloads.kernels import random_kernel, stream_kernel, stride_kernel


def page_scatter() -> None:
    config = baseline_config()
    mappings = [
        CoffeeLakeMapping(config),
        SkylakeMapping(config),
        MOPMapping(config),
        LargeStrideMapping(config, gang_size=4),
        RubixSMapping(config, gang_size=4),
        RubixDMapping(config, gang_size=4),
    ]
    print("=== two consecutive 4 KB pages (128 lines) per mapping ===")
    print(f"{'mapping':<22s} {'rows used':>9s} {'banks used':>10s}  max lines/row")
    for mapping in mappings:
        rows = Counter()
        banks = set()
        for line in range(128):
            coord = mapping.translate(line)
            rows[config.global_row(coord)] += 1
            banks.add(config.flat_bank(coord))
        print(
            f"{mapping.name:<22s} {len(rows):>9d} {len(banks):>10d}  "
            f"{max(rows.values()):>5d}"
        )
    print(
        "\nCoffee Lake co-locates all 128 lines; Rubix scatters them into"
        "\n32 gangs of 4, each in an unrelated row."
    )


def figure4_kernels() -> None:
    # The Figure-4 system: 4 GB, one bank, 1M rows of 4 KB.
    config = DRAMConfig(channels=1, ranks=1, banks=1, rows_per_bank=1 << 20, row_bytes=4 * KB)
    baseline = LinearMapping(config)
    encrypted = RubixSMapping(config, gang_size=1)
    print("\n=== Figure 4: hot rows (ACT-64+) for a 4 MB footprint ===")
    print(f"{'kernel':<10s} {'sequential':>11s} {'encrypted':>10s}")
    for trace in (stream_kernel(), stride_kernel(), random_kernel()):
        row = [trace.name]
        for mapping in (baseline, encrypted):
            stats = analyze_trace(
                mapping.global_rows(trace.lines),
                rows_per_bank=config.rows_per_bank,
                max_hits=None,
            )
            row.append(stats.hot_rows(64))
        print(f"{row[0]:<10s} {row[1]:>11d} {row[2]:>10d}")


if __name__ == "__main__":
    page_scatter()
    figure4_kernels()
