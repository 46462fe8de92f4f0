"""Figure 4: the illustrative hot-row model (stream / stride-64 / random).

Runs the three kernels against the Figure-4 system (4 GB, one bank,
4 KB rows, sequential mapping) both *measured* (through the fast DRAM
analyzer) and *analytic* (the binomial model of Section 4.1), under the
baseline and an encrypted (Rubix-S GS1) mapping.
"""

from __future__ import annotations

from repro.analysis.binomial import illustrative_model
from repro.core.rubix_s import RubixSMapping
from repro.dram.config import DRAMConfig
from repro.dram.fast_model import analyze_trace
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import register
from repro.mapping.linear import LinearMapping
from repro.utils.units import KB
from repro.workloads.kernels import random_kernel, stream_kernel, stride_kernel

#: The Figure-4 system: 4 GB, one bank, 1 M rows of 4 KB.
FIG4_CONFIG = DRAMConfig(channels=1, ranks=1, banks=1, rows_per_bank=1 << 20, row_bytes=4 * KB)

HOT_THRESHOLD = 64


def _hot_rows(config: DRAMConfig, mapping, trace) -> int:
    # The illustrative model uses a plain open-page row buffer.
    stats = analyze_trace(
        mapping.global_rows(trace.lines), rows_per_bank=config.rows_per_bank, max_hits=None
    )
    return stats.hot_rows(HOT_THRESHOLD)


@register("fig4", "Illustrative model: hot rows under baseline vs encrypted", default_scale=1.0)
def run_fig4(scale: float = 1.0) -> ExperimentResult:
    """Measured and analytic hot-row counts for the three kernels."""
    config = FIG4_CONFIG
    accesses = int(1_000_000 * scale)
    kernels = {
        "stream": stream_kernel(accesses=accesses),
        "stride-64": stride_kernel(accesses=accesses),
        "random": random_kernel(accesses=accesses),
    }
    baseline = LinearMapping(config)
    encrypted = RubixSMapping(config, gang_size=1, seed=0xF164)

    analytic = illustrative_model(accesses=accesses)
    analytic_base = {"stream": "stream", "stride-64": "stride", "random": "random"}

    rows = []
    for name, trace in kernels.items():
        key = analytic_base[name]
        rows.append(
            [
                name,
                _hot_rows(config, baseline, trace),
                _hot_rows(config, encrypted, trace),
                round(analytic.baseline[key], 1),
                round(analytic.encrypted[key], 2),
            ]
        )
    return ExperimentResult(
        experiment_id="fig4",
        title="Hot rows (ACT-64+), 4 MB footprint on the Figure-4 system",
        headers=["kernel", "baseline", "encrypted", "analytic_baseline", "analytic_encrypted"],
        rows=rows,
        notes=[
            "paper: baseline stream/stride/random = 0 / 1K / 1K; encrypted = 0 / 0 / <1",
        ],
    )


__all__ = ["run_fig4", "FIG4_CONFIG"]
