"""Table 3: how many lines of a hot row contribute activations."""

from __future__ import annotations

from repro.analysis.hotrows import line_contribution_table
from repro.experiments.common import (
    ExperimentResult,
    get_simulator,
    get_trace,
    make_mapping,
)
from repro.experiments.registry import register
from repro.obs.runtime import TRACER

#: Workloads with 100+ hot rows at full scale (Table 3's population).
TABLE3_WORKLOADS = [
    "blender",
    "lbm",
    "gcc",
    "cactuBSSN",
    "mcf",
    "roms",
    "perlbench",
    "xz",
    "nab",
    "namd",
]


@register("table3", "Activating lines per hot row", default_scale=0.25)
def run_table3(scale: float = 0.25, workload_limit: int = None) -> ExperimentResult:
    """Distribution of distinct activating lines across each hot row."""
    sim = get_simulator()
    mapping = make_mapping("coffeelake", sim.config)
    names = TABLE3_WORKLOADS[:workload_limit] if workload_limit else TABLE3_WORKLOADS
    rows = []
    bucket_sums = None
    avg_sum = 0.0
    counted = 0
    for name in names:
        trace = get_trace(name, scale=scale)
        stats, _ = sim.window_stats(trace, mapping, keep_detail=True, use_cache=False)
        with TRACER.span("analysis.line_table", workload=name):
            table = line_contribution_table(
                stats, threshold=64, lines_per_row=sim.config.lines_per_row
            )
        if table.hot_rows == 0:
            continue
        fractions = table.bucket_fractions
        rows.append(
            [
                name,
                table.hot_rows,
                round(100 * fractions["1-31"], 1),
                round(100 * fractions["32-63"], 1),
                round(100 * fractions["64-128"], 1),
                round(table.average_lines, 1),
            ]
        )
        if bucket_sums is None:
            bucket_sums = {k: 0.0 for k in fractions}
        for k, v in fractions.items():
            bucket_sums[k] += v
        avg_sum += table.average_lines
        counted += 1
    if counted:
        rows.append(
            [
                "average",
                "-",
                round(100 * bucket_sums["1-31"] / counted, 1),
                round(100 * bucket_sums["32-63"] / counted, 1),
                round(100 * bucket_sums["64-128"] / counted, 1),
                round(avg_sum / counted, 1),
            ]
        )
    return ExperimentResult(
        experiment_id="table3",
        title="Number of activating lines in hot rows (Coffee Lake mapping)",
        headers=["workload", "hot_rows", "pct_1-32", "pct_32-64", "pct_64-128", "avg_lines"],
        rows=rows,
        notes=[
            "paper: ~98% of hot rows draw from 32-64 lines; average 56 lines",
        ],
    )


__all__ = ["run_table3", "TABLE3_WORKLOADS"]
