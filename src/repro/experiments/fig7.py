"""Figure 7: hot rows per workload for Intel mappings vs Rubix-S (GS4)."""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    get_simulator,
    get_trace,
    make_mapping,
    spec_workloads,
)
from repro.experiments.registry import register

MAPPINGS = ["coffeelake", "skylake", "rubix-s"]


@register("fig7", "Hot rows: Intel mappings vs Rubix-S (GS4)", default_scale=1.0)
def run_fig7(scale: float = 1.0, workload_limit: int = None) -> ExperimentResult:
    """ACT-64+ hot rows per workload under each mapping."""
    sim = get_simulator()
    mappings = {
        "coffeelake": make_mapping("coffeelake", sim.config),
        "skylake": make_mapping("skylake", sim.config),
        "rubix-s": make_mapping("rubix-s", sim.config, gang_size=4),
    }
    rows = []
    sums = {name: 0 for name in MAPPINGS}
    names = spec_workloads(workload_limit)
    for workload in names:
        trace = get_trace(workload, scale=scale)
        row: list = [workload]
        for mapping_name in MAPPINGS:
            stats, _ = sim.window_stats(trace, mappings[mapping_name])
            hot = stats.hot_rows(64)
            row.append(hot)
            sums[mapping_name] += hot
        rows.append(row)
    mean_row = ["mean"] + [round(sums[m] / len(names), 1) for m in MAPPINGS]
    rows.append(mean_row)
    reduction = (
        sums["coffeelake"] / sums["rubix-s"] if sums["rubix-s"] else float("inf")
    )
    return ExperimentResult(
        experiment_id="fig7",
        title="Hot rows (ACT-64+) per workload",
        headers=["workload", "coffeelake", "skylake", "rubix_s_gs4"],
        rows=rows,
        notes=[
            f"Coffee Lake / Rubix-S hot-row reduction: {reduction:.0f}x (paper: ~220x)",
            "paper means: Coffee Lake 7.6K, Skylake 7.2K, Rubix-S(GS4) 33",
        ],
    )


__all__ = ["run_fig7"]
