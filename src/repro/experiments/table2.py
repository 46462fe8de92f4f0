"""Table 2: workload characteristics (MPKI, unique rows, hot rows)."""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    get_simulator,
    get_trace,
    make_mapping,
    spec_workloads,
)
from repro.experiments.registry import register
from repro.workloads.spec import spec_profile


@register("table2", "Workload characteristics under the baseline mapping", default_scale=1.0)
def run_table2(scale: float = 1.0, workload_limit: int = None) -> ExperimentResult:
    """Measured MPKI, unique rows, ACT-64+ and ACT-512+ per workload.

    Counts scale linearly with the trace scale factor; the table reports
    both the measured value and the paper's target (at full scale).
    """
    sim = get_simulator()
    mapping = make_mapping("coffeelake", sim.config)
    rows = []
    totals = {"mpki": 0.0, "unique": 0, "hot64": 0, "hot512": 0}
    names = spec_workloads(workload_limit)
    for name in names:
        trace = get_trace(name, scale=scale)
        stats, _ = sim.window_stats(trace, mapping)
        profile = spec_profile(name)
        hot64 = stats.hot_rows(64)
        hot512 = stats.hot_rows(512)
        rows.append(
            [
                name,
                round(trace.mpki, 2),
                stats.unique_rows_touched,
                hot64,
                hot512,
                int(profile.hot64_rows * scale),
                int(profile.hot512_rows * scale),
            ]
        )
        totals["mpki"] += trace.mpki
        totals["unique"] += stats.unique_rows_touched
        totals["hot64"] += hot64
        totals["hot512"] += hot512
    count = len(names)
    rows.append(
        [
            "average",
            round(totals["mpki"] / count, 2),
            totals["unique"] // count,
            totals["hot64"] // count,
            totals["hot512"] // count,
            "-",
            "-",
        ]
    )
    return ExperimentResult(
        experiment_id="table2",
        title="Workload characteristics (64 ms window, Coffee Lake mapping)",
        headers=[
            "workload",
            "mpki",
            "unique_rows",
            "act64+",
            "act512+",
            "target_act64+",
            "target_act512+",
        ],
        rows=rows,
        notes=[
            f"paper averages at full scale: 9528 ACT-64+, 206 ACT-512+ (scale here {scale})",
        ],
    )


__all__ = ["run_table2"]
