"""Table 3: how many lines of a hot row contribute activations."""

from __future__ import annotations

from repro.analysis.hotrows import LineContribution, line_contribution_table
from repro.dram.fast_model import activated_lines
from repro.experiments.common import (
    ExperimentResult,
    get_simulator,
    get_trace,
    make_mapping,
)
from repro.experiments.registry import register
from repro.mapping.base import AddressMapping
from repro.obs.runtime import TRACER
from repro.perf.simulator import Simulator
from repro.workloads.trace import Trace

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


def window_line_table(sim: Simulator, mapping: AddressMapping, trace: Trace) -> LineContribution:
    """Table 3's row for one window: translated once, its ACTs' lines counted.

    Only the row ids and columns are kept while the activations are
    found, and only the activations' (row, column) pairs after that.
    """
    mapped = mapping.translate_trace(trace.lines)
    global_row, col = mapped.global_row, mapped.col
    del mapped
    rows, cols = activated_lines(
        global_row,
        col,
        rows_per_bank=sim.config.rows_per_bank,
        lines_per_row=sim.config.lines_per_row,
        max_hits=sim.max_hits,
    )
    del global_row, col
    return line_contribution_table(rows, cols, threshold=64, lines_per_row=sim.config.lines_per_row)


@register("table3", "Activating lines per hot row", default_scale=0.5)
def run_table3(scale: float = 0.5, workload_limit: int = None) -> ExperimentResult:
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
        with TRACER.span("analysis.line_table", workload=name):
            table = window_line_table(sim, mapping, trace)
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


__all__ = ["run_table3", "window_line_table", "TABLE3_WORKLOADS"]
