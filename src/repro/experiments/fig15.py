"""Figure 15: scaled-up 8-core systems with 2 and 4 channels (32 GB)."""

from __future__ import annotations

from repro.experiments.common import (
    BEST_GANG_SIZE_D,
    BEST_GANG_SIZE_S,
    ExperimentResult,
    average,
    get_simulator,
    get_trace,
    make_mapping,
    multichannel_config,
)
from repro.experiments.registry import register

SCHEMES = ["aqua", "srs", "blockhammer"]
T_RH = 128

#: The multi-channel evaluation uses a subset of workloads (§5.12).
FIG15_WORKLOADS = [
    "blender",
    "lbm",
    "gcc",
    "cactuBSSN",
    "mcf",
    "roms",
    "perlbench",
    "xz",
    "deepsjeng",
    "bwaves",
]


@register("fig15", "Multi-channel 8-core systems", default_scale=0.2)
def run_fig15(scale: float = 0.2, workload_limit: int = None) -> ExperimentResult:
    """Average normalized performance for 2- and 4-channel systems."""
    names = FIG15_WORKLOADS[:workload_limit] if workload_limit else FIG15_WORKLOADS
    rows = []
    for channels in (2, 4):
        config = multichannel_config(channels)
        sim = get_simulator(config)
        bits = config.line_addr_bits
        coffee = make_mapping("coffeelake", config)
        for scheme in SCHEMES:
            mappings = {
                "coffeelake": coffee,
                "rubix_s": make_mapping(
                    "rubix-s", config, gang_size=BEST_GANG_SIZE_S[scheme]
                ),
                "rubix_d": make_mapping(
                    "rubix-d", config, gang_size=BEST_GANG_SIZE_D[scheme]
                ),
            }
            row: list = [f"{channels}ch", scheme]
            for label in ("coffeelake", "rubix_s", "rubix_d"):
                perfs = []
                for workload in names:
                    trace = get_trace(
                        workload, scale=scale, cores=8, line_addr_bits=bits
                    )
                    result = sim.run(
                        trace,
                        mappings[label],
                        scheme=scheme,
                        t_rh=T_RH,
                        baseline_mapping=coffee,
                    )
                    perfs.append(result.normalized_performance)
                row.append(round(average(perfs), 3))
            rows.append(row)
    return ExperimentResult(
        experiment_id="fig15",
        title=f"8-core multi-channel normalized performance at T_RH={T_RH}",
        headers=["channels", "scheme", "coffeelake", "rubix_s", "rubix_d"],
        rows=rows,
        notes=[
            "paper: Intel mappings 15%/45%/380% slowdown (AQUA/SRS/BH at 4ch); Rubix 1-4%",
        ],
    )


__all__ = ["run_fig15", "FIG15_WORKLOADS"]
