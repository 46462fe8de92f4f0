"""Executable checks for the docs/TUTORIAL.md code paths.

Documentation that drifts is worse than none: each tutorial section's
snippet is replayed here (at reduced scale) so the documented API and
the documented *outcomes* stay true.
"""

import pytest

from repro import (
    AQUA,
    CoffeeLakeMapping,
    RubixDMapping,
    RubixSMapping,
    Simulator,
    TRR,
    baseline_config,
    spec_trace,
)
from repro.analysis.reverse_engineering import (
    linearity_score,
    recover_linear_bank_masks,
)
from repro.analysis.security import verify_mitigation
from repro.core.remap_engine import XorRemapEngine
from repro.dram.config import DRAMConfig
from repro.dram.protocol import ProtocolEngine
from repro.experiments.campaign import Campaign, MappingSpec
from repro.workloads.attacks import half_double_attack
from repro.workloads.trace_io import load_trace, save_trace_raw


@pytest.fixture(scope="module")
def config():
    return baseline_config()


@pytest.fixture(scope="module")
def simulator(config):
    return Simulator(config)


def test_section1_geometry(config):
    assert config.total_rows == 2097152
    assert config.line_addr_bits == 28
    assert config.lines_per_row == 128
    mapping = CoffeeLakeMapping(config)
    first = mapping.translate(0)
    last = mapping.translate(127)
    assert config.global_row(first) == config.global_row(last)


def test_section2_and_3_headline(config, simulator):
    mapping = CoffeeLakeMapping(config)
    trace = spec_trace("gcc", scale=0.1)
    stats, _ = simulator.window_stats(trace, mapping)
    assert 0.3 < stats.hit_rate < 0.6
    assert stats.hot_rows(64) > 1000

    rubix = RubixSMapping(config, gang_size=4)
    for scheme in ("aqua", "srs", "blockhammer"):
        base = simulator.run(trace, mapping, scheme=scheme, t_rh=128)
        best = simulator.run(trace, rubix, scheme=scheme, t_rh=128)
        assert base.slowdown_pct > 5 * best.slowdown_pct

    breakdown = simulator.run(
        trace, mapping, scheme="blockhammer", t_rh=128
    ).breakdown()
    assert breakdown["mitigation"] > 0.5


def test_section4_rubix_d(config, simulator):
    dynamic = RubixDMapping(config, gang_size=4, remap_rate=0.01)
    trace = spec_trace("gcc", scale=0.1)
    result = simulator.run(trace, dynamic, scheme="aqua", t_rh=128)
    assert result.remap_swaps > 0
    assert dynamic.storage_bytes == 512

    engine = XorRemapEngine(nbits=3, seed=7)
    before = engine.physical_layout().tolist()
    engine.remap_steps(4)
    assert engine.physical_layout().tolist() != before


def test_section5_builder(tmp_path):
    trace = spec_trace("xz", scale=0.05)
    path = save_trace_raw(trace, tmp_path / "traces" / "xz")
    assert path.name == "xz.rtr"
    assert load_trace(path).fingerprint == trace.fingerprint

    grid = dict(
        mappings=[MappingSpec("coffeelake"), MappingSpec("rubix-s", gang_size=4)],
        schemes=["srs"],
        thresholds=[128],
        scale=0.05,
    )
    persisted = Campaign(workloads=[f"file:{path}"], **grid).run()
    generated = Campaign(workloads=["xz"], **grid).run()
    assert [r["status"] for r in persisted] == ["ok", "ok"]
    for record in persisted + generated:
        record.pop("workload")
    assert persisted == generated


def test_section6_campaign():
    records = Campaign(
        workloads=["xz"],
        mappings=[MappingSpec("coffeelake"), MappingSpec("rubix-s", gang_size=4)],
        schemes=["aqua"],
        thresholds=[128],
        scale=0.05,
    ).run()
    assert len(records) == 2
    assert {r["mapping"] for r in records} == {"coffeelake", "rubix-s-gs4"}


def test_section6_resilient_campaign(tmp_path):
    from repro.experiments.common import get_simulator
    from repro.resilience.faults import FaultPlan, FaultySimulator

    campaign = Campaign(
        workloads=["xz", "namd"],
        mappings=[MappingSpec("coffeelake"), MappingSpec("rubix-s", gang_size=4)],
        schemes=["blockhammer"],
        thresholds=[128],
        scale=0.05,
    )
    plan = FaultPlan(fail_cells=("namd|Rubix-S",))
    records = campaign.run(
        journal=tmp_path / "sweep.jsonl",
        simulator=FaultySimulator(get_simulator(), plan),
    )
    statuses = {(r["workload"], r["mapping"]): r["status"] for r in records}
    assert statuses[("namd", "rubix-s-gs4")] == "error"
    assert sum(1 for s in statuses.values() if s == "ok") == 3

    # The journal makes the sweep resumable without re-simulating.
    resumed = Campaign(
        workloads=["xz", "namd"],
        mappings=[MappingSpec("coffeelake"), MappingSpec("rubix-s", gang_size=4)],
        schemes=["blockhammer"],
        thresholds=[128],
        scale=0.05,
    )
    resumed.run(resume_from=tmp_path / "sweep.jsonl")
    assert resumed.cells_executed == 0


def test_section6_parallel_campaign(tmp_path):
    def grid():
        return Campaign(
            workloads=["xz"],
            mappings=[MappingSpec("coffeelake"), MappingSpec("rubix-s", gang_size=4)],
            schemes=["aqua"],
            thresholds=[128],
            scale=0.05,
        )

    serial = grid().run()
    parallel = grid().run(workers=2, stats_cache_dir=tmp_path / "stats")
    assert parallel == serial  # the tutorial's headline claim

    # A per-process simulator cannot cross the pool boundary (documented
    # caveat in the parallel section).
    from repro.experiments.common import get_simulator

    with pytest.raises(ValueError, match="simulator="):
        grid().run(workers=2, simulator=get_simulator())


def test_section6_telemetry(tmp_path):
    from repro import obs
    from repro.experiments.common import clear_caches

    clear_caches()  # warm stats caches would short-circuit sim.* metrics
    obs.reset()
    obs.configure(enabled=True, telemetry_dir=tmp_path / "sweep")
    manifest = obs.RunManifest.create("tutorial-sweep", config={"scale": 0.05})
    try:
        Campaign(
            workloads=["xz"],
            mappings=[MappingSpec("coffeelake")],
            schemes=["aqua"],
            thresholds=[128],
            scale=0.05,
        ).run()
        obs.write_telemetry(manifest=manifest)
        summary = obs.summarize_dir(tmp_path / "sweep")
    finally:
        obs.reset()
    assert "tutorial-sweep" in summary
    assert (tmp_path / "sweep" / "metrics.jsonl").exists()
    assert obs.validate_telemetry_dir(tmp_path / "sweep") == []


def test_section7_security():
    small = DRAMConfig(channels=1, ranks=1, banks=4, rows_per_bank=8192)
    cl = CoffeeLakeMapping(small)
    attack = half_double_attack(cl, victim_row=1000, far_activations=20000)
    assert not verify_mitigation(small, cl, TRR(small, 128), attack, t_rh=128).secure
    assert verify_mitigation(small, cl, AQUA(small, 128), attack, t_rh=128).secure

    model = recover_linear_bank_masks(cl, samples=1024)
    assert linearity_score(cl, model, samples=512) == pytest.approx(1.0)
    rubix = RubixSMapping(small, gang_size=4)
    model = recover_linear_bank_masks(rubix, samples=1024)
    assert linearity_score(rubix, model, samples=512) < 0.4


def test_section8_attacks(config, simulator):
    from repro.workloads.attacks import double_sided_attack

    cl = CoffeeLakeMapping(config)
    attack = double_sided_attack(cl, victim_row=1000)

    baseline, _ = simulator.window_stats(attack, cl)
    rubix, _ = simulator.window_stats(attack, RubixSMapping(config, gang_size=4))
    assert baseline.hot_rows(512) == 2
    assert rubix.hot_rows(512) == 0
    # The aggressor pair lands in different banks under Rubix-S, so the
    # alternation stops forcing an ACT per access.
    assert (baseline.n_activations, rubix.n_activations) == (4000, 250)


def test_section9_commands():
    small = DRAMConfig(channels=1, ranks=1, banks=4, rows_per_bank=8192)
    cl = CoffeeLakeMapping(small)
    engine = ProtocolEngine(small, collect_commands=True)
    engine.access(cl.translate(0), 0.0)
    engine.access(cl.translate(1), 50e-9)
    kinds = [c.kind.value for c in engine.commands]
    assert kinds == ["ACT", "RD", "RD"]
