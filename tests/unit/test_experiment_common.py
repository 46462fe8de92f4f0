"""Unit tests for experiment-harness plumbing (common, registry, runner)."""

from dataclasses import replace

import pytest

from repro.dram.config import DRAMConfig, DRAMTiming, baseline_config
from repro.experiments.campaign import Campaign, MappingSpec
from repro.experiments.common import (
    ExperimentResult,
    clear_caches,
    get_simulator,
    get_trace,
    make_mapping,
)
from repro.experiments.registry import ExperimentEntry, get_experiment, list_experiments
from repro.utils.units import KB


class TestExperimentResult:
    @pytest.fixture()
    def result(self):
        return ExperimentResult(
            experiment_id="x",
            title="T",
            headers=["a", "b"],
            rows=[["r1", 1.2345], ["r2", 0]],
            notes=["n"],
        )

    def test_format_contains_everything(self, result):
        text = result.format()
        assert "== x: T ==" in text
        assert "r1" in text and "1.23" in text
        assert "note: n" in text

    def test_zero_formats_compactly(self, result):
        assert "\nr2" in result.format() or "r2" in result.format()
        assert "0      " in result.format() or " 0" in result.format()

    def test_column(self, result):
        assert result.column("a") == ["r1", "r2"]
        with pytest.raises(ValueError):
            result.column("missing")

    def test_row_map(self, result):
        assert result.row_map()["r1"][1] == 1.2345
        assert result.row_map("a")["r2"][0] == "r2"


class TestCaches:
    def test_simulator_shared_per_geometry(self):
        config = baseline_config()
        assert get_simulator(config) is get_simulator(config)
        base = get_simulator(config)
        for variant in (
            replace(config, row_bytes=4 * KB),
            replace(config, timing=DRAMTiming(t_rc=90e-9)),
        ):
            sim = get_simulator(variant)
            assert sim is not base
            assert sim.config == variant
            assert get_simulator(variant) is sim

    def test_campaign_record_independent_of_earlier_configs(self):
        def run(config):
            return Campaign(
                workloads=["xz"],
                mappings=[MappingSpec("rubix-d")],
                schemes=["aqua"],
                scale=0.02,
                config=config,
            ).run()

        slow = DRAMConfig(timing=DRAMTiming(t_rc=90e-9))
        clear_caches()
        cold = run(slow)
        clear_caches()
        run(None)
        warm = run(slow)
        assert cold == warm

    def test_trace_cache_by_parameters(self):
        a = get_trace("xz", scale=0.02)
        b = get_trace("xz", scale=0.02)
        c = get_trace("xz", scale=0.03)
        assert a is b
        assert a is not c

    def test_trace_namespace_dispatch(self):
        assert get_trace("mix1", scale=0.02).name == "mix1"
        assert get_trace("stream-copy", scale=0.05).name == "stream-copy"
        assert get_trace("gcc", scale=0.02).name == "gcc"

    def test_clear_caches(self):
        a = get_trace("xz", scale=0.02)
        clear_caches()
        b = get_trace("xz", scale=0.02)
        assert a is not b


class TestMappingFactory:
    def test_all_names_construct(self):
        from repro.experiments.common import MAPPING_NAMES

        config = baseline_config()
        for name in MAPPING_NAMES:
            mapping = make_mapping(name, config)
            assert mapping.translate(0) is not None

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_mapping("quantum", baseline_config())

    def test_gang_size_forwarded(self):
        mapping = make_mapping("rubix-s", baseline_config(), gang_size=2)
        assert mapping.gang_size == 2


class TestRegistry:
    def test_entries_well_formed(self):
        for entry in list_experiments():
            assert isinstance(entry, ExperimentEntry)
            assert 0 < entry.default_scale <= 1.0
            assert entry.title

    def test_lookup(self):
        assert get_experiment("fig7").experiment_id == "fig7"

    def test_experiment_count_covers_paper(self):
        # 22 paper artifacts + mixes + 6 ablations + sec73 + actdist.
        assert len(list_experiments()) >= 30
