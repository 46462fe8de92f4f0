"""Unit tests for experiment-harness plumbing (common, registry, runner)."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.dram.config import DRAMConfig, DRAMTiming, baseline_config
from repro.experiments import common
from repro.experiments.campaign import Campaign, MappingSpec
from repro.experiments.common import (
    ExperimentResult,
    cache_footprint_mb,
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

    def test_persist_window_stats_reaches_new_and_existing_simulators(self, tmp_path):
        clear_caches()
        existing = get_simulator()
        variant = replace(baseline_config(), row_bytes=4 * KB)
        with common.persist_window_stats(tmp_path):
            built = get_simulator(variant)
            assert existing.stats_cache.persist_dir == built.stats_cache.persist_dir == tmp_path
        assert existing.stats_cache.persist_dir is built.stats_cache.persist_dir is None
        with common.persist_window_stats(None):
            assert get_simulator(replace(variant, row_bytes=2 * KB)).stats_cache.persist_dir is None
        clear_caches()

    def test_clear_caches(self):
        a = get_trace("xz", scale=0.02)
        clear_caches()
        b = get_trace("xz", scale=0.02)
        assert a is not b


    def test_cache_footprint_counts_held_arrays(self, tmp_path):
        from repro.workloads.trace import Trace
        from repro.workloads.trace_io import save_trace_raw

        clear_caches()
        assert cache_footprint_mb() == {"stats_cache_mb": 0.0, "trace_cache_mb": 0.0}
        trace = get_trace("xz", scale=0.05)
        sim = get_simulator()
        sim.window_stats(trace, make_mapping("coffeelake"))
        footprint = cache_footprint_mb()
        assert footprint["trace_cache_mb"] == round(trace.lines.nbytes / 1e6, 1) > 0
        assert footprint["stats_cache_mb"] == round(sim.stats_cache.nbytes / 1e6, 1)
        assert 0 < sim.stats_cache.nbytes < 4096
        # A memory-mapped trace's pages belong to its file.
        path = save_trace_raw(Trace("big", trace.lines, instructions=1), tmp_path / "big")
        get_trace(f"file:{path}")
        assert cache_footprint_mb()["trace_cache_mb"] == footprint["trace_cache_mb"]
        clear_caches()


class TestTraceCacheBudget:
    """The trace cache is least-recently-used and bounded in bytes."""

    NAMES = ("xz", "gcc", "mcf")

    @pytest.fixture(autouse=True)
    def fresh(self):
        clear_caches()
        yield
        clear_caches()

    @staticmethod
    def cached():
        return [key[0] for key in common._TRACES]

    def test_evicts_least_recently_used_first(self, monkeypatch):
        sizes = [get_trace(name, scale=0.02).lines.nbytes for name in self.NAMES]
        clear_caches()
        # Any two of the three traces fit; all three do not.
        monkeypatch.setattr(common, "TRACE_CACHE_BYTES", sum(sizes) - 1)
        xz = get_trace("xz", scale=0.02)
        get_trace("gcc", scale=0.02)
        assert get_trace("xz", scale=0.02) is xz  # a hit makes xz the newest
        get_trace("mcf", scale=0.02)
        assert self.cached() == ["xz", "mcf"]
        assert get_trace("xz", scale=0.02) is xz
        assert cache_footprint_mb()["trace_cache_mb"] <= common.TRACE_CACHE_BYTES / 1e6

    def test_oversize_trace_is_returned_and_held_alone(self, monkeypatch, tmp_path):
        from repro.workloads.trace import Trace
        from repro.workloads.trace_io import save_trace_raw

        lines = get_trace("xz", scale=0.02).lines
        path = save_trace_raw(Trace("mapped", lines, instructions=1), tmp_path / "mapped")
        clear_caches()
        monkeypatch.setattr(common, "TRACE_CACHE_BYTES", 1)
        mapped = get_trace(f"file:{path}")
        for name in self.NAMES:
            trace = get_trace(name, scale=0.02)
            assert trace.lines.nbytes > common.TRACE_CACHE_BYTES
            # Evicting a memory-mapped trace would free no memory.
            assert self.cached() == [f"file:{path}", name]
        assert get_trace(f"file:{path}") is mapped

    def test_regenerated_trace_equals_the_evicted_one(self, monkeypatch):
        monkeypatch.setattr(common, "TRACE_CACHE_BYTES", 1)
        first = get_trace("xz", scale=0.02)
        fingerprint = first.fingerprint
        get_trace("gcc", scale=0.02)
        assert self.cached() == ["gcc"]
        again = get_trace("xz", scale=0.02)
        assert again is not first
        assert again.lines.dtype == first.lines.dtype
        assert np.array_equal(again.lines, first.lines)
        assert again.instructions == first.instructions
        assert again.fingerprint == fingerprint

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

    def test_paper_suite_names_every_experiment_once(self):
        # scripts/run_paper_suite.py runs each id at its registered
        # default_scale, so every registered experiment is in it once.
        path = Path(__file__).resolve().parents[2] / "scripts" / "run_paper_suite.py"
        spec = importlib.util.spec_from_file_location("run_paper_suite", path)
        suite = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(suite)
        assert sorted(suite.SUITE) == sorted(e.experiment_id for e in list_experiments())

    def test_experiment_count_covers_paper(self):
        # 22 paper artifacts + mixes + 6 ablations + sec73 + actdist.
        assert len(list_experiments()) >= 30
