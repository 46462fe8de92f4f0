"""Integration tests for the telemetry layer over real campaigns.

The load-bearing contract: *semantic* metric totals (``campaign.*``,
``mitigation.*``, ``resilience.*``) are identical between a serial run
and a process-pool run of the same grid -- workers ship per-cell delta
snapshots and the parent merges them.  Operational families (cache
hits, span counts) legitimately differ with process topology and are
excluded from the equality check.
"""

import json
import os

import pytest

from repro import obs
from repro.experiments import common
from repro.experiments.campaign import Campaign, MappingSpec
from repro.resilience.journal import CheckpointJournal


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Pristine telemetry state around every test (and no env leakage)."""
    saved = {
        key: os.environ.pop(key, None)
        for key in (obs.TELEMETRY_DIR_ENV, obs.TELEMETRY_ENV)
    }
    obs.reset()
    try:
        yield
    finally:
        obs.reset()
        for key, value in saved.items():
            if value is not None:
                os.environ[key] = value


def tiny_campaign():
    return Campaign(
        workloads=["xz", "lbm"],
        mappings=[
            MappingSpec("coffeelake"),
            MappingSpec("rubix-d", gang_size=4, remap_rate=0.01),
        ],
        schemes=["aqua"],
        thresholds=[256],
        scale=0.05,
    )  # 2 x 2 x 1 x 1 = 4 cells


def run_with_telemetry(**run_kwargs):
    common.clear_caches()
    obs.reset()
    obs.configure(enabled=True)
    records = tiny_campaign().run(**run_kwargs)
    snapshot = obs.METRICS.snapshot()
    obs.reset()
    return records, snapshot


class TestSerialParallelEquality:
    def test_semantic_totals_identical_serial_vs_workers4(self):
        serial_records, serial_snap = run_with_telemetry()
        parallel_records, parallel_snap = run_with_telemetry(workers=4)
        assert serial_records == parallel_records
        semantic_serial = obs.filter_snapshot(serial_snap, obs.SEMANTIC_PREFIXES)
        semantic_parallel = obs.filter_snapshot(parallel_snap, obs.SEMANTIC_PREFIXES)
        assert semantic_serial == semantic_parallel

    def test_semantic_counters_actually_fired(self):
        _, snap = run_with_telemetry()
        counters = snap["counters"]
        assert counters["campaign.cells|status=ok"] == 4
        assert counters["resilience.cells|status=ok"] == 4
        assert counters["mitigation.invocations|scheme=aqua"] == pytest.approx(
            counters["campaign.mitigations|scheme=aqua"]
        )
        assert counters["campaign.activations"] > 0
        assert counters["campaign.remap_swaps"] > 0

    def test_parallel_run_reports_pool_metrics(self):
        _, snap = run_with_telemetry(workers=2)
        assert snap["counters"]["parallel.completions"] == 4
        assert snap["gauges"]["parallel.workers"] == 2
        assert snap["gauges"]["parallel.queue_depth"] == 0
        # Each worker's campaign.cell span merges into the parent.
        assert snap["histograms"]["span.seconds|span=campaign.cell"]["count"] == 4

    def test_snapshots_validate_against_schema(self):
        _, serial_snap = run_with_telemetry()
        _, parallel_snap = run_with_telemetry(workers=2)
        assert obs.validate_snapshot(serial_snap) == []
        assert obs.validate_snapshot(parallel_snap) == []


class TestJournalTimings:
    def test_serial_journal_records_durations(self, tmp_path):
        common.clear_caches()
        path = tmp_path / "serial.jsonl"
        tiny_campaign().run(journal=path)
        timings = CheckpointJournal(path).timings()
        assert len(timings) == 4
        for timing in timings.values():
            assert timing["duration_s"] > 0
            assert timing["worker_id"] == f"p{os.getpid()}"

    def test_parallel_journal_records_worker_ids(self, tmp_path):
        common.clear_caches()
        path = tmp_path / "parallel.jsonl"
        tiny_campaign().run(workers=2, journal=path)
        timings = CheckpointJournal(path).timings()
        assert len(timings) == 4
        workers = {timing["worker_id"] for timing in timings.values()}
        assert all(worker.startswith("p") for worker in workers)


class TestProfiledPool:
    def test_workers_write_profiles_under_their_pid(self, tmp_path):
        from repro.obs.profile import PROFILER

        common.clear_caches()
        obs.configure(enabled=True, telemetry_dir=tmp_path)
        manifest = obs.RunManifest.create("profiled-pool", config={"workers": 2})
        journal = tmp_path / "cells.jsonl"
        PROFILER.enable()
        try:
            tiny_campaign().run(workers=2, mp_context="fork", journal=journal)
            obs.write_telemetry(manifest=manifest)
        finally:
            PROFILER.disable()
            PROFILER.clear()
        workers = {
            timing["worker_id"].removeprefix("p")
            for timing in CheckpointJournal(journal).timings().values()
        }
        profiled = {
            path.name.rsplit("-", 1)[1].removesuffix(".collapsed"): path
            for path in tmp_path.glob("profile-*.collapsed")
        }
        assert str(os.getpid()) not in workers
        assert workers & set(profiled)
        assert obs.validate_telemetry_dir(tmp_path, required=()) == []


class TestTelemetryArtifacts:
    def test_write_telemetry_emits_validating_artifacts(self, tmp_path):
        common.clear_caches()
        obs.configure(enabled=True, telemetry_dir=tmp_path)
        manifest = obs.RunManifest.create("integration-test", config={"cells": 4})
        tiny_campaign().run()
        written = obs.write_telemetry(manifest=manifest)
        assert set(written) == {"metrics", "prometheus", "manifest"}
        assert obs.validate_telemetry_dir(tmp_path) == []
        # Event streams captured the span hierarchy.
        events = []
        for path in tmp_path.glob("events-*.jsonl"):
            events += [json.loads(line) for line in path.read_text().splitlines()]
        span_paths = {e["path"] for e in events if e["type"] == "span"}
        assert any("campaign.run/campaign.cell" in p for p in span_paths)

    def test_prometheus_snapshot_readable(self, tmp_path):
        common.clear_caches()
        obs.configure(enabled=True, telemetry_dir=tmp_path)
        tiny_campaign().run()
        obs.write_telemetry()
        text = (tmp_path / "metrics.prom").read_text()
        assert 'repro_campaign_cells_total{status="ok"} 4' in text


class TestRunnerCLI:
    def test_telemetry_dir_flag_writes_artifacts(self, tmp_path, capsys):
        from repro.experiments.runner import main

        target = tmp_path / "telemetry"
        assert main(["run", "fig1a", "--telemetry-dir", str(target)]) == 0
        out = capsys.readouterr().out
        assert "fig1a" in out
        assert (target / "manifest.json").exists()
        assert (target / "metrics.jsonl").exists()
        assert (target / "metrics.prom").exists()
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["command"] == "experiments.run"
        assert manifest["finished_at"] is not None
        assert manifest["metrics"]["counters"]["runner.experiments|status=ok"] == 1
        # fig1a is data-only, so skip the campaign-metrics floor.
        assert obs.validate_telemetry_dir(target, required=()) == []

    def test_report_subcommand_summarizes(self, tmp_path, capsys):
        from repro.experiments.runner import main

        target = tmp_path / "telemetry"
        assert main(["run", "fig1a", "--telemetry-dir", str(target)]) == 0
        capsys.readouterr()
        assert main(["report", "--telemetry", str(target)]) == 0
        out = capsys.readouterr().out
        assert "experiments.run" in out
        assert "runner.experiment" in out

    def test_simulator_spans_nest_under_the_experiment(self, tmp_path, capsys):
        from repro.experiments.runner import main

        common.clear_caches()
        target = tmp_path / "telemetry"
        argv = ["run", "fig7", "--scale", "0.05", "--workloads", "2"]
        assert main(argv + ["--telemetry-dir", str(target), "--quiet"]) == 0
        spans = [
            json.loads(line)
            for path in target.glob("events-*.jsonl")
            for line in path.read_text().splitlines()
        ]
        spans = [event for event in spans if event["type"] == "span"]
        (root,) = [e for e in spans if e["name"] == "runner.experiment"]
        assert root["attrs"] == {"experiment": "fig7", "scale": 0.05}
        nested = [e for e in spans if e["name"].startswith("sim.") or e["name"] == "trace.gen"]
        assert {e["name"] for e in nested} >= {"sim.window", "sim.translate", "sim.analyze", "trace.gen"}
        for event in nested:
            assert event["path"].startswith("runner.experiment/"), event["path"]
            assert event["trace_id"] == root["trace_id"]
        windows = {e["span_id"] for e in spans if e["name"] == "sim.window"}
        for event in spans:
            if event["name"] in ("sim.translate", "sim.analyze"):
                assert event["parent_span_id"] in windows

    def test_quiet_flag_suppresses_status_output(self, capsys):
        from repro.experiments.runner import main

        assert main(["run", "fig1a", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "finished in" not in out

    def test_default_output_unchanged_without_flags(self, capsys):
        from repro.experiments.runner import main

        assert main(["run", "fig1a"]) == 0
        out = capsys.readouterr().out
        assert "== fig1a" in out
        assert "finished in" in out

    def test_log_json_captures_records(self, tmp_path, capsys):
        from repro.experiments.runner import main

        log_path = tmp_path / "run.jsonl"
        assert main(["run", "fig1a", "--quiet", "--log-json", str(log_path)]) == 0
        capsys.readouterr()
        obs.LOGS.close()
        events = [
            json.loads(line) for line in log_path.read_text().splitlines()
        ]
        assert any(e["event"] == "experiment.finished" for e in events)
        finished = next(e for e in events if e["event"] == "experiment.finished")
        assert finished["experiment"] == "fig1a"
        assert "elapsed_s" in finished
