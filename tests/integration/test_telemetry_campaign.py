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
    """Pristine telemetry state around every test."""
    obs.reset()
    try:
        yield
    finally:
        obs.reset()


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
        # Each worker's campaign.cell span merges into the parent.
        assert snap["counters"]["span.count|span=campaign.cell,status=ok"] == 4
        assert snap["counters"]["span.seconds|span=campaign.cell"] > 0

    def test_spawned_workers_join_the_parent_run(self, tmp_path, monkeypatch):
        # The pool initializer is the only hand-off: no REPRO_* variable
        # tells a spawned worker that telemetry is on or which run it is.
        for key in [key for key in os.environ if key.startswith("REPRO_")]:
            monkeypatch.delenv(key)
        _, serial_snap = run_with_telemetry()
        common.clear_caches()
        obs.configure(enabled=True, telemetry_dir=tmp_path)
        tiny_campaign().run(workers=2, mp_context="spawn")
        run = obs.run_id()
        files = {path.name: path for path in tmp_path.glob("events-*.jsonl")}
        pids = {int(name.removesuffix(".jsonl").rsplit("-", 1)[1]) for name in files}
        assert pids - {os.getpid()}, "no worker wrote events"
        for name, path in files.items():
            assert name.startswith(f"events-{run}-"), name
            events = [json.loads(line) for line in path.read_text().splitlines()]
            assert events and {event["run"] for event in events} == {run}
        assert obs.filter_snapshot(
            obs.METRICS.snapshot(), obs.SEMANTIC_PREFIXES
        ) == obs.filter_snapshot(serial_snap, obs.SEMANTIC_PREFIXES)
        assert not [key for key in os.environ if key.startswith("REPRO_")]

    def test_snapshots_validate_against_schema(self):
        _, serial_snap = run_with_telemetry()
        _, parallel_snap = run_with_telemetry(workers=2)
        assert obs.validate_snapshot(serial_snap) == []
        assert obs.validate_snapshot(parallel_snap) == []


class TestSpanCountersMatchEvents:
    """``span.count`` and ``span.seconds`` hold exactly what the event
    streams record, span name by span name, including spans closed in
    pool workers and merged back as per-cell deltas."""

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "workers2"])
    def test_counters_equal_event_totals(self, tmp_path, workers):
        common.clear_caches()
        obs.configure(enabled=True, telemetry_dir=tmp_path)
        tiny_campaign().run(workers=workers)
        counters = obs.METRICS.snapshot()["counters"]
        events = [
            json.loads(line)
            for path in tmp_path.glob("events-*.jsonl")
            for line in path.read_text().splitlines()
        ]
        spans = [event for event in events if event["type"] == "span"]
        names = {event["name"] for event in spans}
        assert {"campaign.cell", "sim.window", "trace.gen"} <= names
        in_workers = [event for event in spans if event["pid"] != os.getpid()]
        assert bool(in_workers) == (workers > 1)
        count_series = [key for key in counters if key.startswith("span.count|")]
        seconds_series = [key for key in counters if key.startswith("span.seconds|")]
        assert len(seconds_series) == len(names)
        for name in names:
            durations = [e["duration_s"] for e in spans if e["name"] == name]
            count = sum(
                counters[key] for key in count_series
                if obs.parse_series_key(key)[1]["span"] == name
            )
            assert count == len(durations), name
            seconds = counters[obs.series_key("span.seconds", {"span": name})]
            assert seconds == pytest.approx(sum(durations), rel=1e-9, abs=0), name


class TestPoolSpans:
    """A pool run opened inside a span records one ``campaign.run`` under
    it in the parent, and every worker roots each cell at
    ``campaign.cell`` in a trace of its own, whichever start method made
    the worker."""

    @pytest.mark.parametrize("mp_context", ["fork", "spawn"])
    def test_pool_run_inside_an_open_span(self, tmp_path, mp_context):
        common.clear_caches()
        obs.configure(enabled=True, telemetry_dir=tmp_path)
        with obs.TRACER.span("runner.experiment"):
            tiny_campaign().run(workers=2, mp_context=mp_context)
        spans = [
            event
            for path in tmp_path.glob("events-*.jsonl")
            for event in map(json.loads, path.read_text().splitlines())
            if event["type"] == "span"
        ]
        parent = [event for event in spans if event["pid"] == os.getpid()]
        workers = [event for event in spans if event["pid"] != os.getpid()]
        (root,) = [event for event in parent if event["name"] == "runner.experiment"]
        (run,) = [event for event in parent if event["name"] == "campaign.run"]
        assert run["path"] == "runner.experiment/campaign.run"
        assert run["trace_id"] == root["trace_id"]
        cells = [event for event in workers if event["name"] == "campaign.cell"]
        assert len(cells) == 4
        assert {event["path"] for event in cells} == {"campaign.cell"}
        assert root["trace_id"] not in {event["trace_id"] for event in workers}


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


class TestTelemetryArtifacts:
    def test_write_telemetry_emits_validating_artifacts(self, tmp_path):
        common.clear_caches()
        obs.configure(enabled=True, telemetry_dir=tmp_path)
        manifest = obs.RunManifest.create("integration-test", config={"cells": 4})
        tiny_campaign().run()
        written = obs.write_telemetry(manifest=manifest)
        assert set(written) == {"metrics", "manifest"}
        assert obs.validate_telemetry_dir(tmp_path) == []
        # Event streams captured the span hierarchy.
        events = []
        for path in tmp_path.glob("events-*.jsonl"):
            events += [json.loads(line) for line in path.read_text().splitlines()]
        span_paths = {e["path"] for e in events if e["type"] == "span"}
        assert any("campaign.run/campaign.cell" in p for p in span_paths)

    def test_jsonl_snapshot_readable(self, tmp_path):
        common.clear_caches()
        obs.configure(enabled=True, telemetry_dir=tmp_path)
        tiny_campaign().run()
        obs.write_telemetry()
        snapshot = obs.snapshot_from_jsonl(tmp_path / "metrics.jsonl")
        assert snapshot["counters"]["campaign.cells|status=ok"] == 4
        assert not list(tmp_path.glob("*.prom"))


class TestRunnerCLI:
    def test_telemetry_dir_flag_writes_artifacts(self, tmp_path, capsys):
        from repro.experiments.runner import main

        target = tmp_path / "telemetry"
        assert main(["run", "fig1a", "--telemetry-dir", str(target)]) == 0
        out = capsys.readouterr().out
        assert "fig1a" in out
        assert (target / "manifest.json").exists()
        assert (target / "metrics.jsonl").exists()
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["command"] == "experiments.run"
        assert manifest["finished_at"] is not None
        assert manifest["metrics"]["counters"]["runner.experiments|status=ok"] == 1
        # fig1a is data-only, so skip the campaign-metrics floor.
        assert obs.validate_telemetry_dir(target, required=()) == []

    def test_manifest_run_id_keys_every_events_file(self, tmp_path, capsys):
        from repro.experiments.runner import main

        target = tmp_path / "telemetry"
        assert main(["run", "fig1a", "--quiet", "--telemetry-dir", str(target)]) == 0
        assert "finished in" not in capsys.readouterr().out
        run = json.loads((target / "manifest.json").read_text())["run_id"]
        files = sorted(target.glob("events-*.jsonl"))
        assert files
        events = []
        for path in files:
            assert path.name == f"events-{run}-{os.getpid()}.jsonl"
            events += [json.loads(line) for line in path.read_text().splitlines()]
        assert {event["run"] for event in events} == {run}
        # The event stream is the machine log: a record --quiet keeps off
        # the console still reaches it.
        (finished,) = [e for e in events if e.get("event") == "experiment.finished"]
        assert finished["experiment"] == "fig1a" and finished["elapsed_s"] >= 0

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
        for event in spans:
            if event["name"] in ("sim.translate", "sim.analyze"):
                assert event["path"].endswith(f"/sim.window/{event['name']}"), event["path"]

    def test_quiet_flag_suppresses_status_output(self, capsys):
        from repro.experiments.runner import main

        assert main(["run", "fig1a", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "finished in" not in out

    def test_stats_cache_flag_persists_in_process(self, tmp_path, capsys):
        # The directory reaches the simulators in process: it is set
        # for the run only and never written into the environment.
        from repro.experiments.runner import main

        common.clear_caches()
        environ = dict(os.environ)
        cache = tmp_path / "stats"
        argv = ["run", "fig7", "--scale", "0.02", "--workloads", "1", "--quiet"]
        assert main(argv + ["--stats-cache", str(cache)]) == 0
        assert list(cache.glob("*.npz"))
        assert dict(os.environ) == environ
        assert all(
            sim.stats_cache.persist_dir is None for sim in common._SIMULATORS.values()
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig1a", "--log-json", "log.jsonl"],
            ["run", "fig1a", "--verbose"],
            ["run", "fig1a", "--journal", "j.jsonl"],
            ["run", "fig1a", "--resume"],
            ["serve", "spec.json", "--log-json", "log.jsonl"],
            ["serve", "spec.json", "--verbose"],
        ],
    )
    def test_removed_flags_are_refused(self, argv, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2

    def test_failed_experiment_exits_1_with_one_line(self, monkeypatch, capsys):
        from repro.experiments import runner

        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(runner, "run_experiment", broken)
        assert runner.main(["run", "fig1a"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "[fig1a failed: RuntimeError: boom]\n"
        assert captured.out == ""

    def test_run_all_is_an_unknown_experiment(self, capsys):
        from repro.experiments.runner import main

        assert main(["run", "all"]) == 2
        assert "unknown experiment 'all'" in capsys.readouterr().err

    def test_default_output_unchanged_without_flags(self, capsys):
        from repro.experiments.runner import main

        assert main(["run", "fig1a"]) == 0
        out = capsys.readouterr().out
        assert "== fig1a" in out
        assert "finished in" in out
