"""Unit tests for the observability plane.

Covers the pieces added around the core telemetry layer: the sampling
profiler (:mod:`repro.obs.profile`), per-(run, pid) event-stream keying,
the bench-history regression gate (``scripts/bench_regress.py``) and the
paper suite's closing ``suite.done`` record (``scripts/run_paper_suite.py``).
"""

import importlib.util
import json
import os
import time
from pathlib import Path

import pytest

from repro.obs import runtime as obs_runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SamplingProfiler
from repro.obs.schema import validate_events_lines
from repro.obs.tracing import Tracer

REPO_ROOT = Path(__file__).resolve().parents[2]


def _busy(deadline):
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(100))
    return total


def _live_tracer():
    return Tracer(MetricsRegistry(enabled=True))


class TestSamplingProfiler:
    def test_disabled_phase_is_noop(self):
        tracer = _live_tracer()
        profiler = SamplingProfiler(tracer, interval_s=0.001)
        with tracer.span("sim.window"):
            _busy(time.perf_counter() + 0.02)
        assert profiler._thread is None  # no sampler while disabled
        assert profiler.samples() == {}

    def test_samples_attribute_to_active_phase(self, tmp_path):
        tracer = _live_tracer()
        profiler = SamplingProfiler(tracer, interval_s=0.001)
        profiler.enable()
        try:
            with tracer.span("sim.window") as window:
                with window.child("sim.translate"):
                    _busy(time.perf_counter() + 0.08)
        finally:
            profiler.disable()
        samples = profiler.samples()
        assert "sim.translate" in samples
        stacks = samples["sim.translate"]
        assert sum(stacks.values()) >= 1
        assert any("_busy" in stack for stack in stacks)
        (path,) = [p for p in profiler.write(tmp_path) if "sim.translate" in p.name]
        assert path.name == f"profile-sim.translate-{os.getpid()}.collapsed"
        stack, count = path.read_text().splitlines()[0].rsplit(" ", 1)
        assert ";" in stack and int(count) >= 1

    def test_nested_phases_attribute_to_innermost(self):
        tracer = _live_tracer()
        profiler = SamplingProfiler(tracer, interval_s=0.001)
        profiler.enable()
        try:
            with tracer.span("campaign.cell"):
                with tracer.span("sim.window"):
                    _busy(time.perf_counter() + 0.05)
        finally:
            profiler.disable()
        samples = profiler.samples()
        assert samples.get("sim.window")
        # Samples land on campaign.cell only between the two span
        # boundaries, never for the inner span's majority.
        inner = sum(samples["sim.window"].values())
        outer = sum(samples.get("campaign.cell", {}).values())
        assert inner > outer

    def test_write_with_no_samples_writes_nothing(self, tmp_path):
        assert SamplingProfiler(_live_tracer()).write(tmp_path) == []
        assert list(tmp_path.iterdir()) == []

    def test_enable_is_idempotent_while_the_sampler_lives(self):
        profiler = SamplingProfiler(_live_tracer(), interval_s=0.001)
        profiler.enable()
        try:
            first = profiler._thread
            profiler.enable()
            assert profiler._thread is first and first.is_alive()
        finally:
            profiler.disable()

    def test_forked_child_starts_its_own_sampler_without_parent_samples(self):
        from collections import Counter

        profiler = SamplingProfiler(_live_tracer(), interval_s=0.001)
        profiler.enable()
        profiler._samples["sim.window"] = Counter({"mod:fn": 1})
        try:
            pid = os.fork()
            if pid == 0:  # child: the flag survives, the sampler thread does not
                inherited_dead = not profiler._thread.is_alive()
                profiler.enable()
                ok = inherited_dead and profiler._thread.is_alive()
                os._exit(0 if ok and profiler.samples() == {} else 1)
            _, status = os.waitpid(pid, 0)
            assert profiler.samples() == {"sim.window": Counter({"mod:fn": 1})}
        finally:
            profiler.disable()
        assert os.waitstatus_to_exitcode(status) == 0


@pytest.fixture
def clean_runtime():
    obs_runtime.reset()
    saved = {
        key: os.environ.pop(key, None)
        for key in (obs_runtime.TELEMETRY_DIR_ENV, obs_runtime.RUN_ID_ENV)
    }
    yield
    obs_runtime.reset()
    for key, value in saved.items():
        if value is not None:
            os.environ[key] = value


class TestRunScopedEventFiles:
    def test_event_file_keyed_by_run_and_pid(self, tmp_path, clean_runtime):
        obs_runtime.configure(enabled=True, telemetry_dir=tmp_path)
        with obs_runtime.TRACER.span("campaign.run"):
            pass
        run = obs_runtime.run_id()
        (path,) = tmp_path.glob("events-*.jsonl")
        assert path.name == f"events-{run}-{os.getpid()}.jsonl"
        event = json.loads(path.read_text().splitlines()[0])
        assert event["run"] == run
        assert os.environ[obs_runtime.RUN_ID_ENV] == run

    def test_two_runs_sharing_a_dir_get_separate_files(
        self, tmp_path, clean_runtime
    ):
        obs_runtime.configure(enabled=True, telemetry_dir=tmp_path)
        with obs_runtime.TRACER.span("campaign.run"):
            pass
        first = obs_runtime.run_id()
        # A second run in the same process tree (e.g. a pid recycled by
        # the OS, or a new CLI invocation appending to the same dir).
        obs_runtime.apply_config(
            {"enabled": True, "telemetry_dir": str(tmp_path), "run_id": "deadbeef"}
        )
        with obs_runtime.TRACER.span("campaign.run"):
            pass
        names = sorted(path.name for path in tmp_path.glob("events-*.jsonl"))
        assert names == sorted(
            [
                f"events-{first}-{os.getpid()}.jsonl",
                f"events-deadbeef-{os.getpid()}.jsonl",
            ]
        )
        for path in tmp_path.glob("events-*.jsonl"):
            assert validate_events_lines(
                path.read_text().splitlines(), source=path.name
            ) == []

    def test_mixed_run_ids_in_one_file_rejected(self):
        lines = [
            json.dumps({"type": "log", "ts": 1, "level": "info", "logger": "x", "event": "e", "run": "aaaa"}),
            json.dumps({"type": "log", "ts": 2, "level": "info", "logger": "x", "event": "e", "run": "bbbb"}),
            json.dumps({"type": "log", "ts": 3, "level": "info", "logger": "x", "event": "e", "run": "cccc"}),
        ]
        errors = validate_events_lines(lines, source="events-aaaa-1.jsonl")
        mixed = [error for error in errors if "mixed run ids" in error]
        assert len(mixed) == 2  # every foreign run id flagged, not just the first
        assert "aaaa" in mixed[0] and "bbbb" in mixed[0]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_bench_regress():
    return _load_script("bench_regress")


class TestBenchRegress:
    def _pair(self, seconds, *, quick=False):
        return {
            "config": {"lines": 1000, "quick": quick},
            "kernels": {
                kernel: {"optimized_s": value} for kernel, value in seconds.items()
            },
        }

    def test_regression_over_threshold_fails(self):
        bench = _load_bench_regress()
        history = [
            self._pair({"translate_trace": 1.0}),
            self._pair({"translate_trace": 1.2}),
        ]
        regressions, comparisons = bench.check_regressions(history, 15.0)
        assert len(regressions) == 1 and "+20.0%" in regressions[0]
        assert comparisons[0][0] == "translate_trace"

    def test_within_threshold_passes(self):
        bench = _load_bench_regress()
        history = [
            self._pair({"translate_trace": 1.0}),
            self._pair({"translate_trace": 1.1}),
        ]
        regressions, _ = bench.check_regressions(history, 15.0)
        assert regressions == []

    def test_compares_against_best_prior_not_latest(self):
        bench = _load_bench_regress()
        history = [
            self._pair({"translate_trace": 1.0}),  # the best
            self._pair({"translate_trace": 2.0}),  # a slow CI box
            self._pair({"translate_trace": 1.3}),
        ]
        regressions, _ = bench.check_regressions(history, 15.0)
        assert len(regressions) == 1  # 1.3 vs best 1.0 = +30%

    def test_mismatched_config_never_compared(self):
        bench = _load_bench_regress()
        history = [
            self._pair({"translate_trace": 0.001}, quick=True),
            self._pair({"translate_trace": 1.0}, quick=False),
        ]
        regressions, comparisons = bench.check_regressions(history, 15.0)
        assert regressions == [] and comparisons == []

    def test_kernel_without_prior_entry_is_skipped(self, tmp_path, capsys):
        bench = _load_bench_regress()
        history = [
            self._pair({"translate_trace": 1.0}),
            self._pair({"translate_trace": 1.0, "encrypt": 9.0}),
        ]
        regressions, comparisons = bench.check_regressions(history, 15.0)
        assert regressions == []
        assert [row[0] for row in comparisons] == ["translate_trace"]
        path = tmp_path / "history.json"
        path.write_text(json.dumps({"history": history}))
        assert bench.main(["--history", str(path)]) == 0
        assert "encrypt: no comparable prior timing; skipped" in capsys.readouterr().out

    def test_single_entry_history_passes_vacuously(self):
        bench = _load_bench_regress()
        assert bench.check_regressions([self._pair({"k": 1.0})], 15.0) == ([], [])

    def test_cli_against_repo_history(self, capsys):
        bench = _load_bench_regress()
        assert bench.main(["--quiet"]) in (0, 1)  # advisory semantics decide


class TestPaperSuiteDone:
    def test_done_record_reaches_logs_and_events_not_output(self, tmp_path, monkeypatch):
        from repro.obs.schema import validate_telemetry_dir

        suite = _load_script("run_paper_suite")
        monkeypatch.setattr(suite, "SUITE", [("fig1a", 1.0, None)])
        out, log_json, tele = tmp_path / "out.txt", tmp_path / "log.jsonl", tmp_path / "tele"
        argv = [str(out), "--quiet", "--log-json", str(log_json), "--telemetry-dir", str(tele)]
        try:
            assert suite.main(argv) == 0
        finally:
            obs_runtime.reset()
        logged = [json.loads(line) for line in log_json.read_text().splitlines()]
        done = [record for record in logged if record["event"] == "suite.done"]
        assert len(done) == 1
        assert done[0]["elapsed_s"] >= 0 and done[0]["peak_rss_mb"] > 0
        events = [
            json.loads(line)
            for path in tele.glob("events-*.jsonl")
            for line in path.read_text().splitlines()
        ]
        assert [e for e in events if e.get("event") == "suite.done"]
        # The suite gets its experiment root span from run_experiment.
        (root,) = [e for e in events if e.get("name") == "runner.experiment"]
        assert root["attrs"] == {"experiment": "fig1a", "scale": 1.0}
        assert validate_telemetry_dir(tele, required=()) == []
        text = out.read_text()
        assert "suite.done" not in text and "peak" not in text
        assert text.rstrip("\n").splitlines()[-1].startswith("[suite finished in ")
