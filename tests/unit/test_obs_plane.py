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
from repro.obs.profile import PROFILER, SamplingProfiler
from repro.obs.schema import validate_events_lines

REPO_ROOT = Path(__file__).resolve().parents[2]


def _busy(deadline):
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(100))
    return total


class TestSamplingProfiler:
    def test_disabled_phase_is_noop(self):
        profiler = SamplingProfiler()
        scope = profiler.phase("translate_trace")
        assert profiler.phase("analyze_trace") is scope  # shared null scope

    def test_samples_attribute_to_active_phase(self, tmp_path):
        profiler = SamplingProfiler(interval_s=0.001)
        profiler.enable()
        try:
            with profiler.phase("translate_trace"):
                _busy(time.perf_counter() + 0.08)
        finally:
            profiler.disable()
        samples = profiler.samples()
        assert "translate_trace" in samples
        stacks = samples["translate_trace"]
        assert sum(stacks.values()) >= 1
        assert any("_busy" in stack for stack in stacks)
        (path,) = profiler.write(tmp_path)
        assert path.name == f"profile-translate_trace-{os.getpid()}.collapsed"
        stack, count = path.read_text().splitlines()[0].rsplit(" ", 1)
        assert ";" in stack and int(count) >= 1

    def test_nested_phases_attribute_to_innermost(self):
        profiler = SamplingProfiler(interval_s=0.001)
        profiler.enable()
        try:
            with profiler.phase("outer"):
                with profiler.phase("inner"):
                    _busy(time.perf_counter() + 0.05)
        finally:
            profiler.disable()
        samples = profiler.samples()
        assert samples.get("inner")
        # After the inner scope exits the thread re-registers as outer,
        # so outer may hold a few samples -- but never inner's majority.
        inner = sum(samples["inner"].values())
        outer = sum(samples.get("outer", {}).values())
        assert inner > outer

    def test_write_with_no_samples_writes_nothing(self, tmp_path):
        assert SamplingProfiler().write(tmp_path) == []
        assert list(tmp_path.iterdir()) == []

    def test_production_kernels_scope_their_phase(self, monkeypatch):
        import threading

        import numpy as np

        from repro.core import remap_engine
        from repro.dram import fast_model

        seen = []

        def phase_of(result):
            def probe(*args, **kwargs):
                seen.append(PROFILER._active.get(threading.get_ident()))
                return result

            return probe

        empty = fast_model.TraceStats(0, 0, 0, np.empty(0), np.empty(0), 0)
        monkeypatch.setattr(fast_model, "_analyze_trace_impl", phase_of(empty))
        monkeypatch.setattr(remap_engine, "_swaps_in_range", phase_of(0))
        PROFILER.enable(interval_s=0.001)
        try:
            fast_model.analyze_trace(np.zeros(1), rows_per_bank=1)
            remap_engine.XorRemapEngine(nbits=4, seed=1).remap_steps(3)
        finally:
            PROFILER.disable()
            PROFILER.clear()
        assert seen == ["analyze_trace", "remap_steps"]


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
        assert validate_telemetry_dir(tele, required=()) == []
        text = out.read_text()
        assert "suite.done" not in text and "peak" not in text
        assert text.rstrip("\n").splitlines()[-1].startswith("[suite finished in ")
