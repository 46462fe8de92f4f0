"""Unit tests for the live observability plane.

Covers the pieces added around the core telemetry layer: distributed
trace assembly (:mod:`repro.obs.assemble`), the in-process HTTP
endpoint (:mod:`repro.obs.live`), the sampling profiler
(:mod:`repro.obs.profile`), per-(run, pid) event-stream keying, and the
bench-history regression gate (``scripts/bench_regress.py``).
"""

import importlib.util
import json
import os
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.obs import runtime as obs_runtime
from repro.obs.assemble import (
    assemble_traces,
    load_span_events,
    render_trace,
    validate_traces,
)
from repro.obs.live import PROMETHEUS_CONTENT_TYPE, LiveEndpoint
from repro.obs.profile import PROFILER, SamplingProfiler
from repro.obs.schema import validate_events_lines, validate_telemetry_dir

REPO_ROOT = Path(__file__).resolve().parents[2]


def _span(
    name,
    trace_id,
    span_id,
    parent="",
    *,
    pid=100,
    ts=1000.0,
    ts_mono=50.0,
    duration=0.5,
    status="ok",
):
    return {
        "type": "span",
        "name": name,
        "path": name,
        "duration_s": duration,
        "status": status,
        "attrs": {},
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_span_id": parent,
        "ts": ts,
        "ts_mono": ts_mono,
        "pid": pid,
    }


class TestAssemble:
    def test_single_rooted_tree_links_children(self):
        events = [
            _span("service.submit", "t1", "root", pid=1),
            _span("campaign.cell", "t1", "c1", "root", pid=2),
            _span("campaign.cell", "t1", "c2", "root", pid=3),
            _span("sim.window", "t1", "g1", "c1", pid=2),
        ]
        (tree,) = assemble_traces(events)
        assert tree.root is not None and tree.root.name == "service.submit"
        assert not tree.orphans
        assert {child.span_id for child in tree.root.children} == {"c1", "c2"}
        assert tree.spans["c1"].children[0].span_id == "g1"
        assert tree.pids == [1, 2, 3]

    def test_orphans_and_multiple_roots_detected(self):
        events = [
            _span("campaign.run", "t1", "r1"),
            _span("campaign.run", "t1", "r2"),
            _span("campaign.cell", "t1", "c1", "gone"),
        ]
        (tree,) = assemble_traces(events)
        assert tree.root is None and len(tree.roots) == 2
        assert [orphan.span_id for orphan in tree.orphans] == ["c1"]
        errors = validate_traces(events)
        assert any("2 roots" in error for error in errors)
        assert any("missing" in error and "c1" in error for error in errors)

    def test_duplicate_span_ids_keep_first(self):
        events = [
            _span("campaign.run", "t1", "r1", duration=0.1),
            _span("campaign.run", "t1", "r1", duration=9.9),
        ]
        (tree,) = assemble_traces(events)
        assert tree.span_count() == 1
        assert tree.spans["r1"].duration_s == 0.1

    def test_same_pid_siblings_order_by_monotonic_clock(self):
        # Wall clock went backwards (NTP step) between the siblings; the
        # per-process monotonic clock must win.
        events = [
            _span("campaign.run", "t1", "root", ts=1000.0, ts_mono=10.0),
            _span("campaign.cell", "t1", "a", "root", ts=2000.0, ts_mono=11.0),
            _span("campaign.cell", "t1", "b", "root", ts=500.0, ts_mono=12.0),
        ]
        (tree,) = assemble_traces(events)
        assert [child.span_id for child in tree.root.children] == ["a", "b"]

    def test_spans_without_trace_context_are_skipped(self):
        events = [_span("campaign.run", "", "")]
        assert assemble_traces(events) == []
        assert validate_traces(events) == []

    def test_render_marks_orphans_and_processes(self):
        events = [
            _span("service.submit", "t1", "root", pid=1),
            _span("campaign.cell", "t1", "c1", "root", pid=2),
            _span("campaign.cell", "t1", "lost", "gone", pid=3),
        ]
        (tree,) = assemble_traces(events)
        text = render_trace(tree)
        assert "3 processes" in text.splitlines()[0]
        assert "`-- service.submit" in text
        assert "ORPHAN (parent gone missing)" in text

    def test_load_span_events_skips_junk_lines(self, tmp_path):
        path = tmp_path / "events-abc-1.jsonl"
        path.write_text(
            "not json\n"
            + json.dumps({"type": "log", "event": "x"})
            + "\n"
            + json.dumps(_span("campaign.run", "t1", "r1"))
            + "\n"
        )
        events = load_span_events(tmp_path)
        assert len(events) == 1 and events[0]["name"] == "campaign.run"


class TestLiveEndpoint:
    def _get(self, address, route):
        return urllib.request.urlopen(f"http://{address}{route}", timeout=5)

    def test_routes_and_content_types(self):
        with LiveEndpoint(
            "127.0.0.1:0",
            status_provider=lambda: {"cells": 8},
            health_provider=lambda: {"status": "ok"},
        ) as endpoint:
            response = self._get(endpoint.address, "/metrics")
            assert response.status == 200
            assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            response = self._get(endpoint.address, "/status")
            assert json.load(response) == {"cells": 8}
            response = self._get(endpoint.address, "/healthz")
            assert json.load(response)["status"] == "ok"

    def test_degraded_health_returns_503(self):
        with LiveEndpoint(
            "127.0.0.1:0", health_provider=lambda: {"status": "degraded"}
        ) as endpoint:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                self._get(endpoint.address, "/healthz")
            assert exc_info.value.code == 503
            assert json.load(exc_info.value)["status"] == "degraded"

    def test_unknown_route_404(self):
        with LiveEndpoint("127.0.0.1:0") as endpoint:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                self._get(endpoint.address, "/nope")
            assert exc_info.value.code == 404

    def test_provider_exception_becomes_error_payload(self):
        def broken():
            raise RuntimeError("boom")

        with LiveEndpoint("127.0.0.1:0", status_provider=broken) as endpoint:
            payload = json.load(self._get(endpoint.address, "/status"))
            assert payload["status"] == "error" and "boom" in payload["error"]

    def test_close_is_idempotent_and_releases_port(self):
        endpoint = LiveEndpoint("127.0.0.1:0")
        address = endpoint.start()
        assert address == endpoint.start()  # idempotent start
        endpoint.close()
        endpoint.close()
        with pytest.raises(OSError):
            urllib.request.urlopen(f"http://{address}/metrics", timeout=0.5)

    def test_rejects_malformed_listen(self):
        with pytest.raises(ValueError):
            LiveEndpoint("no-port")


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

    def test_trace_completeness_is_opt_in(self, tmp_path, clean_runtime):
        # An orphan span: parent context attached from a process whose
        # own spans never landed in this directory.
        orphan = _span("campaign.cell", "t1", "c1", "never-wrote")
        orphan["run"] = "aaaa"
        (tmp_path / "events-aaaa-7.jsonl").write_text(json.dumps(orphan) + "\n")
        relaxed = validate_telemetry_dir(tmp_path, required=(), traces=False)
        assert not any("parent" in error for error in relaxed)
        strict = validate_telemetry_dir(tmp_path, required=(), traces=True)
        assert any("missing parent never-wrote" in error for error in strict)


def _load_bench_regress():
    spec = importlib.util.spec_from_file_location(
        "bench_regress", REPO_ROOT / "scripts" / "bench_regress.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
