"""Unit tests for spans, structured logs, manifests, and the schema."""

import json

import pytest

from repro.obs.logs import NORMAL, QUIET, LogState, StructuredLogger
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import (
    REQUIRED_CAMPAIGN_METRICS,
    validate_manifest,
    validate_snapshot,
    validate_telemetry_dir,
)
from repro.obs.tracing import Tracer, _NULL_SPAN


@pytest.fixture
def tracer():
    registry = MetricsRegistry(enabled=True)
    events = []
    return Tracer(registry, emit=events.append), registry, events


def assert_no_span_open(tracer):
    """A span opened now is a root: its path is its name and its trace new."""
    traces = {record.trace_id for record in tracer.finished}
    with tracer.span("probe"):
        pass
    probe = tracer.finished[-1]
    assert probe.path == "probe"
    assert probe.trace_id not in traces


class TestTracer:
    def test_disabled_returns_shared_null_span(self):
        tracer = Tracer(MetricsRegistry(enabled=False))
        span = tracer.span("campaign.cell", workload="gcc")
        assert span is _NULL_SPAN
        with span as window:
            assert window.child("sim.translate") is _NULL_SPAN
            with window.child("sim.analyze"):
                pass
        assert not tracer.finished

    def test_nested_paths(self, tracer):
        tracer, registry, events = tracer
        with tracer.span("campaign.run"):
            with tracer.span("campaign.cell", workload="gcc"):
                with tracer.span("sim.translate"):
                    pass
        paths = [record.path for record in tracer.finished]
        assert paths == [
            "campaign.run/campaign.cell/sim.translate",
            "campaign.run/campaign.cell",
            "campaign.run",
        ]
        assert_no_span_open(tracer)

    def test_span_aggregates_into_registry(self, tracer):
        tracer, registry, events = tracer
        with tracer.span("sim.window"):
            pass
        assert registry.counter_value("span.count", span="sim.window", status="ok") == 1
        (record,) = tracer.finished
        assert registry.counter_value("span.seconds", span="sim.window") == record.duration_s

    def test_exception_marks_error_and_propagates(self, tracer):
        tracer, registry, events = tracer
        with pytest.raises(RuntimeError):
            with tracer.span("campaign.cell"):
                raise RuntimeError("boom")
        record = tracer.finished[-1]
        assert record.status == "error"
        assert (
            registry.counter_value("span.count", span="campaign.cell", status="error")
            == 1
        )
        # The stack unwound despite the exception.
        assert_no_span_open(tracer)

    def test_child_laps_sum_into_one_record_per_name(self, tracer, monkeypatch):
        tracer, registry, events = tracer
        ticks = iter(range(100))
        monkeypatch.setattr(
            "repro.obs.tracing.time.perf_counter", lambda: float(next(ticks))
        )
        with tracer.span("sim.window") as window:  # t0 = 0
            translate = window.child("sim.translate")
            analyze = window.child("sim.analyze")
            for _ in range(3):
                with translate:  # 1 s per lap
                    pass
                with window.child("sim.analyze"):  # the same scope again
                    pass
            assert window.child("sim.analyze") is analyze
        by_name = {record.name: record for record in tracer.finished}
        assert [record.name for record in tracer.finished] == [
            "sim.translate",
            "sim.analyze",
            "sim.window",
        ]
        assert by_name["sim.translate"].duration_s == 3.0
        assert by_name["sim.analyze"].duration_s == 3.0
        assert by_name["sim.window"].duration_s == 13.0
        assert by_name["sim.translate"].attrs == {"laps": 3}
        assert by_name["sim.translate"].path == "sim.window/sim.translate"
        assert registry.counter_value("span.count", span="sim.translate", status="ok") == 1
        assert registry.counter_value("span.seconds", span="sim.translate") == 3.0
        assert_no_span_open(tracer)

    def test_child_lap_error_marks_its_record(self, tracer):
        tracer, registry, events = tracer
        with pytest.raises(RuntimeError):
            with tracer.span("sim.window") as window:
                with window.child("sim.analyze"):
                    raise RuntimeError("boom")
        assert [(r.name, r.status) for r in tracer.finished] == [
            ("sim.analyze", "error"),
            ("sim.window", "error"),
        ]
        assert_no_span_open(tracer)

    def test_events_emitted_with_schema_fields(self, tracer):
        tracer, registry, events = tracer
        with tracer.span("trace.gen", workload="gcc"):
            pass
        assert len(events) == 1
        event = events[0]
        assert event["type"] == "span"
        for key in ("name", "path", "duration_s", "status", "ts", "pid"):
            assert key in event
        assert event["attrs"] == {"workload": "gcc"}

    def test_set_adds_attrs_after_the_phase_ran(self, tracer):
        tracer, registry, events = tracer
        with tracer.span("trace.gen", workload="gcc") as span:
            span.set(lines=42)
        assert events[0]["attrs"] == {"workload": "gcc", "lines": 42}
        with Tracer(MetricsRegistry(enabled=False)).span("trace.gen") as span:
            span.set(lines=42)  # a no-op while telemetry is off

    def test_trace_gen_span_records_line_count(self):
        from repro.experiments.common import clear_caches, get_trace
        from repro.obs import runtime as obs_runtime

        obs_runtime.reset()
        clear_caches()
        obs_runtime.configure(enabled=True)
        try:
            trace = get_trace("xz", scale=0.02)
            (record,) = [r for r in obs_runtime.TRACER.finished if r.name == "trace.gen"]
        finally:
            obs_runtime.reset()
            clear_caches()
        assert record.attrs["workload"] == "xz"
        assert record.attrs["lines"] == len(trace)


class TestSimulatorSpans:
    @pytest.fixture
    def live(self):
        from repro.obs import runtime as obs_runtime

        obs_runtime.reset()
        obs_runtime.configure(enabled=True)
        yield obs_runtime.TRACER
        obs_runtime.reset()

    @pytest.mark.parametrize("kind", ["static", "rubix-d"])
    def test_window_parents_translate_and_analyze(self, live, kind):
        from repro.core.rubix_d import RubixDMapping
        from repro.mapping.intel import CoffeeLakeMapping
        from repro.perf.simulator import Simulator
        from repro.workloads.kernels import random_kernel

        sim = Simulator(chunk_lines=1 << 13)  # Rubix-D: 3 chunks
        trace = random_kernel(footprint_lines=1 << 14, accesses=20_000, seed=3)
        mapping = (
            CoffeeLakeMapping(sim.config)
            if kind == "static"
            else RubixDMapping(sim.config, gang_size=4, remap_rate=0.01)
        )
        sim.window_stats(trace, mapping, use_cache=False)
        (window,) = [r for r in live.finished if r.name == "sim.window"]
        assert window.attrs["mode"] == ("static" if kind == "static" else "dynamic")
        laps = 1 if kind == "static" else 3
        for name in ("sim.translate", "sim.analyze"):
            (record,) = [r for r in live.finished if r.name == name]
            assert record.trace_id == window.trace_id
            assert record.path == f"sim.window/{name}"
            assert record.attrs == {"laps": laps}
            assert 0 <= record.duration_s <= window.duration_s


class TestStructuredLogger:
    def _logger(self, verbosity=NORMAL):
        state = LogState()
        state.verbosity = verbosity
        return StructuredLogger("test", state), state

    def test_message_printed_verbatim_to_stdout(self, capsys):
        log, _ = self._logger()
        log.info("experiment.finished", message="[fig7 finished in 1.0s]")
        captured = capsys.readouterr()
        assert captured.out == "[fig7 finished in 1.0s]\n"
        assert captured.err == ""

    def test_errors_go_to_stderr(self, capsys):
        log, _ = self._logger()
        log.error("experiment.failed", message="[fig7 failed]")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "[fig7 failed]\n"

    def test_quiet_suppresses_info_but_not_errors(self, capsys):
        log, _ = self._logger(verbosity=QUIET)
        log.info("status", message="hidden")
        log.error("bad", message="shown")
        captured = capsys.readouterr()
        assert "hidden" not in captured.out
        assert "shown" in captured.err

    def test_event_rendering_without_message(self, capsys):
        log, _ = self._logger()
        log.info("cache.cleared", entries=5)
        assert capsys.readouterr().out == "cache.cleared entries=5\n"


class TestRunManifest:
    def test_create_finalize_round_trip(self, tmp_path):
        manifest = RunManifest.create(
            "unit-test",
            argv=["prog", "run"],
            config={"scale": 0.1},
        )
        manifest.finalize(metrics={"counters": {}})
        path = manifest.write(tmp_path / "manifest.json")
        loaded = RunManifest.load(path)
        assert loaded.command == "unit-test"
        assert loaded.run_id == manifest.run_id
        assert loaded.config == {"scale": 0.1}
        assert loaded.schema_version == MANIFEST_SCHEMA_VERSION
        assert loaded.duration_s is not None and loaded.duration_s >= 0
        assert loaded.packages.get("python")
        assert loaded.packages.get("numpy")

    def test_validate_finalized_manifest(self):
        manifest = RunManifest.create("unit-test")
        manifest.finalize(metrics={"counters": {}})
        assert validate_manifest(manifest.to_dict()) == []

    def test_validate_flags_unfinalized(self):
        manifest = RunManifest.create("unit-test")
        errors = validate_manifest(manifest.to_dict())
        assert any("finalized" in error for error in errors)

    def test_load_rejects_non_manifest(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"foo": 1}')
        with pytest.raises(ValueError):
            RunManifest.load(path)


class TestSchemaValidation:
    def test_clean_snapshot_validates(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("campaign.cells", status="ok")
        reg.inc("span.seconds", 0.1, span="campaign.cell")
        assert validate_snapshot(reg.snapshot()) == []

    def test_unknown_metric_name_flagged(self):
        snap = {"counters": {"made.up": 1}}
        errors = validate_snapshot(snap)
        assert any("unknown metric name 'made.up'" in error for error in errors)

    def test_undeclared_label_key_flagged(self):
        snap = {"counters": {"campaign.cells|color=red": 1}}
        errors = validate_snapshot(snap)
        assert any("undeclared label key 'color'" in error for error in errors)

    def test_kind_mismatch_flagged(self, tmp_path):
        # Every metric is a counter: a metrics.jsonl line of another kind
        # makes the whole file fail validation.
        line = {"kind": "histogram", "name": "span.seconds", "labels": {"span": "x"}}
        (tmp_path / "metrics.jsonl").write_text(json.dumps(line) + "\n")
        errors = validate_telemetry_dir(tmp_path, required=())
        assert any("unknown metric kind 'histogram'" in error for error in errors)

    def test_missing_required_metric_flagged(self):
        errors = validate_snapshot({"counters": {}}, required=REQUIRED_CAMPAIGN_METRICS)
        assert any("'campaign.cells' was never emitted" in error for error in errors)

    def test_overflow_label_always_legal(self):
        snap = {"counters": {"campaign.cells|overflow=true": 1}}
        assert validate_snapshot(snap) == []


class TestTraceContext:
    """A root span mints the trace id that every span under it shares."""

    def test_root_span_mints_trace_and_has_no_parent(self, tracer):
        trc, _, _ = tracer
        with trc.span("campaign.run"):
            pass
        record = trc.finished[-1]
        assert record.trace_id
        assert record.path == "campaign.run"

    def test_nested_span_inherits_trace_and_parent(self, tracer):
        trc, _, _ = tracer
        with trc.span("campaign.run"):
            with trc.span("campaign.cell"):
                pass
        child, parent = trc.finished[-2], trc.finished[-1]
        assert child.trace_id == parent.trace_id
        assert child.path == f"{parent.path}/campaign.cell"

    def test_sequential_roots_get_distinct_traces(self, tracer):
        trc, _, _ = tracer
        with trc.span("campaign.run"):
            pass
        with trc.span("campaign.run"):
            pass
        first, second = trc.finished[0], trc.finished[1]
        assert first.trace_id != second.trace_id

    def test_child_records_name_the_open_span_as_parent(self, tracer):
        trc, _, _ = tracer
        with trc.span("sim.window") as window:
            with window.child("sim.translate"):
                with trc.span("trace.fingerprint"):
                    pass
        nested, child, parent = trc.finished
        assert child.path == "sim.window/sim.translate"
        assert child.trace_id == parent.trace_id
        # A span opened inside a lap nests under the child scope.
        assert nested.path == "sim.window/sim.translate/trace.fingerprint"
        assert nested.trace_id == parent.trace_id

    def test_threads_keep_separate_paths_and_traces(self, tracer):
        import threading

        trc, _, _ = tracer
        inside = threading.Barrier(2)

        def work(root):
            with trc.span(root):
                inside.wait(timeout=10)  # both roots are open at once
                with trc.span("sim.window"):
                    inside.wait(timeout=10)

        threads = [
            threading.Thread(target=work, args=(root,))
            for root in ("campaign.run", "runner.experiment")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        windows = {r.path: r for r in trc.finished if r.name == "sim.window"}
        roots = {r.name: r for r in trc.finished if r.name != "sim.window"}
        assert set(windows) == {"campaign.run/sim.window", "runner.experiment/sim.window"}
        for name, root in roots.items():
            assert windows[f"{name}/sim.window"].trace_id == root.trace_id
        assert roots["campaign.run"].trace_id != roots["runner.experiment"].trace_id

    def test_span_events_carry_trace_id(self, tracer):
        trc, _, events = tracer
        with trc.span("campaign.run"):
            pass
        event = events[-1]
        assert event["trace_id"] == trc.finished[-1].trace_id
        assert event["ts"] > 0
        assert set(event) == {
            "type", "name", "path", "duration_s", "status", "attrs", "trace_id", "ts", "pid"
        }

    def test_exception_exit_still_pops_stack(self, tracer):
        trc, _, _ = tracer
        with pytest.raises(ValueError):
            with trc.span("campaign.run"):
                raise ValueError("boom")
        assert_no_span_open(trc)
