"""Unit tests for spans, structured logs, manifests, and the schema."""

import json

import pytest

from repro.obs.logs import NORMAL, QUIET, VERBOSE, LogState, StructuredLogger
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import (
    REQUIRED_CAMPAIGN_METRICS,
    validate_manifest,
    validate_snapshot,
)
from repro.obs.tracing import Tracer, _NULL_SPAN


@pytest.fixture
def tracer():
    registry = MetricsRegistry(enabled=True)
    events = []
    return Tracer(registry, emit=events.append), registry, events


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
        assert tracer.current_path() == ""

    def test_span_aggregates_into_registry(self, tracer):
        tracer, registry, events = tracer
        with tracer.span("sim.window"):
            pass
        assert registry.counter_value("span.count", span="sim.window", status="ok") == 1
        hist = registry.histogram("span.seconds", span="sim.window")
        assert hist is not None and hist.count == 1

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
        assert tracer.current_path() == ""

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
                    assert tracer.current_path() == "sim.window/sim.translate"
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
        hist = registry.histogram("span.seconds", span="sim.translate")
        assert hist.count == 1 and hist.sum == 3.0
        assert tracer.current_path() == ""

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
        assert tracer.current_path() == ""

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
            assert record.parent_span_id == window.span_id
            assert record.trace_id == window.trace_id
            assert record.path == f"sim.window/{name}"
            assert record.attrs == {"laps": laps}
            assert 0 <= record.duration_s <= window.duration_s


class TestStructuredLogger:
    def _logger(self, tmp_path=None, verbosity=NORMAL):
        state = LogState()
        state.verbosity = verbosity
        if tmp_path is not None:
            state.set_json_path(tmp_path / "log.jsonl")
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

    def test_verbose_shows_debug(self, capsys):
        log, _ = self._logger(verbosity=VERBOSE)
        log.debug("detail", message="debug line")
        assert "debug line" in capsys.readouterr().out

    def test_normal_hides_debug(self, capsys):
        log, _ = self._logger()
        log.debug("detail", message="debug line")
        assert capsys.readouterr().out == ""

    def test_event_rendering_without_message(self, capsys):
        log, _ = self._logger()
        log.info("cache.cleared", entries=5)
        assert capsys.readouterr().out == "cache.cleared entries=5\n"

    def test_json_sink_gets_all_records_even_when_quiet(self, tmp_path, capsys):
        log, state = self._logger(tmp_path, verbosity=QUIET)
        log.info("status", message="hidden", experiment="fig7")
        log.debug("detail", step=3)
        state.close()
        capsys.readouterr()
        lines = [
            json.loads(line)
            for line in (tmp_path / "log.jsonl").read_text().splitlines()
        ]
        assert [record["event"] for record in lines] == ["status", "detail"]
        assert lines[0]["experiment"] == "fig7"
        assert lines[0]["level"] == "info"
        for record in lines:
            assert {"ts", "level", "logger", "event"} <= set(record)


class TestRunManifest:
    def test_create_finalize_round_trip(self, tmp_path):
        manifest = RunManifest.create(
            "unit-test",
            argv=["prog", "run"],
            config={"scale": 0.1},
            seeds={"mapping": 2024},
        )
        manifest.finalize(metrics={"counters": {}, "gauges": {}, "histograms": {}})
        path = manifest.write(tmp_path / "manifest.json")
        loaded = RunManifest.load(path)
        assert loaded.command == "unit-test"
        assert loaded.run_id == manifest.run_id
        assert loaded.config == {"scale": 0.1}
        assert loaded.seeds == {"mapping": 2024}
        assert loaded.schema_version == MANIFEST_SCHEMA_VERSION
        assert loaded.duration_s is not None and loaded.duration_s >= 0
        assert loaded.packages.get("python")
        assert loaded.packages.get("numpy")

    def test_validate_finalized_manifest(self):
        manifest = RunManifest.create("unit-test")
        manifest.finalize(metrics={"counters": {}, "gauges": {}, "histograms": {}})
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
        reg.observe("span.seconds", 0.1, span="campaign.cell")
        assert validate_snapshot(reg.snapshot()) == []

    def test_unknown_metric_name_flagged(self):
        snap = {"counters": {"made.up": 1}, "gauges": {}, "histograms": {}}
        errors = validate_snapshot(snap)
        assert any("unknown metric name 'made.up'" in error for error in errors)

    def test_undeclared_label_key_flagged(self):
        snap = {
            "counters": {"campaign.cells|color=red": 1},
            "gauges": {},
            "histograms": {},
        }
        errors = validate_snapshot(snap)
        assert any("undeclared label key 'color'" in error for error in errors)

    def test_kind_mismatch_flagged(self):
        snap = {"counters": {"cache.entries": 1}, "gauges": {}, "histograms": {}}
        errors = validate_snapshot(snap)
        assert any("declared gauge" in error for error in errors)

    def test_missing_required_metric_flagged(self):
        snap = {"counters": {}, "gauges": {}, "histograms": {}}
        errors = validate_snapshot(snap, required=REQUIRED_CAMPAIGN_METRICS)
        assert any("'campaign.cells' was never emitted" in error for error in errors)

    def test_overflow_label_always_legal(self):
        snap = {
            "counters": {"campaign.cells|overflow=true": 1},
            "gauges": {},
            "histograms": {},
        }
        assert validate_snapshot(snap) == []


class TestTraceContext:
    """Distributed (trace_id, span_id, parent_span_id) propagation."""

    def test_root_span_mints_trace_and_has_no_parent(self, tracer):
        trc, _, _ = tracer
        with trc.span("campaign.run"):
            pass
        record = trc.finished[-1]
        assert record.trace_id and record.span_id
        assert record.parent_span_id == ""

    def test_nested_span_inherits_trace_and_parent(self, tracer):
        trc, _, _ = tracer
        with trc.span("campaign.run"):
            with trc.span("campaign.cell"):
                pass
        child, parent = trc.finished[-2], trc.finished[-1]
        assert child.trace_id == parent.trace_id
        assert child.parent_span_id == parent.span_id
        assert child.span_id != parent.span_id

    def test_sequential_roots_get_distinct_traces(self, tracer):
        trc, _, _ = tracer
        with trc.span("campaign.run"):
            pass
        with trc.span("campaign.run"):
            pass
        first, second = trc.finished[0], trc.finished[1]
        assert first.trace_id != second.trace_id

    def test_current_context_round_trips_through_attach(self, tracer):
        trc, _, _ = tracer
        with trc.span("campaign.run"):
            token = trc.current_context()
        assert token is not None
        trace_id, _, span_id = token.partition(":")
        with trc.attach(token):
            with trc.span("campaign.cell"):
                pass
        remote = trc.finished[-1]
        assert remote.trace_id == trace_id
        assert remote.parent_span_id == span_id

    def test_attach_contributes_nothing_to_paths(self, tracer):
        trc, _, _ = tracer
        with trc.span("campaign.run"):
            token = trc.current_context()
        with trc.attach(token):
            with trc.span("campaign.cell"):
                assert trc.current_path() == "campaign.cell"

    def test_attach_rejects_malformed_tokens(self, tracer):
        trc, _, _ = tracer
        for bad in (None, "", "no-separator", ":", "a:", ":b"):
            assert trc.attach(bad) is _NULL_SPAN

    def test_current_context_none_outside_spans(self, tracer):
        trc, _, _ = tracer
        assert trc.current_context() is None

    def test_disabled_tracer_has_no_context(self):
        trc = Tracer(MetricsRegistry(enabled=False))
        assert trc.current_context() is None
        assert trc.attach("a:b") is _NULL_SPAN

    def test_child_records_name_the_open_span_as_parent(self, tracer):
        trc, _, _ = tracer
        with trc.span("sim.window") as window:
            enclosing_token = trc.current_context()
            with window.child("sim.translate"):
                with trc.span("trace.fingerprint"):
                    pass
        nested, child, parent = trc.finished
        trace_id, _, span_id = enclosing_token.partition(":")
        assert child.trace_id == trace_id
        assert child.parent_span_id == span_id
        assert child.span_id not in ("", span_id)
        # A span opened inside a lap nests under the child scope.
        assert nested.path == "sim.window/sim.translate/trace.fingerprint"
        assert nested.parent_span_id == child.span_id

    def test_innermost_spans_reads_each_threads_top_span(self, tracer):
        import threading

        trc, _, _ = tracer
        me = threading.get_ident()
        assert trc.innermost_spans() == {}
        with trc.span("campaign.run"):
            assert trc.innermost_spans() == {me: "campaign.run"}
            with trc.attach(trc.current_context()):
                assert trc.innermost_spans() == {}  # a remote parent is no span
                with trc.span("campaign.cell") as cell:
                    with cell.child("sim.window"):
                        assert trc.innermost_spans() == {me: "sim.window"}
        assert trc.innermost_spans() == {}

    def test_span_events_carry_context_and_monotonic_ts(self, tracer):
        trc, _, events = tracer
        with trc.span("campaign.run"):
            pass
        event = events[-1]
        assert event["trace_id"] and event["span_id"]
        assert event["parent_span_id"] == ""
        assert event["ts_mono"] > 0
        assert event["ts"] > 0

    def test_exception_exit_still_pops_stack(self, tracer):
        trc, _, _ = tracer
        with pytest.raises(ValueError):
            with trc.span("campaign.run"):
                raise ValueError("boom")
        assert trc.current_context() is None
