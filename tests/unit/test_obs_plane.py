"""Unit tests for the observability plane.

Covers the pieces added around the core telemetry layer: per-(run,
pid) event-stream keying and the paper suite's closing ``suite.done``
record (``scripts/run_paper_suite.py``).
"""

import importlib.util
import json
import os
from pathlib import Path

import pytest

from repro.obs import runtime as obs_runtime
from repro.obs.schema import validate_events_lines

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def clean_runtime():
    obs_runtime.reset()
    yield
    obs_runtime.reset()


class TestRunScopedEventFiles:
    def test_event_file_keyed_by_run_and_pid(self, tmp_path, clean_runtime):
        environ = dict(os.environ)
        obs_runtime.configure(enabled=True, telemetry_dir=tmp_path)
        with obs_runtime.TRACER.span("campaign.run"):
            pass
        run = obs_runtime.run_id()
        (path,) = tmp_path.glob("events-*.jsonl")
        assert path.name == f"events-{run}-{os.getpid()}.jsonl"
        event = json.loads(path.read_text().splitlines()[0])
        assert event["run"] == run
        assert dict(os.environ) == environ  # the run id lives in the process only

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


class TestPaperSuiteDone:
    def test_done_record_reaches_logs_and_events_not_output(self, tmp_path, monkeypatch):
        from repro.obs.schema import validate_telemetry_dir

        suite = _load_script("run_paper_suite")
        monkeypatch.setattr(suite, "SUITE", ("fig1a",))
        out, tele = tmp_path / "out.txt", tmp_path / "tele"
        try:
            assert suite.main([str(out), "--quiet", "--telemetry-dir", str(tele)]) == 0
        finally:
            obs_runtime.reset()
        events = [
            json.loads(line)
            for path in tele.glob("events-*.jsonl")
            for line in path.read_text().splitlines()
        ]
        (finished,) = [e for e in events if e.get("event") == "suite.experiment_done"]
        assert finished["experiment"] == "fig1a" and finished["elapsed_s"] >= 0
        (done,) = [e for e in events if e.get("event") == "suite.done"]
        assert done["elapsed_s"] >= 0 and done["peak_rss_mb"] > 0
        assert done["stats_cache_mb"] >= 0 and done["trace_cache_mb"] >= 0
        # The suite gets its experiment root span from run_experiment.
        (root,) = [e for e in events if e.get("name") == "runner.experiment"]
        assert root["attrs"] == {"experiment": "fig1a", "scale": 1.0}
        assert validate_telemetry_dir(tele, required=()) == []
        text = out.read_text()
        assert "suite.done" not in text and "peak" not in text
        assert text.rstrip("\n").splitlines()[-1].startswith("[suite finished in ")
