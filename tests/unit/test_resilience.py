"""Unit tests: error taxonomy, the one-try fault boundary, journal."""

import json
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import (
    FaultInjectedError,
    JournalError,
    MappingConfigError,
    ReproError,
    SchemeConfigError,
    TraceFormatError,
    WorkloadConfigError,
    error_record,
)
from repro.resilience.executor import ResilientExecutor
from repro.resilience.faults import SimulatedCrash
from repro.resilience.journal import CheckpointJournal


class TestErrorTaxonomy:
    def test_config_errors_are_value_errors(self):
        # Backward compatibility: pre-taxonomy callers catch ValueError.
        for cls in (TraceFormatError, MappingConfigError, WorkloadConfigError, SchemeConfigError):
            assert issubclass(cls, ReproError)
            assert issubclass(cls, ValueError)

    def test_execution_errors_are_repro_errors(self):
        for cls in (JournalError, FaultInjectedError):
            assert issubclass(cls, ReproError)

    def test_context_in_message_and_record(self):
        error = MappingConfigError("unknown mapping 'bogus'", mapping="bogus")
        assert "bogus" in str(error)
        record = error_record(error)
        assert record["error_type"] == "MappingConfigError"
        assert record["error_context"] == {"mapping": "bogus"}

    def test_error_record_for_plain_exceptions(self):
        record = error_record(KeyError("boom"))
        assert record["error_type"] == "KeyError"
        assert "error_context" not in record


class _Raises:
    """A cell work function that raises ``error`` on every call."""

    def __init__(self, error):
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        raise self.error


class TestResilientExecutor:
    def test_non_retryable_error_fails_immediately(self):
        fn = _Raises(RuntimeError("boom"))
        outcome = ResilientExecutor().execute("cell", fn)
        assert outcome.status == "error" and not outcome.ok and fn.calls == 1
        assert outcome.error_fields()["error_type"] == "RuntimeError"

    @pytest.mark.parametrize(
        "error",
        [OSError("broken pipe"), EOFError(), BrokenProcessPool("worker died")],
        ids=["OSError", "EOFError", "BrokenProcessPool"],
    )
    def test_worker_shaped_errors_are_tried_once(self, error, monkeypatch):
        # A cell is deterministic, so an OS- or pool-shaped failure gets
        # no second try and no backoff sleep: one call, one error record.
        def no_sleep(seconds):
            raise AssertionError(f"the fault boundary slept {seconds}s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        fn = _Raises(error)
        outcome = ResilientExecutor().execute("cell", fn)
        assert fn.calls == 1
        assert outcome.status == "error" and outcome.value is None
        assert outcome.error_fields()["error_type"] == type(error).__name__

    def test_base_exceptions_propagate(self):
        for error in (KeyboardInterrupt(), SimulatedCrash("dead")):
            with pytest.raises(type(error)):
                ResilientExecutor().execute("cell", _Raises(error))

    def test_validation_flags_mark_degraded(self):
        outcome = ResilientExecutor().execute(
            "cell", lambda: "v", validate=lambda v: ["odd-looking"]
        )
        assert outcome.status == "degraded" and outcome.flags == ["odd-looking"]

    def test_validation_error_marks_error(self):
        def validate(value):
            raise FaultInjectedError("impossible stats")

        outcome = ResilientExecutor().execute("cell", lambda: "v", validate=validate)
        assert outcome.status == "error"
        assert outcome.error_fields()["error_type"] == "FaultInjectedError"


class TestCheckpointJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        journal = CheckpointJournal(path)
        journal.append("cell-1", {"workload": "xz", "slowdown_pct": 1.25})
        journal.append("cell-2", {"workload": "mcf", "slowdown_pct": 9.5})
        reloaded = CheckpointJournal(path)
        assert reloaded.completed_keys() == {"cell-1", "cell-2"}
        assert reloaded.completed()["cell-1"] == {"workload": "xz", "slowdown_pct": 1.25}
        assert len(reloaded) == 2

    def test_append_is_atomic_no_temp_leftovers(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "j.jsonl")
        for i in range(5):
            journal.append(f"cell-{i}", {"i": i})
        assert [p.name for p in tmp_path.iterdir()] == ["j.jsonl"]

    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.append("cell-1", {"ok": True})
        with open(path, "a") as handle:
            handle.write('{"key": "cell-2", "record": {"trunc')  # crash mid-append
        reloaded = CheckpointJournal(path)
        assert reloaded.completed_keys() == {"cell-1"}
        assert reloaded.skipped_lines == 1

    def test_append_after_crash_starts_a_fresh_line(self, tmp_path):
        # crash mid-append -> resume appends -> load: the torn record is
        # skipped, and the new one is not glued onto it.
        path = tmp_path / "j.jsonl"
        CheckpointJournal(path).append("cell-1", {"ok": True})
        with open(path, "a") as handle:
            handle.write('{"key": "cell-2", "record": {"trunc')
        resumed = CheckpointJournal(path)
        assert resumed.completed_keys() == {"cell-1"}
        resumed.append("cell-2", {"ok": True})
        resumed.append("cell-3", {"ok": True})
        assert resumed.completed_keys() == {"cell-1", "cell-2", "cell-3"}
        reloaded = CheckpointJournal(path)
        assert reloaded.completed() == {
            "cell-1": {"ok": True}, "cell-2": {"ok": True}, "cell-3": {"ok": True}
        }
        assert reloaded.skipped_lines == 1
        assert len(path.read_text().splitlines()) == 4

    def test_append_writes_only_its_own_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.append("cell-1", {"i": 1})
        before = path.read_bytes()
        journal.append("cell-2", {"i": 2})
        after = path.read_bytes()
        assert after.startswith(before)
        assert after[len(before):] == b'{"key": "cell-2", "record": {"i": 2}}\n'

    def test_entry_without_key_is_corruption(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"record": {}}) + "\n")
        with pytest.raises(JournalError):
            CheckpointJournal(path).load()

    def test_missing_file_is_empty(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "absent.jsonl")
        assert journal.load() == [] and journal.completed_keys() == set()

    def test_reset_starts_over(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal(path)
        journal.append("cell-1", {})
        journal.reset()
        assert not path.exists()
        assert CheckpointJournal(path).completed_keys() == set()

    def test_lease_fields_round_trip(self, tmp_path):
        # Journals written by the retired leased scheduler stamped
        # attempt/epoch/lease_id on each line; they must still load and
        # resume, with the extra fields ignored.
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps(
                {
                    "key": "cell-1",
                    "record": {"ok": True},
                    "duration_s": 0.5,
                    "worker_id": "w0",
                    "attempt": 2,
                    "epoch": 1,
                    "lease_id": "abc#a2e1",
                }
            )
            + "\n"
        )
        journal = CheckpointJournal(path)
        journal.append("cell-2", {"ok": True})  # plain entry resumes the file
        reloaded = CheckpointJournal(path)
        assert reloaded.completed() == {"cell-1": {"ok": True}, "cell-2": {"ok": True}}
        assert reloaded.timings() == {"cell-1": {"duration_s": 0.5, "worker_id": "w0"}}

    def test_truncated_line_increments_metric(self, tmp_path):
        from repro import obs

        path = tmp_path / "j.jsonl"
        CheckpointJournal(path).append("cell-1", {"ok": True})
        with open(path, "a") as handle:
            handle.write('{"key": "cell-2", "rec')
        obs.reset()
        obs.configure(enabled=True)
        try:
            journal = CheckpointJournal(path)
            assert journal.completed_keys() == {"cell-1"}
            assert obs.METRICS.counter_value("resilience.journal.truncated") == 1
        finally:
            obs.reset()
