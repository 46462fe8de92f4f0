"""Unit tests: error taxonomy, retry/backoff determinism, journal."""

import json

import pytest

from repro.errors import (
    BudgetExceededError,
    CellExecutionError,
    CellTimeoutError,
    FaultInjectedError,
    InfrastructureError,
    JournalError,
    MappingConfigError,
    ReproError,
    SchemeConfigError,
    TraceFormatError,
    TransientError,
    WorkloadConfigError,
    error_record,
    is_infrastructure_error,
)
from repro.resilience.executor import CellBudget, ResilientExecutor, RetryPolicy
from repro.resilience.journal import CheckpointJournal


class TestErrorTaxonomy:
    def test_config_errors_are_value_errors(self):
        # Backward compatibility: pre-taxonomy callers catch ValueError.
        for cls in (TraceFormatError, MappingConfigError, WorkloadConfigError, SchemeConfigError):
            assert issubclass(cls, ReproError)
            assert issubclass(cls, ValueError)

    def test_execution_errors_are_repro_errors(self):
        for cls in (CellExecutionError, BudgetExceededError, TransientError, JournalError, FaultInjectedError):
            assert issubclass(cls, ReproError)
        assert issubclass(CellTimeoutError, BudgetExceededError)

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

    def test_infrastructure_error_classification(self):
        from concurrent.futures.process import BrokenProcessPool

        assert issubclass(InfrastructureError, ReproError)
        for error in (
            InfrastructureError("substrate"),
            OSError("broken pipe"),
            EOFError(),
            BrokenProcessPool("worker died"),
        ):
            assert is_infrastructure_error(error)
        # Simulation-level failures must never be classed as infrastructure:
        # retrying them on a fresh worker cannot change the outcome.
        for error in (
            ValueError("bad config"),
            TransientError("blip"),
            FaultInjectedError("corrupt"),
            KeyError("missing"),
        ):
            assert not is_infrastructure_error(error)


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy(seed=7)
        assert policy.delay_s("cell-a", 1) == policy.delay_s("cell-a", 1)
        assert RetryPolicy(seed=7).delay_s("cell-a", 2) == policy.delay_s("cell-a", 2)

    def test_jitter_decorrelates_cells_and_attempts(self):
        policy = RetryPolicy(seed=7)
        assert policy.delay_s("cell-a", 1) != policy.delay_s("cell-b", 1)
        assert RetryPolicy(seed=8).delay_s("cell-a", 1) != policy.delay_s("cell-a", 1)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0, jitter=0.25)
        d1, d2, d3 = (policy.delay_s("c", a) for a in (1, 2, 3))
        # With jitter <= 25%, consecutive delays cannot overlap.
        assert 0.1 <= d1 <= 0.125
        assert 0.2 <= d2 <= 0.25
        assert 0.4 <= d3 <= 0.5

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class _Flaky:
    """Fails with the given errors, then returns ``value``."""

    def __init__(self, errors, value="done"):
        self.errors = list(errors)
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        return self.value


def _executor(**kwargs):
    slept = []
    kwargs.setdefault("sleep", slept.append)
    return ResilientExecutor(**kwargs), slept


class TestResilientExecutor:
    def test_transient_failures_retry_then_succeed(self):
        executor, slept = _executor(retry=RetryPolicy(max_attempts=3, seed=11))
        fn = _Flaky([TransientError("blip"), TransientError("blip")])
        outcome = executor.execute("cell", fn)
        assert outcome.status == "ok" and outcome.value == "done"
        assert outcome.attempts == 3 and fn.calls == 3
        policy = RetryPolicy(max_attempts=3, seed=11)
        assert slept == [policy.delay_s("cell", 1), policy.delay_s("cell", 2)]

    def test_exhausted_retries_become_error_outcome(self):
        executor, _ = _executor(retry=RetryPolicy(max_attempts=2))
        outcome = executor.execute("cell", _Flaky([TransientError("a"), TransientError("b")]))
        assert outcome.status == "error" and not outcome.ok
        assert outcome.attempts == 2
        assert outcome.error_fields()["error_type"] == "TransientError"

    def test_non_retryable_error_fails_immediately(self):
        executor, slept = _executor()
        fn = _Flaky([RuntimeError("boom")])
        outcome = executor.execute("cell", fn)
        assert outcome.status == "error" and fn.calls == 1 and slept == []
        assert outcome.error_fields()["error_type"] == "RuntimeError"

    def test_fail_fast_raises_wrapped(self):
        executor, _ = _executor(fail_fast=True)
        with pytest.raises(CellExecutionError) as exc_info:
            executor.execute("cell", _Flaky([RuntimeError("boom")]))
        assert isinstance(exc_info.value.__cause__, RuntimeError)
        assert exc_info.value.context["key"] == "cell"

    def test_wall_clock_budget(self):
        ticks = iter(range(0, 1000, 10))  # every clock() call advances 10s
        executor, _ = _executor(
            budget=CellBudget(wall_clock_s=5.0), clock=lambda: float(next(ticks))
        )
        outcome = executor.execute("cell", lambda: "slow")
        assert outcome.status == "error"
        assert outcome.error_fields()["error_type"] == "CellTimeoutError"

    def test_activation_budget_degrades_when_fallback_given(self):
        class Result:
            def __init__(self, activations):
                self.activations = activations

        executor, _ = _executor(budget=CellBudget(max_activations=100))
        outcome = executor.execute(
            "cell", lambda: Result(5000), degrade=lambda: Result(42)
        )
        assert outcome.status == "degraded" and outcome.ok
        assert outcome.value.activations == 42
        assert "budget-exceeded" in outcome.flags
        assert outcome.error_fields()["error_type"] == "BudgetExceededError"

    def test_activation_budget_errors_without_fallback(self):
        class Result:
            activations = 5000

        executor, _ = _executor(budget=CellBudget(max_activations=100))
        outcome = executor.execute("cell", Result)
        assert outcome.status == "error"
        assert outcome.error_fields()["error_type"] == "BudgetExceededError"

    def test_validation_flags_mark_degraded(self):
        executor, _ = _executor()
        outcome = executor.execute("cell", lambda: "v", validate=lambda v: ["odd-looking"])
        assert outcome.status == "degraded" and outcome.flags == ["odd-looking"]

    def test_validation_error_marks_error(self):
        executor, _ = _executor()

        def validate(value):
            raise FaultInjectedError("impossible stats")

        outcome = executor.execute("cell", lambda: "v", validate=validate)
        assert outcome.status == "error"
        assert outcome.error_fields()["error_type"] == "FaultInjectedError"

    def test_counters(self):
        executor, _ = _executor(retry=RetryPolicy(max_attempts=2))
        executor.execute("a", _Flaky([TransientError("x")]))
        executor.execute("b", lambda: 1)
        assert executor.cells_executed == 2
        assert executor.total_attempts == 3


class TestInfrastructureRetryBudget:
    def test_infra_errors_retry_outside_simulation_budget(self):
        # max_attempts=1 means zero *simulation* retries -- yet worker/OS
        # failures still retry, under their own budget.
        executor, slept = _executor(
            retry=RetryPolicy(max_attempts=1, max_infra_attempts=4, seed=3)
        )
        fn = _Flaky([OSError("pipe"), EOFError(), OSError("pipe")])
        outcome = executor.execute("cell", fn)
        assert outcome.status == "ok" and outcome.value == "done"
        assert fn.calls == 4
        policy = RetryPolicy(max_attempts=1, max_infra_attempts=4, seed=3)
        assert slept == [policy.delay_s("cell#infra", a) for a in (1, 2, 3)]

    def test_broken_process_pool_is_retried(self):
        from concurrent.futures.process import BrokenProcessPool

        executor, _ = _executor(retry=RetryPolicy(max_attempts=1, max_infra_attempts=2))
        fn = _Flaky([BrokenProcessPool("worker died")])
        outcome = executor.execute("cell", fn)
        assert outcome.status == "ok" and fn.calls == 2

    def test_infra_budget_exhaustion_is_error(self):
        executor, _ = _executor(retry=RetryPolicy(max_attempts=3, max_infra_attempts=2))
        fn = _Flaky([OSError("a"), OSError("b"), OSError("c")])
        outcome = executor.execute("cell", fn)
        assert outcome.status == "error" and fn.calls == 2
        assert outcome.error_fields()["error_type"] == "OSError"

    def test_simulation_errors_do_not_touch_infra_budget(self):
        executor, slept = _executor(
            retry=RetryPolicy(max_attempts=1, max_infra_attempts=5)
        )
        fn = _Flaky([ValueError("bad")])
        outcome = executor.execute("cell", fn)
        assert outcome.status == "error" and fn.calls == 1 and slept == []

    def test_budgets_are_independent(self):
        # One transient + one infra failure: each consumes its own budget.
        executor, _ = _executor(retry=RetryPolicy(max_attempts=2, max_infra_attempts=2))
        fn = _Flaky([TransientError("blip"), OSError("pipe")])
        outcome = executor.execute("cell", fn)
        assert outcome.status == "ok" and fn.calls == 3

    def test_invalid_infra_budget_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_infra_attempts=0)


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
