"""Per-cell isolation: retries with deterministic backoff, budgets.

A sweep campaign is only as robust as its weakest cell.  The
:class:`ResilientExecutor` runs one cell's work function inside a fault
boundary:

* transient failures retry with exponential backoff whose jitter is
  *deterministic* (derived from the cell key and attempt number), so a
  re-run of the same campaign sleeps the same schedule -- reproducibility
  extends to the failure path;
* budgets bound each cell: a wall-clock deadline (checked against the
  measured run time) and an activation budget (checked against the
  result's ``activations``);
* a budget overrun can degrade gracefully: when the caller supplies a
  ``degrade`` fallback (e.g. re-run at half scale), the cell survives
  with a flagged record instead of an error;
* everything else becomes a tidy :class:`CellOutcome` error record --
  the sweep continues.

Only :class:`Exception` is absorbed; ``KeyboardInterrupt`` and other
``BaseException`` (including the fault harness's simulated crashes)
propagate so interruption semantics stay intact.

:func:`check_result_invariants` is the integrity check every campaign
cell runs on its result: impossible statistics raise
:class:`~repro.errors.FaultInjectedError`; merely suspicious ones (e.g. a
mitigation scheme that never fired although a row crossed the threshold
-- the dropped-events fault of :mod:`repro.resilience.faults`) return
warning flags, so the campaign keeps the cell but marks it degraded.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple, Type

from repro.errors import (
    BudgetExceededError,
    CellExecutionError,
    CellTimeoutError,
    FaultInjectedError,
    TransientError,
    error_record,
    is_infrastructure_error,
)
from repro.obs.runtime import METRICS
from repro.utils.prng import derive_key

if TYPE_CHECKING:
    from repro.perf.simulator import RunResult


@dataclass(frozen=True)
class RetryPolicy:
    """Retry schedule for transient cell failures.

    Attributes:
        max_attempts: Total tries per cell (1 = no retries).
        backoff_base_s: Delay before the first retry.
        backoff_factor: Multiplier per subsequent retry.
        jitter: Max fractional jitter added to each delay ([0, 1]).
        seed: Seed the deterministic jitter derives from.
        retry_on: Exception types considered transient.
        max_infra_attempts: Separate try budget for *infrastructure*
            failures (worker death, broken pipes, OS errors -- see
            :func:`repro.errors.is_infrastructure_error`).  A cell whose
            worker was SIGKILLed twice has learned nothing about its
            simulation, so those retries must not consume
            ``max_attempts``.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.25
    seed: int = 2024
    retry_on: Tuple[Type[Exception], ...] = (TransientError,)
    max_infra_attempts: int = 5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.max_infra_attempts < 1:
            raise ValueError(
                f"max_infra_attempts must be >= 1, got {self.max_infra_attempts}"
            )
        if self.backoff_base_s < 0 or self.backoff_factor < 1:
            raise ValueError("backoff must be non-negative and non-shrinking")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay_s(self, key: str, attempt: int) -> float:
        """Backoff before retrying ``key`` after failed attempt ``attempt``.

        Deterministic: the jitter is a pure function of (seed, key,
        attempt), so identical re-runs produce identical schedules while
        distinct cells still decorrelate.
        """
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        unit = derive_key(self.seed, f"{key}#attempt{attempt}", 53) / float(1 << 53)
        return base * (1.0 + self.jitter * unit)


@dataclass(frozen=True)
class CellBudget:
    """Per-cell resource ceilings (None disables a dimension)."""

    wall_clock_s: Optional[float] = None
    max_activations: Optional[int] = None

    def check(self, elapsed_s: float, value: Any) -> None:
        """Raise a typed error if the finished cell overran a ceiling."""
        if self.wall_clock_s is not None and elapsed_s > self.wall_clock_s:
            raise CellTimeoutError(
                "cell exceeded its wall-clock budget",
                elapsed_s=round(elapsed_s, 3),
                wall_clock_s=self.wall_clock_s,
            )
        activations = getattr(value, "activations", None)
        if (
            self.max_activations is not None
            and activations is not None
            and activations > self.max_activations
        ):
            raise BudgetExceededError(
                "cell exceeded its activation budget",
                activations=int(activations),
                max_activations=self.max_activations,
            )


@dataclass
class CellOutcome:
    """What happened to one isolated cell."""

    key: str
    status: str  # "ok" | "degraded" | "error"
    value: Any = None
    attempts: int = 1
    elapsed_s: float = 0.0
    flags: List[str] = field(default_factory=list)
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        """True when the cell produced a usable value (even degraded)."""
        return self.status in ("ok", "degraded")

    def error_fields(self) -> Dict[str, Any]:
        """Error description for tidy records (empty when ok)."""
        return error_record(self.error) if self.error is not None else {}


class ResilientExecutor:
    """Runs cell work functions inside a retry/budget fault boundary.

    Args:
        retry: Retry schedule (defaults to 3 attempts, deterministic
            exponential backoff).
        budget: Per-cell ceilings (unlimited by default).
        fail_fast: Re-raise cell failures as :class:`CellExecutionError`
            instead of returning error outcomes (debugging aid).
        sleep: Injectable sleep (tests capture the backoff schedule).
        clock: Injectable monotonic clock.
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        budget: Optional[CellBudget] = None,
        *,
        fail_fast: bool = False,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.retry = retry or RetryPolicy()
        self.budget = budget or CellBudget()
        self.fail_fast = fail_fast
        self._sleep = sleep
        self._clock = clock
        self.cells_executed = 0
        self.total_attempts = 0

    # ------------------------------------------------------------------
    def execute(
        self,
        key: str,
        fn: Callable[[], Any],
        *,
        degrade: Optional[Callable[[], Any]] = None,
        validate: Optional[Callable[[Any], Optional[Iterable[str]]]] = None,
    ) -> CellOutcome:
        """Run one cell; never raises for ordinary failures.

        Args:
            key: Canonical cell key (names the cell in logs/journals and
                seeds the deterministic backoff jitter).
            fn: The cell's work function.
            degrade: Optional fallback run when the budget is exceeded
                (e.g. the same cell at reduced scale); its result is
                kept with a ``degraded`` status and explanatory flags.
            validate: Optional integrity check over the result; it may
                return warning flags (-> ``degraded`` status) or raise a
                typed error for fatally-inconsistent results.

        Returns:
            A :class:`CellOutcome`; ``status`` is ``ok``, ``degraded``
            (budget fallback or flagged result), or ``error``.
        """
        self.cells_executed += 1
        attempt = 0
        sim_failures = 0
        infra_failures = 0
        started = self._clock()
        while True:
            attempt += 1
            self.total_attempts += 1
            attempt_started = self._clock()
            try:
                value = fn()
                elapsed = self._clock() - attempt_started
                self.budget.check(elapsed, value)
            except self.retry.retry_on as error:
                sim_failures += 1
                if sim_failures >= self.retry.max_attempts:
                    return self._failure(key, error, attempt, started)
                delay = self.retry.delay_s(key, sim_failures)
                METRICS.inc("resilience.retries")
                METRICS.inc("resilience.backoff_seconds", delay)
                self._sleep(delay)
                continue
            except BudgetExceededError as error:
                if degrade is None:
                    return self._failure(key, error, attempt, started)
                return self._degrade(key, degrade, error, attempt, started)
            except Exception as error:  # isolation boundary: keep sweeping
                if (
                    is_infrastructure_error(error)
                    and infra_failures + 1 < self.retry.max_infra_attempts
                ):
                    # Worker/OS failure, not a simulation failure: retry
                    # under the separate infrastructure budget so flaky
                    # substrate never eats a cell's simulation retries.
                    infra_failures += 1
                    delay = self.retry.delay_s(f"{key}#infra", infra_failures)
                    METRICS.inc("resilience.infra_retries")
                    METRICS.inc("resilience.backoff_seconds", delay)
                    self._sleep(delay)
                    continue
                return self._failure(key, error, attempt, started)

            if validate is not None:
                try:
                    flags = list(validate(value) or [])
                except Exception as error:
                    return self._failure(key, error, attempt, started)
            else:
                flags = []
            status = "degraded" if flags else "ok"
            METRICS.inc("resilience.cells", status=status)
            return CellOutcome(
                key=key,
                status=status,
                value=value,
                attempts=attempt,
                elapsed_s=self._clock() - started,
                flags=flags,
            )

    # ------------------------------------------------------------------
    def _degrade(
        self,
        key: str,
        degrade: Callable[[], Any],
        cause: BudgetExceededError,
        attempts: int,
        started: float,
    ) -> CellOutcome:
        try:
            value = degrade()
        except Exception as error:
            return self._failure(key, error, attempts, started)
        METRICS.inc("resilience.cells", status="degraded")
        METRICS.inc("resilience.faults", **{"class": type(cause).__name__})
        return CellOutcome(
            key=key,
            status="degraded",
            value=value,
            attempts=attempts + 1,
            elapsed_s=self._clock() - started,
            flags=["budget-exceeded", type(cause).__name__, "degraded-fallback"],
            error=cause,
        )

    def _failure(
        self, key: str, error: BaseException, attempts: int, started: float
    ) -> CellOutcome:
        METRICS.inc("resilience.cells", status="error")
        METRICS.inc("resilience.faults", **{"class": type(error).__name__})
        if self.fail_fast:
            raise CellExecutionError(
                f"cell '{key}' failed after {attempts} attempt(s)",
                key=key,
                attempts=attempts,
            ) from error
        return CellOutcome(
            key=key,
            status="error",
            attempts=attempts,
            elapsed_s=self._clock() - started,
            error=error,
        )


def check_result_invariants(result: RunResult) -> List[str]:
    """Sanity-check a run result; impossible values raise, suspicious flag.

    Returns:
        Warning flags for results that are self-consistent but
        suspicious (kept, marked degraded).

    Raises:
        FaultInjectedError: The result is physically impossible
            (negative counters, NaN, hit rate outside [0, 1], ...).
    """
    checks: List[Tuple[bool, str]] = [
        (result.accesses >= 0, "negative access count"),
        (result.activations >= 0, "negative activation count"),
        (result.activations <= result.accesses, "more activations than accesses"),
        (0.0 <= result.hit_rate <= 1.0, "hit rate outside [0, 1]"),
        (result.mitigations >= 0, "negative mitigation count"),
        (result.exec_time_s > 0, "non-positive execution time"),
        (
            result.normalized_performance is None
            or (
                math.isfinite(result.normalized_performance)
                and result.normalized_performance > 0
            ),
            "non-positive or non-finite normalized performance",
        ),
        (result.hot_rows_512 <= result.hot_rows_64, "ACT-512 rows exceed ACT-64 rows"),
    ]
    for ok, what in checks:
        if not ok:
            raise FaultInjectedError(
                f"impossible run result: {what}",
                trace=result.trace_name,
                mapping=result.mapping_name,
                scheme=result.scheme,
            )
    flags: List[str] = []
    if (
        result.scheme != "none"
        and result.mitigations == 0
        and result.max_row_activations >= result.t_rh
    ):
        # A row crossed the Rowhammer threshold yet the mitigation never
        # fired -- the signature of dropped mitigation events.
        flags.append("suspect-mitigation-count")
    return flags


__all__ = [
    "RetryPolicy",
    "CellBudget",
    "CellOutcome",
    "ResilientExecutor",
    "check_result_invariants",
]
