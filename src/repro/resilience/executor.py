"""Per-cell isolation: one try, an invariant check, a tidy record.

A sweep campaign is only as robust as its weakest cell.  The
:class:`ResilientExecutor` runs one cell's work function inside a fault
boundary: the cell is tried once (a cell is a deterministic function of
its seeded trace, mapping and cost model, so a retry would fail the
same way), and any :class:`Exception` becomes a tidy
:class:`CellOutcome` error record -- the sweep continues.

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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import FaultInjectedError, error_record
from repro.obs.runtime import METRICS

if TYPE_CHECKING:
    from repro.perf.simulator import RunResult


@dataclass
class CellOutcome:
    """What happened to one isolated cell."""

    key: str
    status: str  # "ok" | "degraded" | "error"
    value: Any = None
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
    """Runs cell work functions inside a fault boundary."""

    def execute(
        self,
        key: str,
        fn: Callable[[], Any],
        *,
        validate: Optional[Callable[[Any], Optional[Iterable[str]]]] = None,
    ) -> CellOutcome:
        """Run one cell once; never raises for ordinary failures.

        Args:
            key: Canonical cell key (names the cell in its outcome).
            fn: The cell's work function.
            validate: Optional integrity check over the result; it may
                return warning flags (-> ``degraded`` status) or raise a
                typed error for fatally-inconsistent results.

        Returns:
            A :class:`CellOutcome`; ``status`` is ``ok``, ``degraded``
            (flagged result), or ``error``.
        """
        try:
            value = fn()
            flags = list(validate(value) or []) if validate is not None else []
        except Exception as error:  # isolation boundary: keep sweeping
            METRICS.inc("resilience.cells", status="error")
            METRICS.inc("resilience.faults", **{"class": type(error).__name__})
            return CellOutcome(key=key, status="error", error=error)
        status = "degraded" if flags else "ok"
        METRICS.inc("resilience.cells", status=status)
        return CellOutcome(key=key, status=status, value=value, flags=flags)


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
    "CellOutcome",
    "ResilientExecutor",
    "check_result_invariants",
]
