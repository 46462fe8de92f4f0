"""Structured exception taxonomy for the reproduction.

Every failure the pipeline can diagnose maps to a :class:`ReproError`
subclass, so callers (the campaign fault boundary, the CLI runner,
tests) can branch on *what went wrong* instead of string-matching
messages.  Configuration errors double as :class:`ValueError` to stay
backward compatible with the pre-taxonomy API.

Each error carries an optional ``context`` dict of structured fields
(the offending path, the valid options, the failing cell, ...) that
:func:`error_record` flattens into the tidy error records campaign
sweeps emit for failed cells.
"""

from __future__ import annotations

from typing import Any, Dict


class ReproError(Exception):
    """Base class for all structured reproduction errors.

    Args:
        message: Human-readable description.
        **context: Structured fields describing the failure (serialized
            into campaign error records and journal entries).
    """

    def __init__(self, message: str, **context: Any) -> None:
        super().__init__(message)
        self.message = message
        self.context: Dict[str, Any] = dict(context)

    def __str__(self) -> str:
        if not self.context:
            return self.message
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
        return f"{self.message} [{detail}]"


# ---------------------------------------------------------------------------
# Configuration errors (fail fast, before any cell runs)
# ---------------------------------------------------------------------------
class TraceFormatError(ReproError, ValueError):
    """A trace bundle is malformed: bad archive, metadata, or arrays."""


class MappingConfigError(ReproError, ValueError):
    """An unknown or inconsistent address-mapping configuration."""


class WorkloadConfigError(ReproError, ValueError):
    """An unknown workload name (not a SPEC, mix, or STREAM workload)."""


class SchemeConfigError(ReproError, ValueError):
    """An unknown mitigation-scheme name."""


# ---------------------------------------------------------------------------
# Execution errors (raised while a campaign cell runs)
# ---------------------------------------------------------------------------
class JournalError(ReproError):
    """A checkpoint journal could not be read or written."""


class FaultInjectedError(ReproError):
    """An injected (or detected) fault: corrupted state, impossible stats.

    Raised both by the fault-injection harness itself and by the
    integrity checks that catch silently-wrong results, so tests can
    assert faults are *detected*, never silently absorbed.
    """


def error_record(error: BaseException) -> Dict[str, Any]:
    """Flatten an exception into the fields campaign error records use."""
    record: Dict[str, Any] = {
        "error_type": type(error).__name__,
        "error_message": getattr(error, "message", None) or str(error),
    }
    context = getattr(error, "context", None)
    if context:
        record["error_context"] = dict(context)
    return record


__all__ = [
    "ReproError",
    "TraceFormatError",
    "MappingConfigError",
    "WorkloadConfigError",
    "SchemeConfigError",
    "JournalError",
    "FaultInjectedError",
    "error_record",
]
