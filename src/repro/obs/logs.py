"""Structured logging: human console lines plus telemetry log events.

Replaces the ad-hoc ``print()`` calls in the experiment runner and the
suite scripts.  Every log call names an *event* and carries typed
fields; the console rendering is decoupled from the machine record:

* **console** -- prints ``message`` verbatim when one is given (which
  is how the runner's historical output stays byte-identical at the
  default verbosity), otherwise a compact ``event key=value`` line.
  ``info`` goes to stdout, ``warning``/``error`` to stderr, exactly
  like the prints they replace.
* **telemetry event stream** -- the one machine log.  When a telemetry
  directory is configured, every record, console-visible or not, lands
  in the run's ``events-<run>-<pid>.jsonl`` alongside spans
  (``type: "log"``), so a ``--quiet`` run still keeps a complete log.

Verbosity: ``QUIET`` shows warnings and errors only, ``NORMAL`` (the
default) adds info.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, Dict, Optional

QUIET = 0
NORMAL = 1

_LEVEL_RANK = {"info": 20, "warning": 30, "error": 40}
_CONSOLE_THRESHOLD = {QUIET: 30, NORMAL: 20}


class LogState:
    """Shared verbosity and event sink behind every :class:`StructuredLogger`."""

    def __init__(self) -> None:
        self.verbosity = NORMAL
        #: Wired to the telemetry event stream by the runtime (or None).
        self.emit_event: Optional[Callable[[dict], None]] = None


class StructuredLogger:
    """Named logger bound to a shared :class:`LogState`.

    Args:
        name: Logger name, recorded in every machine record.
        state: Shared verbosity/sink state (the runtime's singleton).
    """

    def __init__(self, name: str, state: LogState) -> None:
        self.name = name
        self._state = state

    # ------------------------------------------------------------------
    def info(self, event: str, message: Optional[str] = None, **fields: object) -> None:
        self._log("info", event, message, fields)

    def warning(self, event: str, message: Optional[str] = None, **fields: object) -> None:
        self._log("warning", event, message, fields)

    def error(self, event: str, message: Optional[str] = None, **fields: object) -> None:
        self._log("error", event, message, fields)

    # ------------------------------------------------------------------
    def _log(
        self,
        level: str,
        event: str,
        message: Optional[str],
        fields: Dict[str, object],
    ) -> None:
        rank = _LEVEL_RANK[level]
        state = self._state
        if rank >= _CONSOLE_THRESHOLD[state.verbosity]:
            stream = sys.stderr if rank >= 30 else sys.stdout
            print(message if message is not None else _render(event, fields), file=stream)
        if state.emit_event is None:
            return
        record = {
            "type": "log",
            "ts": time.time(),
            "level": level,
            "logger": self.name,
            "event": event,
        }
        if message is not None:
            record["message"] = message
        record.update(fields)
        record["pid"] = os.getpid()
        state.emit_event(record)


def _render(event: str, fields: Dict[str, object]) -> str:
    if not fields:
        return event
    packed = " ".join(f"{k}={v}" for k, v in fields.items())
    return f"{event} {packed}"


__all__ = ["QUIET", "NORMAL", "LogState", "StructuredLogger"]
