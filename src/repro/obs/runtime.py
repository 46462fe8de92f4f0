"""Process-wide telemetry runtime: the singletons and their lifecycle.

One metrics registry, one tracer, and one log state per process, all
disabled by default.  :func:`configure` is the only way to enable
them::

    from repro import obs
    obs.configure(enabled=True, telemetry_dir="runs/today")

Process-pool workers mirror the parent's configuration through the pool
initializer, which applies :func:`export_config`'s payload with
:func:`apply_config` (see :mod:`repro.parallel.executor`).

Artifact layout under the telemetry directory::

    manifest.json                run provenance + final metrics snapshot
    metrics.jsonl                one metric series per line
    events-<run>-<pid>.jsonl     span + log event stream, one file per
                                 process per run; the run's only
                                 machine log

Events are written per-(run, process): the run id (:func:`run_id`, an
8-hex token minted once in the parent and shipped to every worker by
:func:`export_config`) keeps two runs sharing a telemetry dir -- or a
respawned worker that recycled a pid -- from append-interleaving
unrelated event streams into one file, and every event line is stamped
with it so ``validate_telemetry`` can reject a mixed file.  The run
manifest records the same id.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, TextIO, Union

from repro.obs.logs import NORMAL, LogState, StructuredLogger
from repro.obs.metrics import MetricsRegistry, snapshot_to_jsonl
from repro.obs.tracing import Tracer

if TYPE_CHECKING:
    from repro.obs.manifest import RunManifest

_run_id: Optional[str] = None


def run_id() -> str:
    """This run's telemetry id: an 8-hex token minted on first use.

    :func:`apply_config` installs the parent's id in pool workers.
    Event filenames, event lines and the run manifest are keyed by it,
    so two runs sharing a telemetry directory (or a recycled pid) can
    never interleave into one file.
    """
    global _run_id
    if _run_id is None:
        _run_id = os.urandom(4).hex()
    return _run_id


class _EventStream:
    """Per-(run, process) JSONL sink for span and log events."""

    def __init__(self) -> None:
        self.directory: Optional[Path] = None
        self._file: Optional[TextIO] = None
        self._pid: Optional[int] = None
        self._run: Optional[str] = None

    def emit(self, event: dict) -> None:
        if self.directory is None:
            return
        pid = os.getpid()
        run = run_id()
        if self._file is None or self._pid != pid or self._run != run:
            self.close()
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
                self._file = open(self.directory / f"events-{run}-{pid}.jsonl", "a")
                self._pid = pid
                self._run = run
            except OSError:
                self.directory = None  # sink broken; stop trying
                return
        event.setdefault("run", run)
        try:
            self._file.write(json.dumps(event, default=str) + "\n")
            self._file.flush()
        except OSError:
            pass

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
        self._file = None
        self._pid = None
        self._run = None


# ---------------------------------------------------------------------------
# Singletons.  Object identity is stable for the life of the process;
# reset() clears them in place.
# ---------------------------------------------------------------------------
_EVENTS = _EventStream()
METRICS = MetricsRegistry()
TRACER = Tracer(METRICS, emit=_EVENTS.emit)
LOGS = LogState()
_telemetry_dir: Optional[Path] = None


def enabled() -> bool:
    """Is telemetry collection on in this process?"""
    return METRICS.enabled


def telemetry_dir() -> Optional[Path]:
    """The configured artifact directory, if any."""
    return _telemetry_dir


def configure(
    *,
    enabled: bool = True,
    telemetry_dir: Optional[Union[str, Path]] = None,
    verbosity: Optional[int] = None,
) -> None:
    """Turn telemetry on/off and point its event stream.

    Args:
        enabled: Master switch for metrics, spans and log events.
        telemetry_dir: Directory for run artifacts (manifest, metrics,
            per-process event streams); None keeps telemetry in-memory.
        verbosity: Console log verbosity (``obs.QUIET`` / ``NORMAL``);
            None leaves it unchanged.
    """
    global _telemetry_dir
    METRICS.enabled = enabled
    if telemetry_dir is not None:
        _telemetry_dir = Path(telemetry_dir)
        _EVENTS.directory = _telemetry_dir if enabled else None
    elif not enabled:
        _EVENTS.directory = None
    LOGS.emit_event = _EVENTS.emit if (enabled and _EVENTS.directory) else None
    if verbosity is not None:
        LOGS.verbosity = verbosity


def get_logger(name: str) -> StructuredLogger:
    """A named structured logger bound to the process-wide log state."""
    return StructuredLogger(name, LOGS)


def reset() -> None:
    """Restore pristine (disabled) state -- tests use this between cases."""
    global _telemetry_dir, _run_id
    METRICS.enabled = False
    METRICS.clear()
    TRACER.clear()
    _EVENTS.close()
    _EVENTS.directory = None
    _telemetry_dir = None
    _run_id = None
    LOGS.verbosity = NORMAL
    LOGS.emit_event = None


# ---------------------------------------------------------------------------
# Cross-process plumbing
# ---------------------------------------------------------------------------
def export_config() -> Optional[dict]:
    """Picklable config a pool worker applies to mirror this process.

    None when telemetry is disabled (workers then skip configuration
    entirely, keeping the disabled path allocation-free).
    """
    if not METRICS.enabled:
        return None
    return {
        "enabled": True,
        "telemetry_dir": str(_telemetry_dir) if _telemetry_dir else None,
        "verbosity": LOGS.verbosity,
        "run_id": run_id(),
    }


def apply_config(config: Optional[dict]) -> None:
    """Apply an :func:`export_config` payload inside a pool worker."""
    global _run_id
    if not config:
        return
    if config.get("run_id"):
        _run_id = config["run_id"]
    configure(
        enabled=config.get("enabled", True),
        telemetry_dir=config.get("telemetry_dir"),
        verbosity=config.get("verbosity"),
    )


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------
def write_telemetry(
    directory: Optional[Union[str, Path]] = None,
    *,
    manifest: Optional[RunManifest] = None,
) -> Dict[str, Path]:
    """Write the metrics snapshot (and manifest) as run artifacts.

    Args:
        directory: Target directory; defaults to the configured
            telemetry directory.
        manifest: A run manifest to finalize (its ``metrics`` field is
            filled with the snapshot unless already set) and write.

    Returns:
        ``{artifact name: written path}``.

    Raises:
        ValueError: No directory configured and none given.
    """
    target = Path(directory) if directory is not None else _telemetry_dir
    if target is None:
        raise ValueError("no telemetry directory configured; pass directory=")
    target.mkdir(parents=True, exist_ok=True)
    snapshot = METRICS.snapshot()
    written: Dict[str, Path] = {}
    metrics_path = target / "metrics.jsonl"
    metrics_path.write_text("\n".join(snapshot_to_jsonl(snapshot)) + "\n")
    written["metrics"] = metrics_path
    if manifest is not None:
        if manifest.finished_at is None:
            manifest.finalize(metrics=snapshot)
        elif manifest.metrics is None:
            manifest.metrics = snapshot
        written["manifest"] = manifest.write(target / "manifest.json")
    return written


__all__ = [
    "LOGS",
    "METRICS",
    "TRACER",
    "apply_config",
    "configure",
    "enabled",
    "export_config",
    "get_logger",
    "reset",
    "run_id",
    "telemetry_dir",
    "write_telemetry",
]
