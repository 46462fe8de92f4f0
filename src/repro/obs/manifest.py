"""Run manifests: everything needed to interpret (or rerun) a campaign.

A :class:`RunManifest` records what was run (command, argv, config
grid, seeds), on what (git SHA, python/numpy versions, platform), when
(wall-clock start/finish plus a monotonic duration immune to NTP
steps), and what came out (the final metrics snapshot).  One manifest
is written per run as ``manifest.json`` inside the telemetry
directory; ``scripts/validate_telemetry.py`` checks it against the
schema in :mod:`repro.obs.schema`.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA_VERSION = 1


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def git_sha(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """HEAD commit of the checkout the package runs from, or None.

    Defaults to the package's own directory, not the process cwd -- a
    run driven from a scratch directory still records which commit of
    the repo produced it (and a pip-installed tree yields None).
    """
    if cwd is None:
        cwd = Path(__file__).resolve().parent
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _package_versions() -> Dict[str, str]:
    versions: Dict[str, str] = {"python": _platform.python_version()}
    try:
        import numpy

        versions["numpy"] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        pass
    try:
        from repro import __version__ as repro_version

        versions["repro"] = repro_version
    except Exception:  # pragma: no cover - import cycle during bootstrap
        pass
    return versions


@dataclass
class RunManifest:
    """Provenance record for one telemetry-enabled run.

    Build one with :meth:`create` when the run starts, call
    :meth:`finalize` when it ends, then :meth:`write` it.
    """

    command: str
    run_id: str
    argv: List[str] = field(default_factory=list)
    started_at: str = ""
    finished_at: Optional[str] = None
    duration_s: Optional[float] = None
    git_sha: Optional[str] = None
    platform: str = ""
    packages: Dict[str, str] = field(default_factory=dict)
    seeds: Dict[str, int] = field(default_factory=dict)
    config: Dict[str, Any] = field(default_factory=dict)
    metrics: Optional[dict] = None
    schema_version: int = MANIFEST_SCHEMA_VERSION
    #: Monotonic anchor for duration_s (not serialized).
    _t0: float = field(default=0.0, repr=False, compare=False)

    @classmethod
    def create(
        cls,
        command: str,
        *,
        argv: Optional[List[str]] = None,
        config: Optional[Dict[str, Any]] = None,
        seeds: Optional[Dict[str, int]] = None,
        run_id: Optional[str] = None,
    ) -> "RunManifest":
        """Start a manifest for a run beginning now."""
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        return cls(
            command=command,
            run_id=run_id or f"{command}-{stamp}-p{os.getpid()}",
            argv=list(argv if argv is not None else sys.argv),
            started_at=_utc_now(),
            git_sha=git_sha(),
            platform=_platform.platform(),
            packages=_package_versions(),
            seeds=dict(seeds or {}),
            config=dict(config or {}),
            _t0=time.perf_counter(),
        )

    # ------------------------------------------------------------------
    def finalize(self, metrics: Optional[dict] = None) -> "RunManifest":
        """Stamp the end of the run; attach the final metrics snapshot.

        ``duration_s`` is monotonic (``perf_counter`` delta since
        :meth:`create`), so a wall-clock step mid-run cannot make it
        negative or wildly wrong.
        """
        self.finished_at = _utc_now()
        if self._t0:
            self.duration_s = round(time.perf_counter() - self._t0, 6)
        if metrics is not None:
            self.metrics = metrics
        return self

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "run_id": self.run_id,
            "argv": list(self.argv),
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "duration_s": self.duration_s,
            "git_sha": self.git_sha,
            "platform": self.platform,
            "packages": dict(self.packages),
            "seeds": dict(self.seeds),
            "config": dict(self.config),
            "metrics": self.metrics,
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Serialize to ``path`` (atomic temp + replace)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.to_dict(), indent=2, default=str) + "\n")
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        """Read a manifest back (raises ValueError on malformed files)."""
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict) or "command" not in data or "run_id" not in data:
            raise ValueError(f"{path} is not a run manifest")
        return cls(
            command=data["command"],
            run_id=data["run_id"],
            argv=list(data.get("argv", [])),
            started_at=data.get("started_at", ""),
            finished_at=data.get("finished_at"),
            duration_s=data.get("duration_s"),
            git_sha=data.get("git_sha"),
            platform=data.get("platform", ""),
            packages=dict(data.get("packages", {})),
            seeds=dict(data.get("seeds", {})),
            config=dict(data.get("config", {})),
            metrics=data.get("metrics"),
            schema_version=int(data.get("schema_version", 0)),
        )


__all__ = ["MANIFEST_SCHEMA_VERSION", "RunManifest", "git_sha"]
