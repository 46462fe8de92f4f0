"""Opt-in sampling profiler scoped around the hot kernels.

A production campaign spends almost all of its time inside a handful of
hot kernels (trace translation, trace analysis and its chunk merge, and
remap-sweep advancement).  This module answers "*where inside them*"
without instrumenting a single kernel line: a daemon thread samples the
Python stacks of threads currently inside a profiled phase every few
milliseconds via ``sys._current_frames()`` and aggregates them into
collapsed-stack counts -- the ``frame;frame;frame count`` format
flamegraph tooling consumes directly.

Opt-in and zero-overhead when off:

* enable with ``REPRO_PROFILE=1`` in the environment (workers inherit
  it like every other telemetry variable) or programmatically via
  :meth:`SamplingProfiler.enable`;
* while disabled, :meth:`SamplingProfiler.phase` returns a shared no-op
  scope -- no thread, no lock, no allocation exists;
* while enabled, entering a phase registers the calling thread with the
  sampler; samples are attributed to the innermost active phase.

Phases are scoped at one layer, the production entry points themselves:
``analyze_trace`` and the chunk merge in ``repro.dram.fast_model``,
``XorRemapEngine.remap_steps``, and the simulator's ``translate_trace``
call sites.  Nested same-phase scopes are harmless.

Output: one ``profile-<phase>-<pid>.collapsed`` file per profiled phase
per process, written into the telemetry directory by
:func:`repro.obs.runtime.write_telemetry` (and at interpreter exit for
worker processes, which never call ``write_telemetry`` themselves).

The thread-based sampler is deliberate over a ``signal``/``setitimer``
one: signals can only interrupt the main thread, while campaign cells
run on worker threads (heartbeat pumps, net-worker sessions) -- and a
sampler thread works identically on every platform the test suite runs
on.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Union

#: Truthy values enable the profiler for the whole process tree.
PROFILE_ENV = "REPRO_PROFILE"
#: Override the sampling interval, in milliseconds (default 5).
PROFILE_INTERVAL_ENV = "REPRO_PROFILE_INTERVAL_MS"

_TRUTHY = {"1", "true", "yes", "on"}


def _collapse(frame) -> str:
    """A frame chain -> root-first ``module:function;...`` stack line."""
    parts: List[str] = []
    while frame is not None:
        code = frame.f_code
        module = os.path.splitext(os.path.basename(code.co_filename))[0]
        parts.append(f"{module}:{code.co_name}")
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class _PhaseScope:
    """Context manager marking the calling thread as inside one phase."""

    __slots__ = ("_profiler", "_phase", "_ident", "_previous")

    def __init__(self, profiler: "SamplingProfiler", phase: str) -> None:
        self._profiler = profiler
        self._phase = phase
        self._ident = 0
        self._previous: Optional[str] = None

    def __enter__(self) -> "_PhaseScope":
        self._ident = threading.get_ident()
        self._previous = self._profiler._enter(self._ident, self._phase)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._profiler._exit(self._ident, self._previous)
        return False


class _NullScope:
    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SCOPE = _NullScope()


class SamplingProfiler:
    """Collapsed-stack sampling profiler for phase-scoped hot sections.

    Args:
        interval_s: Wall-clock spacing between stack samples.  5 ms
            keeps the sampler under ~1% of a busy core while resolving
            phases tens of milliseconds long.
    """

    def __init__(self, interval_s: float = 0.005) -> None:
        self.interval_s = interval_s
        self.enabled = False
        self._lock = threading.Lock()
        #: phase -> Counter[collapsed stack] -> sample count.
        self._samples: Dict[str, Counter] = {}
        #: thread ident -> innermost active phase name.
        self._active: Dict[int, str] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------
    def enable(self, interval_s: Optional[float] = None) -> None:
        """Start sampling phases entered from now on (idempotent)."""
        if interval_s is not None:
            self.interval_s = interval_s
        if self.enabled:
            return
        self.enabled = True
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def disable(self) -> None:
        """Stop the sampler thread; collected samples are retained."""
        self.enabled = False
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def clear(self) -> None:
        """Drop collected samples and phase registrations (tests)."""
        with self._lock:
            self._samples.clear()
            self._active.clear()

    # -- phase scoping -------------------------------------------------
    def phase(self, name: str):
        """Context manager attributing the calling thread's samples to
        ``name`` for its duration (no-op while disabled)."""
        if not self.enabled:
            return _NULL_SCOPE
        return _PhaseScope(self, name)

    def _enter(self, ident: int, phase: str) -> Optional[str]:
        with self._lock:
            previous = self._active.get(ident)
            self._active[ident] = phase
        return previous

    def _exit(self, ident: int, previous: Optional[str]) -> None:
        with self._lock:
            if previous is None:
                self._active.pop(ident, None)
            else:
                self._active[ident] = previous

    # -- sampling ------------------------------------------------------
    def _sample_loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            with self._lock:
                if not self._active:
                    continue
                active = dict(self._active)
            frames = sys._current_frames()
            collapsed = {
                ident: _collapse(frame)
                for ident, frame in frames.items()
                if ident in active
            }
            with self._lock:
                for ident, stack in collapsed.items():
                    phase = self._active.get(ident)
                    if phase is None:
                        continue  # phase exited between snapshot and here
                    self._samples.setdefault(phase, Counter())[stack] += 1

    # -- output --------------------------------------------------------
    def samples(self) -> Dict[str, Counter]:
        """A copy of the collected per-phase stack counters."""
        with self._lock:
            return {phase: Counter(c) for phase, c in self._samples.items()}

    def write(self, directory: Union[str, Path]) -> List[Path]:
        """Write one ``profile-<phase>-<pid>.collapsed`` file per phase.

        Returns the written paths (empty when nothing was sampled).
        Counts accumulate across calls within one process; rewriting is
        idempotent because files are keyed by phase and pid.
        """
        snapshot = self.samples()
        if not snapshot:
            return []
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        pid = os.getpid()
        written: List[Path] = []
        for phase, counts in sorted(snapshot.items()):
            safe = phase.replace("/", "_").replace(" ", "_")
            path = target / f"profile-{safe}-{pid}.collapsed"
            lines = [f"{stack} {count}" for stack, count in sorted(counts.items())]
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
        return written


#: Process-wide profiler instance (mirrors the METRICS/TRACER singletons).
PROFILER = SamplingProfiler()


def profiling_enabled() -> bool:
    """Is the process-wide sampling profiler collecting?"""
    return PROFILER.enabled


def _write_at_exit() -> None:
    """Worker processes never call ``write_telemetry``; flush here."""
    if not PROFILER.samples():
        return
    from repro.obs import runtime

    directory = runtime.telemetry_dir()
    if directory is not None:
        try:
            PROFILER.write(directory)
        except OSError:
            pass


def _configure_from_env() -> None:
    flag = os.environ.get(PROFILE_ENV, "").strip().lower()
    if flag not in _TRUTHY:
        return
    interval_ms = os.environ.get(PROFILE_INTERVAL_ENV, "").strip()
    try:
        interval_s = float(interval_ms) / 1000.0 if interval_ms else None
    except ValueError:
        interval_s = None
    PROFILER.enable(interval_s)
    atexit.register(_write_at_exit)


_configure_from_env()


__all__ = [
    "PROFILE_ENV",
    "PROFILE_INTERVAL_ENV",
    "PROFILER",
    "SamplingProfiler",
    "profiling_enabled",
]
