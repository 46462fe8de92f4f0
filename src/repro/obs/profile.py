"""Opt-in sampling profiler that credits stacks to open spans.

A daemon thread wakes every few milliseconds, reads the Python stack
of every thread with an open span (``sys._current_frames()``) and
credits it to that thread's innermost open span or child scope
(:meth:`~repro.obs.tracing.Tracer.innermost_spans`).  Stacks aggregate
as collapsed-stack counts, the ``frame;frame;frame count`` format
flamegraph tooling consumes directly.  Spans open only while telemetry
is enabled, so the profiler needs it too.

Enable with ``REPRO_PROFILE=1`` (spawned workers inherit it) or
:meth:`SamplingProfiler.enable`; while disabled no sampler thread
exists.  Output is one ``profile-<span>-<pid>.collapsed`` file per span
name per process, written by :func:`repro.obs.runtime.write_telemetry`
and, in process-pool workers, after every cell.  A forked worker keeps
the enabled flag but not the sampler thread; the pool initializer calls
:meth:`SamplingProfiler.enable`, which also drops the parent's samples.

The sampler is a thread, not a ``signal``/``setitimer`` handler,
because signals reach only the main thread.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.runtime import TRACER
from repro.obs.tracing import Tracer

#: Truthy values enable the profiler for the whole process tree.
PROFILE_ENV = "REPRO_PROFILE"

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


class SamplingProfiler:
    """Collapsed-stack sampling profiler keyed by the innermost open span.

    Args:
        tracer: Tracer whose open spans name the samples.
        interval_s: Wall-clock spacing between stack samples.  5 ms
            keeps the sampler under ~1% of a busy core while resolving
            phases tens of milliseconds long.
    """

    def __init__(self, tracer: Tracer, interval_s: float = 0.005) -> None:
        self.tracer = tracer
        self.interval_s = interval_s
        self.enabled = False
        self._lock = threading.Lock()
        #: span name -> Counter[collapsed stack] -> sample count.
        self._samples: Dict[str, Counter] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._pid = os.getpid()

    # -- lifecycle -----------------------------------------------------
    def enable(self) -> None:
        """Start sampling, unless this process already runs a sampler.

        A forked child inherits ``enabled``, the parent's samples and
        its (possibly held) lock, but no sampler thread: here it
        replaces the samples and lock and starts its own sampler.
        """
        self.enabled = True
        if self._thread is not None and self._thread.is_alive():
            return
        if self._pid != os.getpid():
            self._pid = os.getpid()
            self._lock = threading.Lock()
            self._samples = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._sample_loop, args=(self._stop,), name="repro-profiler", daemon=True
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
        """Drop collected samples (tests)."""
        with self._lock:
            self._samples.clear()

    # -- sampling ------------------------------------------------------
    def _sample_loop(self, stop: threading.Event) -> None:
        while not stop.wait(self.interval_s):
            innermost = self.tracer.innermost_spans()
            if not innermost:
                continue
            frames = sys._current_frames()
            with self._lock:
                for ident, span in innermost.items():
                    frame = frames.get(ident)
                    if frame is not None:
                        self._samples.setdefault(span, Counter())[_collapse(frame)] += 1

    # -- output --------------------------------------------------------
    def samples(self) -> Dict[str, Counter]:
        """A copy of the collected per-span stack counters."""
        with self._lock:
            return {span: Counter(c) for span, c in self._samples.items()}

    def write(self, directory: Union[str, Path]) -> List[Path]:
        """Write one ``profile-<span>-<pid>.collapsed`` file per span name.

        Returns the written paths (empty when nothing was sampled).
        Counts accumulate across calls within one process; rewriting is
        idempotent because files are keyed by span name and pid.
        """
        snapshot = self.samples()
        if not snapshot:
            return []
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        pid = os.getpid()
        written: List[Path] = []
        for span, counts in sorted(snapshot.items()):
            safe = span.replace("/", "_").replace(" ", "_")
            path = target / f"profile-{safe}-{pid}.collapsed"
            lines = [f"{stack} {count}" for stack, count in sorted(counts.items())]
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
        return written


#: Process-wide profiler over the process-wide tracer.
PROFILER = SamplingProfiler(TRACER)

if os.environ.get(PROFILE_ENV, "").strip().lower() in _TRUTHY:
    PROFILER.enable()


__all__ = [
    "PROFILE_ENV",
    "PROFILER",
    "SamplingProfiler",
]
