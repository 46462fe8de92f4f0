"""Span-based tracer: the one way the simulation stack times a phase.

Spans nest -- experiment -> cell -> window -> translate / analyze -- on
an explicit per-thread stack::

    with tracer.span("sim.window", mapping="rubix-d") as window:
        for chunk in chunks:
            with window.child("sim.translate"):
                ...

A child scope (:meth:`_LiveSpan.child`) times a phase entered many
times inside one span: it is made once per name, each lap pushes one
prebuilt frame and adds its elapsed time, and when the parent closes it
emits one record per child name under the parent's path.

Each finished span is recorded three ways:

* the metrics registry gets ``span.count{span=..., status=...}`` and
  its duration added to the ``span.seconds{span=...}`` counter,
* the telemetry event stream (when configured) gets one JSON line with
  the span's full nesting ``path``, duration, and attributes,
* a bounded in-memory ring (:attr:`Tracer.finished`) keeps the most
  recent records for tests and ad-hoc inspection.

**Trace id.**  The first span opened on a thread with no open span
mints a fresh ``trace_id`` and becomes the root of a trace; every span
and child scope opened under it inherits that id.  Grouping span events
by ``trace_id`` credits each one to its root, e.g. the
``runner.experiment`` span of a serial suite run.

Durations come from ``time.perf_counter()`` -- monotonic, so an NTP
step during a run can never produce a negative span.  With telemetry
disabled, :meth:`Tracer.span` returns a shared no-op context manager
whose ``child`` returns itself: the hot path pays one boolean check and
no allocation.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.obs.metrics import MetricsRegistry


@dataclass(frozen=True)
class SpanRecord:
    """One finished span."""

    name: str
    path: str  #: Slash-joined ancestry, e.g. ``campaign.run/campaign.cell``.
    duration_s: float
    status: str  #: ``ok`` or ``error`` (an exception escaped the span).
    attrs: Dict[str, object] = field(default_factory=dict)
    trace_id: str = ""  #: Minted by the trace's root span.

    def to_event(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "path": self.path,
            "duration_s": self.duration_s,
            "status": self.status,
            "attrs": self.attrs,
            "trace_id": self.trace_id,
            "ts": time.time(),
            "pid": os.getpid(),
        }


class _NullSpan:
    """Shared no-op context manager returned while telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: object) -> None:
        pass

    def child(self, name: str) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _ChildScope:
    """One named phase of a live span, timed over any number of laps."""

    __slots__ = ("_stack", "_frame", "_t0", "seconds", "laps", "failed")

    def __init__(self, stack: list, frame: tuple) -> None:
        self._stack = stack
        self._frame = frame  # (name, trace_id), pushed per lap
        self._t0 = 0.0
        self.seconds = 0.0
        self.laps = 0
        self.failed = False

    def __enter__(self) -> "_ChildScope":
        self._stack.append(self._frame)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds += time.perf_counter() - self._t0
        self.laps += 1
        self.failed = self.failed or exc_type is not None
        if self._stack and self._stack[-1] is self._frame:
            self._stack.pop()
        return False


class _LiveSpan:
    __slots__ = ("_tracer", "name", "attrs", "_t0", "_path", "_frame", "_stack", "_children")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._path = ""
        self._t0 = 0.0
        self._frame = (name, "")  # (name, trace_id), pushed on enter
        self._stack: list = []
        self._children: Dict[str, _ChildScope] = {}

    def set(self, **attrs: object) -> None:
        """Add attributes known only once the phase has run."""
        self.attrs.update(attrs)

    def child(self, name: str) -> _ChildScope:
        """The child scope ``name`` of this open span (one per name).

        Enter it once per lap on the span's own thread; the laps are
        recorded as one ``name`` span under this one when it closes.
        """
        scope = self._children.get(name)
        if scope is None:
            frame = (name, self._frame[1])
            scope = self._children[name] = _ChildScope(self._stack, frame)
        return scope

    def __enter__(self) -> "_LiveSpan":
        stack = self._stack = self._tracer._stack()
        trace_id = stack[-1][1] if stack else os.urandom(8).hex()
        self._frame = (self.name, trace_id)
        stack.append(self._frame)
        self._path = "/".join(frame[0] for frame in stack)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        stack = self._stack
        if stack and stack[-1] is self._frame:
            stack.pop()
        trace_id = self._frame[1]
        for name, scope in self._children.items():
            self._tracer._finish(
                SpanRecord(
                    name=name,
                    path=f"{self._path}/{name}",
                    duration_s=scope.seconds,
                    status="error" if scope.failed else "ok",
                    attrs={"laps": scope.laps},
                    trace_id=trace_id,
                )
            )
        self._tracer._finish(
            SpanRecord(
                name=self.name,
                path=self._path,
                duration_s=duration,
                status="error" if exc_type is not None else "ok",
                attrs=self.attrs,
                trace_id=trace_id,
            )
        )
        return False


class Tracer:
    """Produces nested spans; aggregates them into a metrics registry.

    Args:
        registry: Metrics registry span aggregates land in (its
            ``enabled`` flag also gates the tracer).
        emit: Optional sink for span events (one dict per finished
            span); the runtime wires this to the JSONL event stream.
        keep: Ring-buffer size for :attr:`finished`.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        emit: Optional[Callable[[dict], None]] = None,
        keep: int = 4096,
    ) -> None:
        self.registry = registry
        self.emit = emit
        self.finished: "deque[SpanRecord]" = deque(maxlen=keep)
        self._local = threading.local()

    def _stack(self) -> list:
        # This thread's open frames, each (name, trace_id), outermost first.
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object):
        """Context manager timing one nested phase (no-op when disabled)."""
        if not self.registry.enabled:
            return _NULL_SPAN
        return _LiveSpan(self, name, attrs)

    def clear(self) -> None:
        """Drop recorded spans (the registry is cleared separately)."""
        self.finished.clear()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _finish(self, record: SpanRecord) -> None:
        self.finished.append(record)
        self.registry.inc("span.count", span=record.name, status=record.status)
        self.registry.inc("span.seconds", record.duration_s, span=record.name)
        if self.emit is not None:
            self.emit(record.to_event())


__all__ = ["SpanRecord", "Tracer"]
