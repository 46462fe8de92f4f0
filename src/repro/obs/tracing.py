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
emits one record per child name, parented to it.

Each finished span is recorded three ways:

* the metrics registry gets ``span.count{span=..., status=...}`` and
  its duration added to the ``span.seconds{span=...}`` counter,
* the telemetry event stream (when configured) gets one JSON line with
  the span's full nesting ``path``, duration, and attributes,
* a bounded in-memory ring (:attr:`Tracer.finished`) keeps the most
  recent records for tests and ad-hoc inspection.

**Trace context.**  Every live span carries a
``(trace_id, span_id, parent_span_id)`` triple.  The first span opened
on a thread with no active context mints a fresh ``trace_id`` and
becomes the root of a trace; nested spans inherit the trace and parent
off the thread's stack.  The context crosses process boundaries as a
compact token -- :meth:`Tracer.current_context` yields
``"<trace_id>:<span_id>"``, and :meth:`Tracer.attach` installs such a
token as the parent of whatever spans a worker opens next -- so a cell
computed by a pool worker still names the span that dispatched it as
its parent.

Durations come from ``time.perf_counter()`` -- monotonic, so an NTP
step during a run can never produce a negative span.  Span events also
carry ``ts_mono`` (the emitting process's monotonic clock) alongside
the wall-clock ``ts``, so events of one process can be ordered even
across a wall-clock (NTP) adjustment mid-run.  With telemetry disabled,
:meth:`Tracer.span` returns a shared no-op context manager whose
``child`` returns itself: the hot path pays one boolean check and no
allocation.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.obs.metrics import MetricsRegistry


def new_id() -> str:
    """A fresh 64-bit hex id for a trace or span (collision-negligible)."""
    return os.urandom(8).hex()


def make_context(trace_id: str, span_id: str) -> str:
    """Pack a ``(trace_id, span_id)`` pair into its wire token."""
    return f"{trace_id}:{span_id}"


def parse_context(token: str) -> Optional[tuple]:
    """``"trace:span"`` -> ``(trace_id, span_id)``; None when malformed."""
    if not token or ":" not in token:
        return None
    trace_id, _, span_id = token.partition(":")
    if not trace_id or not span_id:
        return None
    return trace_id, span_id


@dataclass(frozen=True)
class SpanRecord:
    """One finished span."""

    name: str
    path: str  #: Slash-joined ancestry, e.g. ``campaign.run/campaign.cell``.
    duration_s: float
    status: str  #: ``ok`` or ``error`` (an exception escaped the span).
    attrs: Dict[str, object] = field(default_factory=dict)
    trace_id: str = ""  #: Trace this span belongs to.
    span_id: str = ""  #: This span's own id.
    parent_span_id: str = ""  #: Empty for a trace root.

    def to_event(self) -> dict:
        return {
            "type": "span",
            "name": self.name,
            "path": self.path,
            "duration_s": self.duration_s,
            "status": self.status,
            "attrs": self.attrs,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "ts": time.time(),
            "ts_mono": time.monotonic(),
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
        self._frame = frame  # (name, span_id, trace_id), pushed per lap
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
    __slots__ = ("_tracer", "name", "attrs", "_t0", "_path", "_ids", "_stack", "_children")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._path = ""
        self._t0 = 0.0
        self._ids = ("", "", "")  # (trace_id, span_id, parent_span_id)
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
            frame = (name, new_id(), self._ids[0])
            scope = self._children[name] = _ChildScope(self._stack, frame)
        return scope

    def __enter__(self) -> "_LiveSpan":
        stack = self._stack = self._tracer._stack()
        if stack:
            _, parent_id, trace_id = stack[-1]
        else:
            parent_id, trace_id = "", new_id()
        span_id = new_id()
        self._ids = (trace_id, span_id, parent_id)
        stack.append((self.name, span_id, trace_id))
        self._path = "/".join(frame[0] for frame in stack if frame[0])
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        stack = self._stack
        if stack and stack[-1][1] == self._ids[1]:
            stack.pop()
        trace_id, span_id, parent_id = self._ids
        for name, scope in self._children.items():
            self._tracer._finish(
                SpanRecord(
                    name=name,
                    path=f"{self._path}/{name}",
                    duration_s=scope.seconds,
                    status="error" if scope.failed else "ok",
                    attrs={"laps": scope.laps},
                    trace_id=trace_id,
                    span_id=scope._frame[1],
                    parent_span_id=span_id,
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
                span_id=span_id,
                parent_span_id=parent_id,
            )
        )
        return False


class _AttachedContext:
    """Installs a remote parent context on the current thread's stack.

    The frame has no name, so it contributes nothing to span ``path``s;
    it only donates its trace id and span id to child spans.
    """

    __slots__ = ("_tracer", "_trace_id", "_span_id")

    def __init__(self, tracer: "Tracer", trace_id: str, span_id: str) -> None:
        self._tracer = tracer
        self._trace_id = trace_id
        self._span_id = span_id

    def __enter__(self) -> "_AttachedContext":
        self._tracer._stack().append((None, self._span_id, self._trace_id))
        return self

    def __exit__(self, *exc_info: object) -> bool:
        stack = self._tracer._stack()
        if stack and stack[-1][0] is None and stack[-1][1] == self._span_id:
            stack.pop()
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
        #: thread id -> that thread's span stack.
        self._stacks: Dict[int, list] = {}

    def _stack(self) -> list:
        # Frames are (name, span_id, trace_id); name is None for
        # attached remote contexts (excluded from paths).
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object):
        """Context manager timing one nested phase (no-op when disabled)."""
        if not self.registry.enabled:
            return _NULL_SPAN
        return _LiveSpan(self, name, attrs)

    def attach(self, context: Optional[str]):
        """Adopt a remote ``"trace:span"`` token as the current parent.

        Spans opened inside the returned context manager join the remote
        trace as children of the remote span -- this is how a pool
        worker hangs its ``campaign.cell`` span off the span that
        dispatched the cell.  A falsy or malformed token (or disabled
        telemetry) yields the shared no-op.
        """
        if not self.registry.enabled or not context:
            return _NULL_SPAN
        parsed = parse_context(context)
        if parsed is None:
            return _NULL_SPAN
        return _AttachedContext(self, parsed[0], parsed[1])

    def current_context(self) -> Optional[str]:
        """The active ``"trace:span"`` token (None outside any span)."""
        if not self.registry.enabled:
            return None
        stack = self._stack()
        if not stack:
            return None
        _, span_id, trace_id = stack[-1]
        return make_context(trace_id, span_id)

    def current_path(self) -> str:
        """The active span ancestry (empty string outside any span)."""
        return "/".join(frame[0] for frame in self._stack() if frame[0])

    def innermost_spans(self) -> Dict[int, str]:
        """Thread id -> name of that thread's innermost open span.

        Safe to call from any thread (the sampling profiler does).
        Threads whose top frame is no span or an attached remote
        context are left out.
        """
        innermost: Dict[int, str] = {}
        for ident, stack in list(self._stacks.items()):
            top = stack[-1:]  # never raises, even as the owner pops
            if top and top[0][0]:
                innermost[ident] = top[0][0]
        return innermost

    def clear(self) -> None:
        """Drop recorded spans (the registry is cleared separately)."""
        self.finished.clear()
        self._stacks = {}

    # ------------------------------------------------------------------
    def _finish(self, record: SpanRecord) -> None:
        self.finished.append(record)
        self.registry.inc("span.count", span=record.name, status=record.status)
        self.registry.inc("span.seconds", record.duration_s, span=record.name)
        if self.emit is not None:
            self.emit(record.to_event())


__all__ = [
    "SpanRecord",
    "Tracer",
    "make_context",
    "new_id",
    "parse_context",
]
