"""Span-based tracer for the simulation stack.

Spans nest -- campaign -> cell -> phase (trace-gen / translate /
analyze / mitigation) -- via an explicit per-thread stack::

    with tracer.span("campaign.cell", workload="gcc", scheme="aqua"):
        with tracer.span("sim.translate"):
            ...

Each finished span is recorded three ways:

* the metrics registry gets ``span.count{span=..., status=...}`` and a
  ``span.seconds{span=...}`` histogram observation,
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
across a wall-clock (NTP) adjustment mid-run.  With telemetry disabled, :meth:`Tracer.span` returns
a shared no-op context manager: the hot path pays one boolean check and
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
            "duration_s": round(self.duration_s, 9),
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


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    __slots__ = ("_tracer", "name", "attrs", "_t0", "_path", "_ids")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._path = ""
        self._t0 = 0.0
        self._ids = ("", "", "")  # (trace_id, span_id, parent_span_id)

    def set(self, **attrs: object) -> None:
        """Add attributes known only once the phase has run."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_LiveSpan":
        stack = self._tracer._stack()
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
        stack = self._tracer._stack()
        if stack and stack[-1][1] == self._ids[1]:
            stack.pop()
        trace_id, span_id, parent_id = self._ids
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
        self._local = threading.local()

    def _stack(self) -> list:
        # Frames are (name, span_id, trace_id); name is None for
        # attached remote contexts (excluded from paths).
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object):
        """Context manager timing one nested phase (no-op when disabled)."""
        if not self.registry.enabled:
            return _NULL_SPAN
        return _LiveSpan(self, name, attrs)

    def add(self, name: str, duration_s: float, **attrs: object) -> None:
        """Record a synthetic span from an externally-measured duration.

        Used where a phase's time is accumulated across loop iterations
        (e.g. per-chunk translate time inside a dynamic window) and a
        ``with`` block per iteration would be needless overhead.
        """
        if not self.registry.enabled:
            return
        stack = self._stack()
        names = [frame[0] for frame in stack if frame[0]]
        path = "/".join(names + [name]) if names else name
        if stack:
            _, parent_id, trace_id = stack[-1]
        else:
            parent_id, trace_id = "", new_id()
        self._finish(
            SpanRecord(
                name=name,
                path=path,
                duration_s=duration_s,
                status="ok",
                attrs=attrs,
                trace_id=trace_id,
                span_id=new_id(),
                parent_span_id=parent_id,
            )
        )

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

    def clear(self) -> None:
        """Drop recorded spans (the registry is cleared separately)."""
        self.finished.clear()
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _finish(self, record: SpanRecord) -> None:
        self.finished.append(record)
        self.registry.inc("span.count", span=record.name, status=record.status)
        self.registry.observe("span.seconds", record.duration_s, span=record.name)
        if self.emit is not None:
            self.emit(record.to_event())


__all__ = [
    "SpanRecord",
    "Tracer",
    "make_context",
    "new_id",
    "parse_context",
]
