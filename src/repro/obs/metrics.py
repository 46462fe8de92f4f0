"""Near-zero-overhead metrics registry: labelled counters.

Design constraints, in priority order:

1. **Disabled means free.**  Every mutation checks one boolean before
   doing anything; with telemetry off, an instrumented hot path pays a
   method call and an attribute load, nothing else.  The fast-tier
   kernels are instrumented at window/chunk granularity, so even that
   cost is amortized over millions of trace lines.
2. **Mergeable.**  A parallel campaign accumulates metrics in worker
   processes; each completion ships a *delta snapshot* back and the
   parent folds it in with :meth:`MetricsRegistry.merge`.  Counter
   totals therefore come out identical between a serial run and a
   process-pool run of the same cells.  Durations are counters too:
   the tracer adds each span's seconds to ``span.seconds{span}``.
3. **Bounded.**  Labelled series are capped per metric name
   (:data:`MAX_SERIES_PER_METRIC`); overflow folds into a single
   ``overflow="true"`` series instead of growing without limit, so a
   bug that labels a metric with, say, raw addresses cannot exhaust
   memory.

Snapshots are plain JSON-safe dicts, ``{"counters": {series key:
value}}``, exported as JSONL (one counter series per line, the format
``scripts/validate_telemetry.py`` checks).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

#: Hard cap on distinct label combinations per metric name.
MAX_SERIES_PER_METRIC = 512

_LABEL_SEP = "|"


def series_key(name: str, labels: Dict[str, object]) -> str:
    """Canonical flat key for one labelled series (stable ordering)."""
    if not labels:
        return name
    parts = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{_LABEL_SEP}{parts}"


def parse_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`series_key` (label values come back as strings)."""
    if _LABEL_SEP not in key:
        return key, {}
    name, _, packed = key.partition(_LABEL_SEP)
    labels: Dict[str, str] = {}
    for part in packed.split(","):
        if part:
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


class MetricsRegistry:
    """Process-local registry of labelled counters.

    Args:
        enabled: Initial state; the runtime singleton starts disabled
            and is flipped by :func:`repro.obs.configure`.

    All mutating calls are no-ops while :attr:`enabled` is False -- that
    single boolean is the telemetry layer's entire disabled-mode cost.
    """

    def __init__(self, *, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._series_per_name: Dict[str, int] = {}
        self.series_dropped = 0

    # -- mutation ------------------------------------------------------
    def inc(self, name: str, value: float = 1, **labels: object) -> None:
        """Add ``value`` to a counter series (created at 0 on first use)."""
        if not self.enabled:
            return
        key = self._admit(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def _admit(self, name: str, labels: Dict[str, object]) -> str:
        """Series key for (name, labels), enforcing the cardinality cap."""
        if not labels:
            return name
        key = series_key(name, labels)
        with self._lock:
            seen = self._series_per_name.setdefault(name, 0)
            if key not in self._counters:
                if seen >= MAX_SERIES_PER_METRIC:
                    self.series_dropped += 1
                    return series_key(name, {"overflow": "true"})
                self._series_per_name[name] = seen + 1
        return key

    # -- introspection -------------------------------------------------
    def counter_value(self, name: str, **labels: object) -> float:
        """Current value of one counter series (0 when absent)."""
        return self._counters.get(series_key(name, labels), 0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all of its label series."""
        return sum(
            v for k, v in self._counters.items() if parse_series_key(k)[0] == name
        )

    # -- snapshot / merge / diff ---------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe copy of the full registry state."""
        with self._lock:
            return {"counters": dict(self._counters)}

    def merge(self, snapshot: Optional[dict]) -> None:
        """Fold another process's snapshot (or delta) into this registry.

        Counters add.  Ignores the :attr:`enabled` flag -- merging
        completions into a just-disabled parent must not silently drop
        them.
        """
        if not snapshot:
            return
        with self._lock:
            for key, value in snapshot.get("counters", {}).items():
                self._counters[key] = self._counters.get(key, 0) + value

    def clear(self) -> None:
        """Drop all series (the enabled flag is left untouched)."""
        with self._lock:
            self._counters.clear()
            self._series_per_name.clear()
            self.series_dropped = 0


def diff_snapshots(after: dict, before: dict) -> dict:
    """The delta snapshot ``after - before`` (what one cell contributed).

    Counters subtract; series absent from ``before`` pass through and
    unchanged series drop out.  Used by pool workers to ship per-cell
    metric contributions to the parent without double-counting state
    inherited across ``fork``.
    """
    prior = before.get("counters", {})
    counters = {}
    for key, value in after.get("counters", {}).items():
        delta = value - prior.get(key, 0)
        if delta:
            counters[key] = delta
    return {"counters": counters}


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
def snapshot_to_jsonl(snapshot: dict) -> List[str]:
    """One JSON line per counter series, sorted for stable output."""
    lines: List[str] = []
    for key in sorted(snapshot.get("counters", {})):
        name, labels = parse_series_key(key)
        lines.append(
            json.dumps(
                {
                    "kind": "counter",
                    "name": name,
                    "labels": labels,
                    "value": snapshot["counters"][key],
                },
                sort_keys=True,
            )
        )
    return lines


def snapshot_from_jsonl(path: Union[str, Path]) -> dict:
    """Rebuild a snapshot dict from a ``metrics.jsonl`` file.

    Raises:
        ValueError: a line whose kind is not ``counter``.
    """
    counters: Dict[str, float] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        entry = json.loads(line)
        kind = entry.get("kind")
        if kind != "counter":
            raise ValueError(f"unknown metric kind {kind!r} in {path}")
        counters[series_key(entry["name"], entry.get("labels", {}))] = entry["value"]
    return {"counters": counters}


def filter_snapshot(snapshot: dict, prefixes: Iterable[str]) -> dict:
    """Subset of a snapshot whose metric names start with any prefix.

    The serial-vs-parallel equality contract holds for *semantic*
    counter families (``campaign.*``, ``mitigation.*``, ...); this is
    the helper tests use to compare exactly those.
    """
    prefixes = tuple(prefixes)
    return {
        "counters": {
            k: v
            for k, v in snapshot.get("counters", {}).items()
            if parse_series_key(k)[0].startswith(prefixes)
        }
    }


__all__ = [
    "MAX_SERIES_PER_METRIC",
    "MetricsRegistry",
    "diff_snapshots",
    "filter_snapshot",
    "parse_series_key",
    "series_key",
    "snapshot_from_jsonl",
    "snapshot_to_jsonl",
]
