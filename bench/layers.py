"""Per-layer spans for the benchmark's traced runs.

A traced pass wraps each layer's public entry point at the site the
program looks it up -- the class attribute for a method, the calling
module's global for a function (``repro.perf.simulator.analyze_trace``,
not ``repro.dram.fast_model.analyze_trace``) -- and records one span
``[name, start, end, parent, cell]`` per call in memory.  All spans under
one campaign cell or analysis window share a cell id.  A layer's self
time is its spans' duration minus the time their child spans cover; the
pass's own root span keeps whatever no layer claimed (``unattributed_s``),
so the self times of a pass add up to its wall time.

Wrappers are installed only for traced passes and removed afterwards.
Pool workers forked while they are installed inherit them, but their
spans stay in the worker, so the pool workload's per-layer numbers come
from the parent and from the journal.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT_SPAN = "bench.pass"
#: Spans that start a new cell id when no enclosing span has one.
CELL_SPANS = ("perf.window_stats", "experiments.execute_cell")


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _layers():
    """(owner, attribute, span name, counter) for every traced layer.

    A counter maps ``(args, result, before)`` to the work counts of one
    call; ``before`` is the value of the optional pre-call probe.
    """
    from repro.core.rubix_d import RubixDMapping
    from repro.core.rubix_s import RubixSMapping
    from repro.crypto.kcipher import KCipher
    from repro.dram.fast_model import ChunkedAnalyzer
    from repro.experiments import campaign
    from repro.mapping.base import FieldDecodeMapping
    from repro.parallel.cache import StatsCache
    from repro.perf import simulator
    from repro.perf.core_model import PerformanceModel
    from repro.resilience.executor import ResilientExecutor
    from repro.resilience.journal import CheckpointJournal
    from repro.workloads import spec, trace_io

    def cache_outcome(args, result, was_in_memory):
        if result is None:
            return {"misses": 1}
        return {"hits": 1} if was_in_memory else {"disk_hits": 1}

    return [
        (spec, "spec_trace", "workloads.spec_trace",
         lambda a, r, b: {"lines": _size(r.lines)}),
        (trace_io, "load_trace", "workloads.load_trace", None),
        (FieldDecodeMapping, "translate_trace", "mapping.translate_trace",
         lambda a, r, b: {"lines": _size(a[1])}),
        (KCipher, "encrypt", "crypto.encrypt", lambda a, r, b: {"values": _size(a[1])}),
        (RubixSMapping, "translate_trace", "core.rubix_s.translate_trace", None),
        (RubixDMapping, "translate_trace", "core.rubix_d.translate_trace",
         lambda a, r, b: {"lines": _size(a[1])}),
        (RubixDMapping, "record_activations", "core.rubix_d.record_activations",
         lambda a, r, b: {"swaps": int(r)}),
        (RubixDMapping, "__init__", "core.rubix_d.init", None),
        (simulator, "analyze_trace", "dram.analyze_trace",
         lambda a, r, b: {"lines": _size(a[0]), "activations": int(r.n_activations)}),
        (ChunkedAnalyzer, "feed", "dram.chunked_feed", lambda a, r, b: {"lines": _size(a[1])}),
        (ChunkedAnalyzer, "result", "dram.chunked_result", None),
        (simulator.Simulator, "window_stats", "perf.window_stats", None),
        (simulator.Simulator, "run", "perf.run", None),
        (PerformanceModel, "mitigation_load", "perf.mitigation_load", None),
        (StatsCache, "get", "parallel.cache_get", cache_outcome,
         lambda cache, key: key in cache),
        (StatsCache, "put", "parallel.cache_put", None),
        (ResilientExecutor, "execute", "resilience.execute", None),
        (campaign, "check_result_invariants", "resilience.check_invariants", None),
        (CheckpointJournal, "append", "resilience.journal_append", None),
        (campaign.Campaign, "execute_cell", "experiments.execute_cell", None),
    ]


class Recorder:
    """In-memory span store plus per-layer work counters."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, cell id]`` per call.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._cells = 0

    def wrap(
        self,
        name: str,
        fn: Callable,
        count: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call under ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            cell = self.spans[parent][4] if parent is not None else None
            if cell is None and name in CELL_SPANS:
                self._cells += 1
                cell = self._cells
            span = [name, 0.0, 0.0, parent, cell]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            probe = before(*args, **kwargs) if before else None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count:
                for key, value in count(args, result, probe).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block."""
        saved = []
        try:
            for owner, attribute, name, count, *before in _layers():
                original = getattr(owner, attribute)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(name, original, count, *before))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def traced_pass(self, run_pass: Callable, index: int):
        """``run_pass(index)`` under the root span, with every layer wrapped."""
        with self.installed():
            return self.wrap(ROOT_SPAN, run_pass)(index)

    # ------------------------------------------------------------------
    def layer_values(self, passes: int) -> Dict[str, float]:
        """Per-pass averages: ``<layer>.calls``, ``.self_s``, work counts."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        values: Dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), children in zip(self.spans, covered):
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += end - start - children
            if name == ROOT_SPAN:
                values["trace.wall_s"] += end - start
        for key, value in self.counts.items():
            values[key] += value
        out = {key: value / passes for key, value in values.items()}
        out["unattributed_s"] = out.pop(f"{ROOT_SPAN}.self_s", 0.0)
        lookups = out.get("parallel.cache_get.calls", 0.0)
        hits = out.get("parallel.cache_get.hits", 0.0) + out.get(
            "parallel.cache_get.disk_hits", 0.0
        )
        out["parallel.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON object per span; ``parent`` is the parent's ``id``."""
        with open(path, "w") as handle:
            for index, (name, start, end, parent, cell) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "cell": cell,
                }) + "\n")


def format_table(values: Dict[str, float]) -> str:
    """Per-layer table: one row per layer, self time descending."""
    layers = sorted(
        {key.rsplit(".", 1)[0] for key in values if key.endswith(".self_s")},
        key=lambda layer: -values[f"{layer}.self_s"],
    )
    lines = [f"{'layer':<36} {'calls':>9} {'self_s':>10}  counts"]
    for layer in layers:
        counts = "  ".join(
            f"{key.rsplit('.', 1)[1]}={values[key]:.0f}"
            for key in sorted(values)
            if key.startswith(layer + ".")
            and key.rsplit(".", 1)[1] not in ("calls", "self_s")
            and key.count(".") == layer.count(".") + 1
        )
        lines.append(
            f"{layer:<36} {values[f'{layer}.calls']:>9.0f}"
            f" {values[f'{layer}.self_s']:>10.4f}  {counts}"
        )
    lines.append(f"{'unattributed':<36} {'':>9} {values['unattributed_s']:>10.4f}")
    lines.append(f"{'traced wall':<36} {'':>9} {values['trace.wall_s']:>10.4f}")
    return "\n".join(lines)


__all__ = ["ROOT_SPAN", "Recorder", "format_table"]
