"""Shared plumbing for the experiment runners.

Process-level caches keep the expensive artifacts -- generated traces
and per-(trace, mapping) window statistics -- shared across experiments,
so running the whole suite costs one analysis pass per configuration.
The trace cache is bounded in bytes (:data:`TRACE_CACHE_BYTES`):
generation is seeded, so an evicted trace comes back byte-identical.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.rubix_d import RubixDMapping
from repro.core.rubix_keyed_xor import KeyedXorMapping
from repro.core.rubix_s import RubixSMapping
from repro.dram.config import DRAMConfig, baseline_config, multichannel_config
from repro.errors import MappingConfigError, WorkloadConfigError
from repro.mapping.base import AddressMapping
from repro.mapping.intel import CoffeeLakeMapping, SkylakeMapping
from repro.mapping.linear import LinearMapping
from repro.mapping.mop import MOPMapping
from repro.mapping.stride import LargeStrideMapping
from repro.obs.runtime import METRICS, TRACER
from repro.parallel.cache import StatsCache
from repro.perf.simulator import Simulator
from repro.workloads.mixes import mix_names, mix_trace
from repro.workloads.spec import spec_names, spec_trace
from repro.workloads.stream_suite import stream_suite_names, stream_suite_trace
from repro.workloads.trace import Trace, _backing_mmap


@dataclass
class ExperimentResult:
    """Formatted output of one experiment (one table or figure)."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[List[object]]
    notes: List[str] = field(default_factory=list)

    def format(self) -> str:
        """Render as an aligned text table."""
        cells = [self.headers] + [[_fmt(v) for v in row] for row in self.rows]
        widths = [max(len(str(r[i])) for r in cells) for i in range(len(self.headers))]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells[1:]:
            lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serializable form (for --json exports and tooling)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize to JSON text."""
        import json

        return json.dumps(self.to_dict(), indent=indent, default=str)

    def column(self, header: str) -> List[object]:
        """Extract one column by header name (used by tests)."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def row_map(self, key_header: str = None) -> Dict[object, List[object]]:
        """Index rows by their first (or named) column."""
        index = 0 if key_header is None else self.headers.index(key_header)
        return {row[index]: row for row in self.rows}


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


# ---------------------------------------------------------------------------
# Shared caches
# ---------------------------------------------------------------------------
_SIMULATORS: Dict[DRAMConfig, Simulator] = {}
#: Where new simulators persist window statistics (see persist_window_stats).
_STATS_DIR: Optional[Union[str, Path]] = None
#: Cached traces, least recently used first.
_TRACES: "OrderedDict[Tuple, Trace]" = OrderedDict()

#: Line-array bytes the trace cache may hold.  The serial paper suite
#: needs 167 MB of traces live at once, so it generates none twice.
TRACE_CACHE_BYTES = 200_000_000


def _held_bytes(trace: Trace) -> int:
    """Memory a cached trace holds: a memory-mapped trace's pages belong to its file."""
    return 0 if _backing_mmap(trace.lines) is not None else trace.lines.nbytes


def get_simulator(config: Optional[DRAMConfig] = None) -> Simulator:
    """Process-wide simulator for one DRAM configuration.

    Keyed on the whole (frozen) config: row size and timing shape both
    the mappings a campaign builds from ``sim.config`` and the
    performance model, so configs differing in any field never share a
    simulator.  Inside :func:`persist_window_stats` a new simulator's
    window-statistics cache persists to that block's directory.
    """
    config = config or baseline_config()
    if config not in _SIMULATORS:
        _SIMULATORS[config] = Simulator(config, stats_cache=StatsCache(persist_dir=_STATS_DIR))
    return _SIMULATORS[config]


@contextmanager
def persist_window_stats(directory: Optional[Union[str, Path]]) -> Iterator[None]:
    """Keep every process-wide simulator's window statistics in ``directory``.

    Applies to the simulators that exist and to those built inside the
    block (fig15's 32 GB configurations), so sequential runs over one
    directory share one content-keyed cache on disk.  On exit each
    simulator goes back to the directory it had before, so the setting
    never outlives the block.  None leaves the caches as they are.
    """
    global _STATS_DIR
    if directory is None:
        yield
        return
    previous = _STATS_DIR
    _STATS_DIR = directory
    for sim in _SIMULATORS.values():
        sim.stats_cache.persist_to(directory)
    try:
        yield
    finally:
        _STATS_DIR = previous
        for sim in _SIMULATORS.values():
            sim.stats_cache.persist_to(previous)


def workload_names() -> List[str]:
    """Every workload name :func:`get_trace` accepts, in one namespace."""
    return (
        list(spec_names())
        + mix_names()
        + [f"stream-{kernel}" for kernel in stream_suite_names()]
    )


def validate_workload(name: str) -> str:
    """Fail fast on unknown workload names, listing the valid options.

    ``file:<path>`` names point at persisted ``.rtr`` trace files (see
    :mod:`repro.workloads.trace_io`); the path must exist and open with
    the ``.rtr`` magic up front, so a sweep never dies mid-grid on a
    typo'd path or a leftover ``.npz`` bundle.
    """
    if name.startswith("file:"):
        from repro.workloads.trace_io import RAW_MAGIC

        path = Path(name[5:])
        if not path.is_file():
            raise WorkloadConfigError(
                f"trace file workload points at no file: {name[5:]!r}", workload=name
            )
        with open(path, "rb") as handle:
            if handle.read(len(RAW_MAGIC)) != RAW_MAGIC:
                raise WorkloadConfigError(
                    f"trace file workload {name[5:]!r} is not a .rtr trace"
                    " (write traces with repro.workloads.trace_io.save_trace_raw)",
                    workload=name,
                )
        return name
    known = workload_names()
    if name not in known:
        raise WorkloadConfigError(
            f"unknown workload '{name}'; known: {', '.join(known)}",
            workload=name,
        )
    return name


def get_trace(
    name: str,
    *,
    scale: float = 0.5,
    cores: int = 4,
    line_addr_bits: int = 28,
) -> Trace:
    """Cached workload trace by name.

    Accepts SPEC names ('blender'), mixes ('mix3'), STREAM kernels
    ('stream-copy'), and persisted trace files ('file:/path/to.rtr'),
    in one namespace.  Unknown names raise
    :class:`~repro.errors.WorkloadConfigError` listing the options.

    ``file:`` workloads load as written -- ``scale``/``cores`` describe
    generation and do not re-scale a persisted trace; raw ``.rtr``
    files open as zero-copy memmaps, verified against their stored
    digest in chunks that release their pages, so even
    multi-hundred-million-line inputs cost O(1) memory here.  Names are
    validated on a cache miss only, so a cached ``file:`` name opens no
    file.

    The cache is least-recently-used and holds at most
    :data:`TRACE_CACHE_BYTES` of line arrays: an insert first evicts the
    oldest in-memory traces.  A trace larger than the budget is still
    returned, and is then the only in-memory trace held.
    """
    key = (name, round(scale, 6), cores, line_addr_bits)
    trace = _TRACES.get(key)
    if trace is not None:
        _TRACES.move_to_end(key)
        return trace
    validate_workload(name)
    with TRACER.span("trace.gen", workload=name, scale=scale) as span:
        if name.startswith("file:"):
            from repro.workloads.trace_io import load_trace

            trace = load_trace(name[5:])
        elif name.startswith("mix"):
            trace = mix_trace(name, line_addr_bits=line_addr_bits, scale=scale)
        elif name.startswith("stream-"):
            trace = stream_suite_trace(
                name.split("-", 1)[1], line_addr_bits=line_addr_bits, scale=scale
            )
        else:
            trace = spec_trace(
                name, line_addr_bits=line_addr_bits, scale=scale, cores=cores
            )
        span.set(lines=len(trace))
    # File names embed paths; fold them into one label value so a sweep
    # cannot blow the metric-cardinality cap.
    label = "file" if name.startswith("file:") else name
    METRICS.inc("trace.generated", workload=label)
    held = _held_bytes(trace) + sum(map(_held_bytes, _TRACES.values()))
    for old in [k for k, cached in _TRACES.items() if _held_bytes(cached)]:
        if held <= TRACE_CACHE_BYTES:
            break
        held -= _held_bytes(_TRACES.pop(old))
    _TRACES[key] = trace
    return trace


def cache_footprint_mb() -> Dict[str, float]:
    """Array megabytes the process-wide caches hold.

    ``stats_cache_mb`` is the simulators' in-memory window statistics
    and ``trace_cache_mb`` the cached traces' line arrays; the pages of
    a memory-mapped trace belong to its file and are not counted.
    """
    stats_bytes = sum(sim.stats_cache.nbytes for sim in _SIMULATORS.values())
    trace_bytes = sum(map(_held_bytes, _TRACES.values()))
    return {
        "stats_cache_mb": round(stats_bytes / 1e6, 1),
        "trace_cache_mb": round(trace_bytes / 1e6, 1),
    }


def clear_caches() -> None:
    """Drop all cached traces and simulators (tests use this)."""
    _SIMULATORS.clear()
    _TRACES.clear()


# ---------------------------------------------------------------------------
# Mapping factory
# ---------------------------------------------------------------------------
#: Mapping names accepted by :func:`make_mapping`.
MAPPING_NAMES = (
    "coffeelake",
    "skylake",
    "mop",
    "stride",
    "linear",
    "rubix-s",
    "rubix-d",
    "keyed-xor",
)


def make_mapping(
    name: str,
    config: Optional[DRAMConfig] = None,
    *,
    gang_size: int = 4,
    seed: int = 2024,
    remap_rate: float = 0.01,
    segments: int = 1,
) -> AddressMapping:
    """Construct a mapping by short name."""
    config = config or baseline_config()
    if name == "coffeelake":
        return CoffeeLakeMapping(config)
    if name == "skylake":
        return SkylakeMapping(config)
    if name == "mop":
        return MOPMapping(config)
    if name == "stride":
        return LargeStrideMapping(config, gang_size=gang_size)
    if name == "linear":
        return LinearMapping(config)
    if name == "rubix-s":
        return RubixSMapping(config, gang_size=gang_size, seed=seed)
    if name == "rubix-d":
        return RubixDMapping(
            config, gang_size=gang_size, seed=seed, remap_rate=remap_rate, segments=segments
        )
    if name == "keyed-xor":
        return KeyedXorMapping(config, gang_size=gang_size, seed=seed)
    raise MappingConfigError(
        f"unknown mapping '{name}'; known: {', '.join(MAPPING_NAMES)}",
        mapping=name,
    )


#: The gang size each scheme performs best with (Sections 4.6 / 5.9).
BEST_GANG_SIZE_S = {"aqua": 4, "srs": 4, "blockhammer": 1}
BEST_GANG_SIZE_D = {"aqua": 4, "srs": 2, "blockhammer": 1}


def spec_workloads(limit: Optional[int] = None) -> Sequence[str]:
    """The 18 SPEC workload names (optionally truncated for quick runs)."""
    names = spec_names()
    return names[:limit] if limit else names


def average(values: Sequence[float]) -> float:
    """Arithmetic mean (paper's 'Mean' bars)."""
    if not values:
        raise ValueError("average of empty sequence")
    return sum(values) / len(values)


__all__ = [
    "ExperimentResult",
    "get_simulator",
    "get_trace",
    "workload_names",
    "validate_workload",
    "clear_caches",
    "cache_footprint_mb",
    "TRACE_CACHE_BYTES",
    "make_mapping",
    "MAPPING_NAMES",
    "BEST_GANG_SIZE_S",
    "BEST_GANG_SIZE_D",
    "spec_workloads",
    "average",
    "multichannel_config",
]
