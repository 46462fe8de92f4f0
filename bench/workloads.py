"""The benchmark's four workloads: set-up, one timed pass, and output checks.

Every workload is closed-loop and driven by one process: a pass issues
its cells one after another (the pool workload hands them to two worker
processes and waits for all of them).  A pass always starts from empty
in-process trace and statistics caches, so every pass does the same work.
Inputs come only from ``spec_trace(seed=)`` and ``make_mapping(seed=)``.

A *cell* is one analysis window (``Simulator.window_stats``) in the
window workloads and one campaign grid cell in the grid workloads.  Each
cell contributes one row of simulated statistics to the pass digest;
simulated statistics are never metrics, they must stay bit-identical.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.campaign import Campaign, MappingSpec
from repro.experiments.common import clear_caches, make_mapping
from repro.perf.simulator import Simulator
from repro.resilience.journal import CheckpointJournal
from repro.workloads import spec
from repro.workloads.trace_io import save_trace_raw

#: Trace scale of a full run and of ``--quick``; quick also keeps only
#: the first :data:`QUICK_TRACES` SPEC traces (the heaviest ones).  At the
#: full scale a pass takes 2-6 s, so one 15 s run holds several passes.
FULL_SCALE = 0.05
QUICK_SCALE = 0.02
QUICK_TRACES = 6

#: Static mappings of fig7/fig12/table2: (label, make_mapping kind, kwargs).
STATIC_MAPPINGS = (
    ("coffeelake", "coffeelake", {}),
    ("skylake", "skylake", {}),
    ("mop", "mop", {}),
    ("rubix-s-gs1", "rubix-s", {"gang_size": 1}),
    ("rubix-s-gs2", "rubix-s", {"gang_size": 2}),
    ("rubix-s-gs4", "rubix-s", {"gang_size": 4}),
)

#: Rubix-D gang sizes x v-segments at the paper's 1% remap rate.
RUBIX_D_MAPPINGS = tuple(
    (f"rubix-d-gs{gang}-seg{segments}", "rubix-d",
     {"gang_size": gang, "segments": segments, "remap_rate": 0.01})
    for gang in (1, 2, 4)
    for segments in (1, 4)
)

#: The mitigation grid both grid workloads run, per trace seed.
GRID_MAPPINGS = (
    MappingSpec("coffeelake"),
    MappingSpec("rubix-s", 1),
    MappingSpec("rubix-s", 4),
    MappingSpec("rubix-d", 2),
)
GRID_SCHEMES = ("aqua", "srs", "blockhammer", "trr")
GRID_THRESHOLDS = (128, 1024)
POOL_WORKERS = 2


def digest(rows: Sequence[tuple]) -> str:
    """blake2b over the ``repr`` of each row, in order."""
    hasher = hashlib.blake2b(digest_size=16)
    for row in rows:
        hasher.update(repr(row).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


@dataclass
class Pass:
    """What one timed pass produced."""

    key: int  #: Which input the pass ran (passes with one key must agree).
    rows: List[tuple] = field(default_factory=list)  #: Per-cell statistics.
    cell_s: List[float] = field(default_factory=list)  #: Per-cell latency.
    failed: int = 0
    #: Per-layer values only the workload itself can see (pool busy/idle).
    layer_values: Dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.rows)


class Workload:
    """Base: holds the seed, the trace set and a scratch directory."""

    name = ""
    #: Fewest passes a run makes, so that every input runs at least twice.
    min_passes = 2
    #: True when cells run in worker processes (peak RSS includes them).
    uses_pool = False

    def __init__(self, seed: int, quick: bool, scratch: Path) -> None:
        self.seed = seed
        self.scale = QUICK_SCALE if quick else FULL_SCALE
        names = spec.spec_names()
        self.trace_names = names[:QUICK_TRACES] if quick else names
        self.scratch = scratch

    def setup(self) -> None:
        """Everything the timed passes need, built before the first one."""

    def run_pass(self, index: int) -> Pass:
        raise NotImplementedError

    def verify(self, passes: Sequence[Pass]) -> List[str]:
        """Checks beyond pass-to-pass agreement; returns error messages."""
        return []


# ---------------------------------------------------------------------------
# Window workloads
# ---------------------------------------------------------------------------
def window_row(trace: str, label: str, stats, swaps: int) -> tuple:
    return (
        trace,
        label,
        int(stats.n_accesses),
        int(stats.n_activations),
        int(stats.unique_rows_touched),
        stats.hot_rows(64),
        stats.hot_rows(512),
        int(swaps),
    )


class WindowWorkload(Workload):
    """Each trace, generated inside the pass, under each mapping."""

    mappings: Tuple[Tuple[str, str, dict], ...] = ()

    def mapping(self, label: str):
        raise NotImplementedError

    def _build(self, label: str):
        kind, kwargs = next((k, kw) for lab, k, kw in self.mappings if lab == label)
        return make_mapping(kind, seed=self.seed, **kwargs)

    def run_pass(self, index: int) -> Pass:
        result = Pass(key=0)
        sim = Simulator()
        for name in self.trace_names:
            trace = spec.spec_trace(name, scale=self.scale, seed=self.seed)
            for label, _, _ in self.mappings:
                mapping = self.mapping(label)
                started = time.perf_counter()
                try:
                    stats, swaps = sim.window_stats(trace, mapping)
                except Exception as error:  # counted, and the pass goes on
                    result.failed += 1
                    result.rows.append((name, label, f"error: {error!r}"))
                    continue
                result.cell_s.append(time.perf_counter() - started)
                result.rows.append(window_row(name, label, stats, swaps))
        return result

    def verify(self, passes: Sequence[Pass]) -> List[str]:
        rows = passes[0].rows
        errors = [
            f"{row[0]}/{row[1]}: impossible statistics {row}"
            for row in rows
            if not _window_row_consistent(row)
        ]
        # Cross-check the vectorized path on the smallest trace against
        # the scalar translation and a per-access row-buffer model.
        smallest = min(rows, key=lambda row: row[2])[0]
        trace = spec.spec_trace(smallest, scale=self.scale, seed=self.seed)
        sim = Simulator()
        for label, _, _ in self.mappings:
            errors += check_window(sim, trace, self._build(label), self._build(label))
        return errors


class StaticMap(WindowWorkload):
    name = "static-map"
    mappings = STATIC_MAPPINGS

    def setup(self) -> None:
        self._built = {label: self._build(label) for label, _, _ in self.mappings}

    def mapping(self, label: str):
        return self._built[label]


class RubixD(WindowWorkload):
    name = "rubix-d"
    mappings = RUBIX_D_MAPPINGS

    def mapping(self, label: str):
        # Remap state evolves during a window: every window starts from
        # the boot-time state, as a campaign cell does.
        return self._build(label)


def _window_row_consistent(row: tuple) -> bool:
    _, _, accesses, activations, unique_rows, hot64, hot512, swaps = row
    return (
        0 < activations <= accesses
        and 0 < unique_rows <= activations
        and 0 <= hot512 <= hot64 <= unique_rows
        and swaps >= 0
    )


def reference_activations(flat_bank, row, rows_per_bank: int, max_hits: int) -> Counter:
    """Per-row ACT counts from a per-access open-adaptive row buffer.

    Each bank serves its accesses in program order; an access hits when
    it targets the bank's open row and fewer than ``max_hits`` accesses
    have used that activation.
    """
    open_row: Dict[int, int] = {}
    served: Dict[int, int] = {}
    acts: Counter = Counter()
    for bank, r in zip(flat_bank.tolist(), row.tolist()):
        if open_row.get(bank) == r and served[bank] < max_hits:
            served[bank] += 1
        else:
            open_row[bank] = r
            served[bank] = 1
            acts[bank * rows_per_bank + r] += 1
    return acts


def check_window(sim: Simulator, trace, mapping, twin) -> List[str]:
    """Compare one window against independent computations.

    ``twin`` is a second, identically built mapping: a Rubix-D window
    advances its mapping's remap state, so the translations below run
    against the untouched boot-time state of the twin.
    """
    where = f"{trace.name}/{mapping.name}"
    if len(trace) > sim.chunk_lines:
        return [f"{where}: oracle window must fit in one chunk"]
    stats, _ = sim.window_stats(trace, mapping, use_cache=False)
    mapped = twin.translate_trace(trace.lines)
    config = sim.config
    errors = []
    step = max(1, len(trace) // 1000)
    for i in range(0, len(trace), step):
        coord = twin.translate(int(trace.lines[i]))
        flat = (coord.channel * config.ranks + coord.rank) * config.banks + coord.bank
        if (flat, coord.row, coord.col) != (
            int(mapped.flat_bank[i]), int(mapped.row[i]), int(mapped.col[i])
        ):
            errors.append(f"{where}: vectorized translation differs at line {i}")
            break
    cols = 1 << config.col_bits
    places = (mapped.global_row * cols + mapped.col.astype(np.int64))
    if np.unique(places).size != np.unique(trace.lines).size:
        errors.append(f"{where}: translation is not one-to-one")
    acts = reference_activations(
        mapped.flat_bank, mapped.row, config.rows_per_bank, sim.max_hits
    )
    rows = sorted(acts)
    if (
        stats.n_activations != sum(acts.values())
        or stats.row_ids.tolist() != rows
        or stats.acts_per_row.tolist() != [acts[r] for r in rows]
        or stats.unique_rows_touched != np.unique(mapped.global_row).size
    ):
        errors.append(f"{where}: window statistics differ from the reference model")
    return errors


# ---------------------------------------------------------------------------
# Grid workloads
# ---------------------------------------------------------------------------
def grid_row(record: dict) -> tuple:
    return (
        Path(record["workload"][len("file:"):]).stem,
        record["mapping"],
        record["scheme"],
        record["t_rh"],
        record["status"],
        record.get("activations"),
        record.get("hot_rows_64"),
        record.get("hot_rows_512"),
        record.get("remap_swaps"),
        record.get("mitigations"),
        repr(record.get("normalized_performance")),
    )


def cell_failed(record: dict) -> bool:
    """A cell that raised, did not finish ok, or was flagged degraded."""
    return record["status"] != "ok" or bool(record.get("flags"))


class _TimedCampaign(Campaign):
    """A campaign that records each cell's latency as it runs."""

    def execute_cell(self, *args, **kwargs) -> dict:
        started = time.perf_counter()
        record = super().execute_cell(*args, **kwargs)
        self.cell_s.append(time.perf_counter() - started)
        return record


class GridWorkload(Workload):
    """The mitigation grid over trace files written during set-up."""

    seed_offsets: Tuple[int, ...] = (0,)

    def setup(self) -> None:
        self.files: Dict[int, List[str]] = {}
        for offset in self.seed_offsets:
            folder = self.scratch / f"traces-{offset}"
            self.files[offset] = [
                "file:" + str(save_trace_raw(
                    spec.spec_trace(name, scale=self.scale, seed=self.seed + offset),
                    folder / f"{name}.rtr",
                ))
                for name in self.trace_names
            ]

    def campaign(self, offset: int, cls=Campaign) -> Campaign:
        clear_caches()
        return cls(
            workloads=self.files[offset],
            mappings=GRID_MAPPINGS,
            schemes=GRID_SCHEMES,
            thresholds=GRID_THRESHOLDS,
            scale=self.scale,
        )


def _grid_pass(key: int, records: List[dict], cell_s: List[float]) -> Pass:
    return Pass(
        key=key,
        rows=[grid_row(record) for record in records],
        cell_s=cell_s,
        failed=sum(cell_failed(record) for record in records),
    )


class MitigationGrid(GridWorkload):
    """Serial grids over three trace seeds, one seed per pass in turn."""

    name = "mitigation-grid"
    seed_offsets = (0, 1, 2)
    min_passes = 6
    #: Simulator the cells run on (None: the process-wide one); tests
    #: substitute a fault-injecting one.
    simulator: Optional[object] = None

    def run_pass(self, index: int) -> Pass:
        offset = self.seed_offsets[index % len(self.seed_offsets)]
        campaign = self.campaign(offset, _TimedCampaign)
        campaign.cell_s = []
        records = campaign.run(simulator=self.simulator)
        return _grid_pass(offset, records, campaign.cell_s)


class CampaignPool(GridWorkload):
    """Seed N's grid on a two-worker pool with a disk cache and a journal."""

    name = "campaign-pool"
    uses_pool = True

    def run_pass(self, index: int) -> Pass:
        work = self.scratch / f"pass-{index}"
        journal = work / "journal.jsonl"
        started = time.perf_counter()
        records = self.campaign(0).run(
            workers=POOL_WORKERS, stats_cache_dir=work / "stats", journal=journal
        )
        wall = time.perf_counter() - started
        timings = CheckpointJournal(journal).timings()
        shutil.rmtree(work)
        cell_s = [timings[key]["duration_s"] for key in sorted(timings)]
        result = _grid_pass(0, records, cell_s)
        busy = sum(cell_s)
        result.layer_values = {
            "parallel.pool_busy_s": busy,
            "parallel.pool_idle_s": POOL_WORKERS * wall - busy,
        }
        return result

    def verify(self, passes: Sequence[Pass]) -> List[str]:
        # serial == parallel: the same grid run in this process must give
        # the records the pool gave (this is mitigation-grid's seed-N grid).
        serial = _grid_pass(0, self.campaign(0).run(), [])
        if digest(serial.rows) != digest(passes[0].rows):
            return ["pool records differ from a serial run of the same grid"]
        return []


WORKLOADS = {cls.name: cls for cls in (StaticMap, RubixD, MitigationGrid, CampaignPool)}

__all__ = ["WORKLOADS", "Pass", "digest", "reference_activations", "check_window"]
