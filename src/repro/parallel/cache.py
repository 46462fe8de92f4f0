"""Content-keyed window-statistics cache, optionally disk-persistent.

The simulator's window analysis is the expensive step every experiment
shares.  Historically its cache was keyed on ``(name, scale, size)`` of
the trace -- two traces with identical shape but different contents
(e.g. different generator seeds) silently reused each other's
statistics.  This module replaces that with a *content-keyed* cache:

* the trace contributes a fingerprint (a digest of its line array) plus
  its generator seed where available,
* the mapping contributes its behavioural ``cache_key``, and
* the analyzer contributes its parameters (rows per bank, open-adaptive
  budget, and -- for dynamically-remapped windows -- the chunk size,
  which changes where the remap engine advances).

An entry keeps what the mitigation and performance models read: the
window's scalars and its activation-count histogram -- the distinct
per-row counts, ascending, and how many rows have each (:class:`_Entry`,
one layout in memory and on disk).  A randomized window spreads its
ACTs over hundreds of thousands of rows with a few ACTs each, so its
entry is tens to hundreds of pairs, whatever the row count.  Every hit
rebuilds a fresh :class:`TraceStats` whose ``acts_per_row`` is the same
multiset in ascending order, in the dtype that was put, and whose
``row_ids`` is None: which rows saw the counts is not kept, and a
consumer that needs it analyzes uncached.

Entries can optionally persist to a directory of ``.npz`` files shared
across processes: a parallel campaign's workers read each other's
analysis results instead of recomputing them.  Writes are atomic
(temp file + ``os.replace``), so concurrent writers of the same key
race benignly -- both produce identical bytes -- and a reader never
observes a torn file.  Unreadable or truncated entries degrade to a
cache miss, never to a wrong result.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.dram.fast_model import TraceStats
from repro.obs.runtime import METRICS, get_logger

log = get_logger("cache")

#: On-disk entry format version (bump on layout changes, and when the
#: trace fingerprint a key carries changes definition).  It is part of
#: every key, so entries of another version are never looked up.  5: the
#: fingerprint became SHA-256 over the lines at their canonical width.
_DISK_VERSION = 5


def stats_cache_key(
    *,
    trace_key: Tuple,
    mapping_key: str,
    rows_per_bank: int,
    max_hits: Optional[int],
    chunk_lines: Optional[int] = None,
) -> str:
    """Stable, filename-safe digest identifying one analysis result.

    Args:
        trace_key: The simulator's trace identity tuple (name, scale,
            length, content fingerprint, generator seed).
        mapping_key: The mapping's behavioural :attr:`cache_key`.
        rows_per_bank: Geometry term of the analysis.
        max_hits: Open-adaptive budget (None = pure open page).
        chunk_lines: Chunk size for dynamically-remapped windows; pass
            None for static mappings, where chunking never applies.
    """
    digest = hashlib.blake2b(digest_size=20)
    for part in (*trace_key, mapping_key, rows_per_bank, max_hits, chunk_lines, _DISK_VERSION):
        digest.update(repr(part).encode())
        digest.update(b"|")
    return digest.hexdigest()


@dataclass(frozen=True, eq=False)
class _Entry:
    """One cache entry, as held in memory and on disk.

    ``counts`` holds the window's distinct per-row activation counts,
    ascending, in the dtype ``acts_per_row`` was put in, and ``rows``
    how many activated rows have each.
    """

    #: n_accesses, n_activations, n_hits, unique_rows_touched, swaps.
    scalars: Tuple[int, ...]
    counts: np.ndarray
    rows: np.ndarray

    def stats(self) -> Tuple[TraceStats, int]:
        """A fresh ``(TraceStats, swaps)``: the put histogram, ascending, without ids."""
        n_accesses, n_activations, n_hits, unique_rows_touched, swaps = self.scalars
        stats = TraceStats(
            n_accesses=n_accesses,
            n_activations=n_activations,
            n_hits=n_hits,
            row_ids=None,
            acts_per_row=np.repeat(self.counts, self.rows),
            unique_rows_touched=unique_rows_touched,
        )
        return stats, swaps


class StatsCache:
    """Two-level (memory, optional disk) cache of ``(TraceStats, swaps)``.

    Args:
        persist_dir: Directory for the shared disk layer (created on
            first write); None keeps the cache purely in-memory.

    Only detail-free statistics are accepted, held as their activation-
    count histogram (:class:`_Entry`); every hit returns a fresh
    :class:`TraceStats` without row ids.
    """

    def __init__(self, persist_dir: Optional[Union[str, Path]] = None) -> None:
        self._mem: Dict[str, _Entry] = {}
        self.persist_dir: Optional[Path] = Path(persist_dir) if persist_dir else None
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.corrupt = 0  #: Disk entries quarantined as undecodable.

    # ------------------------------------------------------------------
    def persist_to(self, persist_dir: Optional[Union[str, Path]]) -> "StatsCache":
        """Attach (or detach, with None) the disk layer; returns self."""
        self.persist_dir = Path(persist_dir) if persist_dir else None
        return self

    def __len__(self) -> int:
        return len(self._mem)

    def __contains__(self, key: str) -> bool:
        return key in self._mem

    @property
    def nbytes(self) -> int:
        """Array bytes the memory layer holds."""
        return sum(entry.counts.nbytes + entry.rows.nbytes for entry in self._mem.values())

    def clear(self, *, memory_only: bool = True) -> None:
        """Drop cached entries (disk entries too unless ``memory_only``)."""
        if self._mem:
            METRICS.inc("cache.evictions", len(self._mem))
        self._mem.clear()
        if not memory_only and self.persist_dir is not None and self.persist_dir.exists():
            for path in self.persist_dir.glob("*.npz"):
                try:
                    path.unlink()
                except OSError:
                    pass

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Tuple[TraceStats, int]]:
        """Look up one entry; None on miss (disk errors degrade to miss)."""
        entry = self._mem.get(key)
        if entry is not None:
            self.hits += 1
            METRICS.inc("cache.requests", result="hit")
            return entry.stats()
        if self.persist_dir is not None:
            got = self._disk_get(key)
            if got is not None:
                self.disk_hits += 1
                METRICS.inc("cache.requests", result="disk_hit")
                return got
        self.misses += 1
        METRICS.inc("cache.requests", result="miss")
        return None

    def put(self, key: str, stats: TraceStats, swaps: int) -> None:
        """Store one entry (and persist it when a disk layer is attached)."""
        scalars = (
            stats.n_accesses,
            stats.n_activations,
            stats.n_hits,
            stats.unique_rows_touched,
            swaps,
        )
        counts, rows = np.unique(stats.acts_per_row, return_counts=True)
        entry = _Entry(tuple(int(value) for value in scalars), counts, rows)
        self._mem[key] = entry
        if self.persist_dir is not None:
            self._disk_put(key, entry)

    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> Path:
        return self.persist_dir / f"{key}.npz"

    def _disk_get(self, key: str) -> Optional[Tuple[TraceStats, int]]:
        """Load, promote to memory and expand one disk entry."""
        path = self._entry_path(key)
        if not path.exists():
            return None
        try:
            with np.load(path) as bundle:
                scalars = bundle["scalars"]
                if scalars.shape != (6,) or int(scalars[5]) != _DISK_VERSION:
                    return None
                entry = _Entry(
                    tuple(int(value) for value in scalars[:5]),
                    bundle["act_counts"],
                    bundle["rows_per_count"],
                )
            got = entry.stats()
        except Exception as error:
            # Torn/corrupt entry (e.g. a crashed writer on a filesystem
            # without atomic replace): quarantine it and recompute.  The
            # rename keeps the bad bytes on disk for postmortems while
            # guaranteeing the next writer isn't racing a poisoned path
            # and the next reader doesn't pay the decode failure again.
            self._quarantine(path, error)
            return None
        if METRICS.enabled:
            try:
                METRICS.inc("cache.disk_bytes_read", path.stat().st_size)
            except OSError:
                pass
        self._mem[key] = entry
        return got

    def _quarantine(self, path: Path, error: BaseException) -> None:
        """Move an undecodable cache entry aside as ``<name>.corrupt``."""
        quarantined = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantined)
        except OSError:
            quarantined = None  # someone else already moved/removed it
        METRICS.inc("cache.corrupt")
        self.corrupt += 1
        log.warning(
            "cache.corrupt_entry",
            message=f"[quarantined corrupt stats-cache entry {path.name}:"
            f" {type(error).__name__}: {error}]",
            entry=path.name,
            quarantined_as=quarantined.name if quarantined else None,
            error=f"{type(error).__name__}: {error}",
        )

    def _disk_put(self, key: str, entry: _Entry) -> None:
        try:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
            path = self._entry_path(key)
            tmp = path.with_name(f".{path.stem}.{os.getpid()}.tmp.npz")
            np.savez_compressed(
                tmp,
                scalars=np.array([*entry.scalars, _DISK_VERSION], dtype=np.int64),
                act_counts=entry.counts,
                rows_per_count=entry.rows,
            )
            if METRICS.enabled:
                METRICS.inc("cache.disk_bytes_written", tmp.stat().st_size)
            os.replace(tmp, path)
        except OSError:
            # Persistence is an optimization; a full disk or unwritable
            # directory must never fail the simulation itself.
            pass
        finally:
            try:
                if tmp.exists():
                    tmp.unlink()
            except (OSError, UnboundLocalError):
                pass


__all__ = ["StatsCache", "stats_cache_key"]
