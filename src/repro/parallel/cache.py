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
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.dram.fast_model import TraceStats
from repro.obs.runtime import METRICS, get_logger

log = get_logger("cache")

#: Environment variable naming a shared persistence directory; when set,
#: process-wide simulators persist their window statistics there (this
#: is how pool workers inherit the cache location).
STATS_CACHE_ENV = "REPRO_STATS_CACHE"

#: On-disk entry format version (bump on layout changes).
_DISK_VERSION = 2


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


class StatsCache:
    """Two-level (memory, optional disk) cache of ``(TraceStats, swaps)``.

    Args:
        persist_dir: Directory for the shared disk layer (created on
            first write); None keeps the cache purely in-memory.

    Only detail-free statistics are stored: per-activation detail arrays
    are large, single-use, and never cached by the simulator either.
    """

    def __init__(self, persist_dir: Optional[Union[str, Path]] = None) -> None:
        self._mem: Dict[str, Tuple[TraceStats, int]] = {}
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

    def clear(self, *, memory_only: bool = True) -> None:
        """Drop cached entries (disk entries too unless ``memory_only``)."""
        if self._mem:
            METRICS.inc("cache.evictions", len(self._mem))
        self._mem.clear()
        METRICS.set_gauge("cache.entries", 0)
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
            return entry
        if self.persist_dir is not None:
            entry = self._disk_get(key)
            if entry is not None:
                self._mem[key] = entry
                self.disk_hits += 1
                METRICS.inc("cache.requests", result="disk_hit")
                return entry
        self.misses += 1
        METRICS.inc("cache.requests", result="miss")
        return None

    def put(self, key: str, stats: TraceStats, swaps: int) -> None:
        """Store one entry (and persist it when a disk layer is attached)."""
        self._mem[key] = (stats, swaps)
        METRICS.set_gauge("cache.entries", len(self._mem))
        if self.persist_dir is not None and stats.act_rows is None and stats.act_cols is None:
            self._disk_put(key, stats, swaps)

    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> Path:
        return self.persist_dir / f"{key}.npz"

    def _disk_get(self, key: str) -> Optional[Tuple[TraceStats, int]]:
        path = self._entry_path(key)
        if not path.exists():
            return None
        try:
            with np.load(path) as bundle:
                scalars = bundle["scalars"]
                row_ids = bundle["row_ids"]
                acts = bundle["acts_per_row"]
        except Exception as error:
            # Torn/corrupt entry (e.g. a crashed writer on a filesystem
            # without atomic replace): quarantine it and recompute.  The
            # rename keeps the bad bytes on disk for postmortems while
            # guaranteeing the next writer isn't racing a poisoned path
            # and the next reader doesn't pay the decode failure again.
            self._quarantine(path, error)
            return None
        if scalars.shape != (6,) or int(scalars[5]) != _DISK_VERSION:
            return None
        if METRICS.enabled:
            try:
                METRICS.inc("cache.disk_bytes_read", path.stat().st_size)
            except OSError:
                pass
        # Entries written before the histogram narrowed hold int64
        # arrays with the same values; they load in today's dtypes.
        row_ids, acts = TraceStats.narrow_histogram(row_ids, acts, int(scalars[1]))
        stats = TraceStats(
            n_accesses=int(scalars[0]),
            n_activations=int(scalars[1]),
            n_hits=int(scalars[2]),
            row_ids=row_ids,
            acts_per_row=acts,
            unique_rows_touched=int(scalars[3]),
        )
        return stats, int(scalars[4])

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

    def _disk_put(self, key: str, stats: TraceStats, swaps: int) -> None:
        try:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
            path = self._entry_path(key)
            tmp = path.with_name(f".{path.stem}.{os.getpid()}.tmp.npz")
            scalars = np.array(
                [
                    stats.n_accesses,
                    stats.n_activations,
                    stats.n_hits,
                    stats.unique_rows_touched,
                    swaps,
                    _DISK_VERSION,
                ],
                dtype=np.int64,
            )
            np.savez_compressed(
                tmp, scalars=scalars, row_ids=stats.row_ids, acts_per_row=stats.acts_per_row
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


def default_persist_dir() -> Optional[str]:
    """The environment-configured persistence directory, if any."""
    value = os.environ.get(STATS_CACHE_ENV, "").strip()
    return value or None


__all__ = ["STATS_CACHE_ENV", "StatsCache", "stats_cache_key", "default_persist_dir"]
