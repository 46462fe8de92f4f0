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

Detail-free entries are stored packed, in one layout shared by memory
and disk (:class:`_Packed`): each activated row's id as its low 16 bits
plus one run per occupied 65,536-row bucket, and its count in the
narrowest unsigned dtype that holds the window's maximum.  A randomized
window, whose rows nearly all see fewer than 256 activations, costs
about 3 bytes per activated row instead of 8.  Every lookup rebuilds a
fresh :class:`TraceStats` in the documented ``int32``/``int64``
dtypes, so no consumer ever sees the packed form.  Entries that carry
per-activation detail are kept as given, in memory only.

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

#: Environment variable naming a shared persistence directory; when set,
#: process-wide simulators persist their window statistics there (this
#: is how pool workers inherit the cache location).
STATS_CACHE_ENV = "REPRO_STATS_CACHE"

#: On-disk entry format version (bump on layout changes).  It is part of
#: every key, so entries of another version are never looked up.
_DISK_VERSION = 3

#: Low bits of a row id stored per row by the packed layout; the rest is
#: stored once per run of ids sharing it.
_BUCKET_BITS = 16


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
class _Packed:
    """One detail-free cache entry, as held in memory and on disk.

    The sorted, unique ``row_ids`` become ``low`` (each id's low 16 bits,
    ``uint16``) plus one ``(base, run)`` pair per occupied 65,536-row
    bucket: ``base`` is the bucket's first id, in the ids' own dtype, and
    ``run`` the number of ids in it.  ``acts`` holds ``acts_per_row`` in
    the narrowest unsigned dtype that fits its maximum, and
    ``acts_dtype`` is the dtype it is handed back in.  The layout is the
    same for every id dtype, ``int64`` included.
    """

    #: n_accesses, n_activations, n_hits, unique_rows_touched, swaps.
    scalars: Tuple[int, int, int, int, int]
    bases: np.ndarray
    runs: np.ndarray
    low: np.ndarray
    acts: np.ndarray
    acts_dtype: np.dtype

    @classmethod
    def pack(cls, stats: TraceStats, swaps: int) -> "_Packed":
        row_ids, acts = stats.row_ids, stats.acts_per_row
        # The ids are sorted, so each occupied bucket is one run; starts
        # holds the index of each run's first id (none when empty).
        high = row_ids >> _BUCKET_BITS
        starts = np.flatnonzero(high[1:] != high[:-1]) + 1
        starts = np.concatenate(([0], starts))[: row_ids.size]
        return cls(
            scalars=(
                int(stats.n_accesses),
                int(stats.n_activations),
                int(stats.n_hits),
                int(stats.unique_rows_touched),
                int(swaps),
            ),
            bases=high[starts] << _BUCKET_BITS,
            runs=np.diff(np.append(starts, row_ids.size)),
            # A cast to uint16 keeps exactly the low 16 bits.
            low=row_ids.astype(np.uint16),
            acts=acts.astype(np.min_scalar_type(int(acts.max()) if acts.size else 0)),
            acts_dtype=acts.dtype,
        )

    def unpack(self) -> Tuple[TraceStats, int]:
        """A fresh ``(TraceStats, swaps)`` equal to what was packed."""
        row_ids = np.repeat(self.bases, self.runs)
        row_ids += self.low
        n_accesses, n_activations, n_hits, unique_rows_touched, swaps = self.scalars
        stats = TraceStats(
            n_accesses=n_accesses,
            n_activations=n_activations,
            n_hits=n_hits,
            row_ids=row_ids,
            acts_per_row=self.acts.astype(self.acts_dtype),
            unique_rows_touched=unique_rows_touched,
        )
        return stats, swaps

    def arrays(self) -> Dict[str, np.ndarray]:
        """The entry as named arrays for ``np.savez``."""
        return {
            "scalars": np.array([*self.scalars, _DISK_VERSION], dtype=np.int64),
            "row_bases": self.bases,
            "row_runs": self.runs,
            "row_low": self.low,
            "acts_per_row": self.acts,
            "acts_dtype": np.array(self.acts_dtype.str),
        }

    @classmethod
    def from_arrays(cls, bundle) -> "_Packed":
        scalars = bundle["scalars"]
        return cls(
            scalars=tuple(int(value) for value in scalars[:5]),
            bases=bundle["row_bases"],
            runs=bundle["row_runs"],
            low=bundle["row_low"],
            acts=bundle["acts_per_row"],
            acts_dtype=np.dtype(str(bundle["acts_dtype"])),
        )


class StatsCache:
    """Two-level (memory, optional disk) cache of ``(TraceStats, swaps)``.

    Args:
        persist_dir: Directory for the shared disk layer (created on
            first write); None keeps the cache purely in-memory.

    Detail-free statistics are held packed (:class:`_Packed`) and are
    the only ones persisted: per-activation detail arrays are large,
    single-use, and never cached by the simulator either.  Every hit on
    a packed entry returns a fresh :class:`TraceStats`.
    """

    def __init__(self, persist_dir: Optional[Union[str, Path]] = None) -> None:
        self._mem: Dict[str, Union[_Packed, Tuple[TraceStats, int]]] = {}
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
            return entry.unpack() if isinstance(entry, _Packed) else entry
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
        if stats.act_rows is None and stats.act_cols is None:
            packed = _Packed.pack(stats, swaps)
            self._mem[key] = packed
            if self.persist_dir is not None:
                self._disk_put(key, packed)
        else:
            self._mem[key] = (stats, swaps)
        METRICS.set_gauge("cache.entries", len(self._mem))

    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> Path:
        return self.persist_dir / f"{key}.npz"

    def _disk_get(self, key: str) -> Optional[Tuple[TraceStats, int]]:
        """Load, promote to memory and unpack one disk entry."""
        path = self._entry_path(key)
        if not path.exists():
            return None
        try:
            with np.load(path) as bundle:
                scalars = bundle["scalars"]
                if scalars.shape != (6,) or int(scalars[5]) != _DISK_VERSION:
                    return None
                packed = _Packed.from_arrays(bundle)
            got = packed.unpack()
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
        self._mem[key] = packed
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

    def _disk_put(self, key: str, packed: _Packed) -> None:
        try:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
            path = self._entry_path(key)
            tmp = path.with_name(f".{path.stem}.{os.getpid()}.tmp.npz")
            np.savez_compressed(tmp, **packed.arrays())
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
