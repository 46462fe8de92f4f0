"""Trace container: a line-address stream plus workload metadata."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.obs.runtime import TRACER

#: Bytes hashed per :func:`lines_fingerprint` update (16 MiB): large
#: enough to amortize call overhead, small enough that hashing a
#: memory-mapped trace never faults more than a sliver into RAM at once.
FINGERPRINT_CHUNK_BYTES = 1 << 24


def lines_fingerprint(lines: np.ndarray) -> str:
    """Content digest of a line-address array (hex), computed streaming.

    Chunked ``blake2b`` over the same byte stream the historical
    in-memory digest hashed (``str(size)`` then the raw array bytes), so
    the result is bit-for-bit identical whether ``lines`` lives in RAM
    or is an ``np.memmap`` view of a multi-gigabyte trace file -- and in
    the latter case peak residency stays bounded by the chunk size
    instead of materializing ``lines.tobytes()``.
    """
    lines = np.ascontiguousarray(lines, dtype=np.uint64)
    with TRACER.span("trace.fingerprint", lines=int(lines.size)):
        digest = hashlib.blake2b(digest_size=16)
        digest.update(str(lines.size).encode())
        data = lines.view(np.uint8)
        for start in range(0, data.size, FINGERPRINT_CHUNK_BYTES):
            digest.update(data[start : start + FINGERPRINT_CHUNK_BYTES])
        return digest.hexdigest()


@dataclass
class Trace:
    """One refresh window's worth of memory requests.

    Attributes:
        name: Workload name (for reports).
        lines: Line addresses in program order (uint64).
        instructions: Instructions the trace's window represents (per the
            whole multi-core system), used to normalize MPKI and to
            anchor the performance model.
        window_s: Wall-clock duration the trace spans (tREFW by default).
        scale: Down-scaling factor applied during generation (1.0 = the
            paper's full 64 ms window); reported alongside results.
        seed: Generator seed the trace was produced with, when the
            generator had one (None for purely structural traces).
    """

    name: str
    lines: np.ndarray
    instructions: int
    window_s: float = 64e-3
    scale: float = 1.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self.lines = np.ascontiguousarray(self.lines, dtype=np.uint64)
        if self.instructions <= 0:
            raise ValueError(f"instructions must be positive, got {self.instructions}")
        if not 0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        self._fingerprint: Optional[str] = None

    @property
    def fingerprint(self) -> str:
        """Content digest of the line stream (hex).

        Two traces share a fingerprint iff their line arrays are
        byte-identical, so caches keyed on it can never confuse
        same-shaped traces from different generators or seeds.  Computed
        once (streaming, memmap-safe -- see :func:`lines_fingerprint`)
        and memoized; ``lines`` must not be mutated afterwards.  Loaders
        that persisted the digest alongside the data may pre-seed
        ``_fingerprint`` to skip the hashing pass entirely.
        """
        if self._fingerprint is None:
            self._fingerprint = lines_fingerprint(self.lines)
        return self._fingerprint

    def __len__(self) -> int:
        return int(self.lines.size)

    @property
    def mpki(self) -> float:
        """Misses (memory accesses) per kilo-instruction of this trace."""
        return 1000.0 * self.lines.size / self.instructions

    def head(self, count: int) -> "Trace":
        """A prefix sub-trace (for quick tests)."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        fraction = min(1.0, count / max(1, self.lines.size))
        return Trace(
            name=self.name,
            lines=self.lines[:count].copy(),
            instructions=max(1, int(self.instructions * fraction)),
            window_s=self.window_s * fraction,
            scale=self.scale,
            seed=self.seed,
        )


def _backing_mmap(array: np.ndarray):
    """The ``mmap`` object behind a (possibly viewed) memmap array."""
    base = array
    while isinstance(base, np.ndarray):
        candidate = getattr(base, "_mmap", None)
        if candidate is not None:
            return candidate
        base = base.base
    return None


def iter_line_chunks(lines: np.ndarray, chunk_lines: int, *, release_pages: bool = True):
    """Yield consecutive ``chunk_lines``-sized slices of a line array.

    For plain in-memory arrays this is ordinary slicing.  For
    memmap-backed arrays (raw ``.rtr`` traces) it additionally advises
    consumed pages out of the process between chunks
    (``madvise(MADV_DONTNEED)``), so a sequential pass over a
    multi-gigabyte trace keeps peak RSS near one chunk instead of
    accumulating every touched page until the pass ends.  Dropped pages
    are file-backed: re-reading them later is transparent (and the
    yielded slice must be consumed before advancing the iterator).
    """
    import mmap as mmap_module

    if chunk_lines < 1:
        raise ValueError(f"chunk_lines must be >= 1, got {chunk_lines}")
    mm = _backing_mmap(lines) if release_pages else None
    advice = getattr(mmap_module, "MADV_DONTNEED", None)
    can_release = mm is not None and advice is not None and hasattr(mm, "madvise")
    for start in range(0, int(lines.size), chunk_lines):
        yield lines[start : start + chunk_lines]
        if can_release:
            try:
                mm.madvise(advice)
            except (ValueError, OSError):  # pragma: no cover - platform quirk
                can_release = False


def interleave(streams: "list[np.ndarray]", seed: Optional[int] = None) -> np.ndarray:
    """Merge per-core streams into one controller-order stream.

    Each stream's internal order is preserved; streams are merged
    proportionally to their lengths (deterministic weighted round-robin),
    modeling cores progressing at similar rates.
    """
    streams = [np.asarray(s, dtype=np.uint64) for s in streams if len(s)]
    if not streams:
        return np.empty(0, dtype=np.uint64)
    if len(streams) == 1:
        return streams[0]
    total = sum(s.size for s in streams)
    out = np.empty(total, dtype=np.uint64)
    # Position each stream's i-th element at fraction (i + phase)/len of
    # the merged stream, then stable-sort by position.
    keys = np.empty(total, dtype=np.float64)
    cursor = 0
    for index, stream in enumerate(streams):
        n = stream.size
        phase = (index + 1) / (len(streams) + 1)
        keys[cursor : cursor + n] = (np.arange(n, dtype=np.float64) + phase) / n
        out[cursor : cursor + n] = stream
        cursor += n
    order = np.argsort(keys, kind="stable")
    return out[order]


__all__ = [
    "Trace",
    "interleave",
    "iter_line_chunks",
    "lines_fingerprint",
    "FINGERPRINT_CHUNK_BYTES",
]
