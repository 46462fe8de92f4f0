"""Trace container: a line-address stream plus workload metadata.

A trace's identity is its content fingerprint (:func:`lines_fingerprint`):
SHA-256 over the line count and the lines' little-endian bytes at their
canonical width, 4 bytes a line when every line fits in 32 bits and 8
otherwise, so the digest does not depend on the array's dtype or on
whether it is memory-mapped.  ``.rtr`` files store it under the
``fingerprint_sha256`` metadata key
(:mod:`repro.workloads.trace_io`), and the window-statistics cache keys
on it together with ``repro.parallel.cache._DISK_VERSION`` (5 since the
digest replaced the earlier ``blake2b`` over ``uint64`` bytes).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.obs.runtime import TRACER
from repro.utils.bitops import fitting_uint

#: Bytes hashed per :func:`lines_fingerprint` update (16 MiB): large
#: enough to amortize call overhead, small enough that hashing a
#: memory-mapped trace never faults more than a sliver into RAM at once.
FINGERPRINT_CHUNK_BYTES = 1 << 24

#: Lines :func:`lines_fingerprint` converts to the hashed width at a time.
_CONVERT_BLOCK = 1 << 16

#: Values per block of :func:`draw_lines`.
_DRAW_BLOCK = 1 << 16


def lines_fingerprint(lines: np.ndarray) -> str:
    """Content digest of a line-address array (hex), computed streaming.

    SHA-256 over ``str(size)`` then the lines' little-endian bytes at a
    canonical width: ``uint32`` when every line fits in 32 bits, else
    ``uint64``.  The width depends on the values, not the dtype, so a
    ``uint32`` trace, its ``uint64`` twin and an ``np.memmap`` of the
    same stream share one digest.  An array already in the canonical
    dtype (a ``uint32`` trace, a ``<u4`` memmap) is fed as zero-copy
    views of at most :data:`FINGERPRINT_CHUNK_BYTES`; any other dtype
    is checked against 2^32 once, then converted :data:`_CONVERT_BLOCK`
    lines at a time.  Memory-mapped input is read through
    :func:`iter_line_chunks`, which releases consumed pages, so only a
    sliver is ever copied or faulted into RAM at once.
    """
    lines = np.asarray(lines).reshape(-1)
    with TRACER.span("trace.fingerprint", lines=int(lines.size)):
        canonical = np.dtype("<u4") if _fits_u32(lines) else np.dtype("<u8")
        step = (
            FINGERPRINT_CHUNK_BYTES // canonical.itemsize
            if lines.dtype == canonical
            else _CONVERT_BLOCK
        )
        digest = hashlib.sha256(str(lines.size).encode())
        for chunk in iter_line_chunks(lines, step):
            # A no-op view for canonical input; unnamed, each converted
            # block is freed before the next exists.
            digest.update(np.ascontiguousarray(chunk, dtype=canonical).view(np.uint8))
        return digest.hexdigest()


def _fits_u32(lines: np.ndarray) -> bool:
    """Whether every line of ``lines`` is a value in ``[0, 2^32)``."""
    if lines.dtype.kind == "u" and lines.dtype.itemsize <= 4:
        return True
    signed = lines.dtype.kind == "i"
    step = FINGERPRINT_CHUNK_BYTES // lines.dtype.itemsize
    for chunk in iter_line_chunks(lines, step):
        if chunk.size and (chunk.max() > 0xFFFFFFFF or signed and chunk.min() < 0):
            return False
    return True


def _narrow_lines(lines) -> np.ndarray:
    """``lines`` in the dtype a :class:`Trace` holds: ``uint32`` when it fits.

    A ``uint32`` array is kept as it is.  A memory-mapped array keeps
    its on-disk dtype: narrowing it would read the whole file into RAM.
    Anything else becomes ``uint64``, narrowed to ``uint32`` when its
    largest address fits (:func:`~repro.utils.bitops.fitting_uint`).
    """
    if getattr(lines, "dtype", None) == np.uint32 or _backing_mmap(lines) is not None:
        return np.ascontiguousarray(lines)
    lines = np.ascontiguousarray(lines, dtype=np.uint64)
    largest = int(lines.max()) if lines.size else 0
    return lines.astype(fitting_uint(largest), copy=False)


@dataclass
class Trace:
    """One refresh window's worth of memory requests.

    Attributes:
        name: Workload name (for reports).
        lines: Line addresses in program order: ``uint32`` while the
            largest address fits, else ``uint64``; a memory-mapped
            trace keeps its on-disk dtype.
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
        self.lines = _narrow_lines(self.lines)
        if self.instructions <= 0:
            raise ValueError(f"instructions must be positive, got {self.instructions}")
        if not 0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        self._fingerprint: Optional[str] = None

    @property
    def fingerprint(self) -> str:
        """Content digest of the line stream (hex).

        Two traces share a fingerprint iff their line arrays hold the
        same values (in either dtype), so caches keyed on it can never
        confuse same-shaped traces from different generators or seeds.
        Computed once (streaming, memmap-safe -- see
        :func:`lines_fingerprint`) and memoized; ``lines`` must not be
        mutated afterwards.  A loader that has just hashed the data may
        pre-seed ``_fingerprint`` with that digest.
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


def iter_line_chunks(lines: np.ndarray, chunk_lines: int):
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
    mm = _backing_mmap(lines)
    advice = getattr(mmap_module, "MADV_DONTNEED", None)
    can_release = mm is not None and advice is not None and hasattr(mm, "madvise")
    for start in range(0, int(lines.size), chunk_lines):
        yield lines[start : start + chunk_lines]
        if can_release:
            try:
                mm.madvise(advice)
            except (ValueError, OSError):  # pragma: no cover - platform quirk
                can_release = False


def draw_lines(rng: np.random.Generator, high: int, base: int, *, out: np.ndarray) -> None:
    """Fill ``out`` with ``base + rng.integers(0, high, dtype=np.uint64)``.

    The draw runs in blocks of at most :data:`_DRAW_BLOCK` values
    written straight into ``out`` (of any line dtype), so no
    ``uint64`` copy of the whole draw exists.  The generator continues
    its stream across calls, so the blocks hold exactly the values of
    one ``rng.integers(..., size=out.size)`` call.
    """
    for start in range(0, out.size, _DRAW_BLOCK):
        block = out[start : start + _DRAW_BLOCK]
        block[:] = rng.integers(0, high, size=block.size, dtype=np.uint64)
        block += base


def interleave(streams: "list[np.ndarray]", seed: Optional[int] = None) -> np.ndarray:
    """Merge per-core streams into one controller-order stream.

    Each stream's internal order is preserved; streams are merged
    proportionally to their lengths (deterministic weighted round-robin),
    modeling cores progressing at similar rates.  The result is
    ``uint32`` when every stream is, else ``uint64``.
    """
    streams = [np.asarray(s) for s in streams if len(s)]
    dtype = np.uint32 if all(s.dtype == np.uint32 for s in streams) else np.uint64
    if not streams:
        return np.empty(0, dtype=dtype)
    if len(streams) == 1:
        return np.asarray(streams[0], dtype=dtype)
    total = sum(s.size for s in streams)
    out = np.empty(total, dtype=dtype)
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
    "draw_lines",
    "interleave",
    "iter_line_chunks",
    "lines_fingerprint",
    "FINGERPRINT_CHUNK_BYTES",
]
