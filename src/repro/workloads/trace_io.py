"""Trace persistence: raw ``.rtr`` files that load as memmaps.

Generating the biggest calibrated traces takes seconds; persisting them
lets experiment campaigns (``file:<path>`` workloads) and external
tools (e.g. feeding the same trace to another simulator) reuse
identical streams.  A ``.rtr`` file (:class:`RawTraceWriter`,
:func:`save_trace_raw`, :func:`load_trace`) is a versioned binary
layout whose line data sits 64-byte-aligned and little-endian on disk,
so loading is one ``np.memmap`` call: **zero-copy**, demand-paged, and
viable for multi-hundred-million-line traces that must never be
materialized.  Lines are stored as they are held: ``<u4`` (4 bytes a
line) for a ``uint32`` trace, ``<u8`` otherwise, and load back in that
dtype.  The writer streams chunks (constant memory) and stores the
trace's content fingerprint (:func:`~repro.workloads.trace.lines_fingerprint`:
SHA-256 over the lines at their canonical 4- or 8-byte width, so it does
not depend on the stored dtype) in the metadata under
:data:`FINGERPRINT_KEY`.

Writes are atomic (temp file + ``os.replace``) so a crash mid-save never
leaves a half-written file at the target path, and loads validate the
header, metadata, and file size, raising
:class:`~repro.errors.TraceFormatError` naming the offending path
instead of a numpy shape crash on a truncated memmap.  The loader also
hashes the mapped lines, in bounded chunks that release their pages,
and refuses a file whose data does not match its stored digest, so a
flipped bit can never file its statistics under the clean trace's
cache key.  A file written before the digest moved to SHA-256 carries
only the old ``blake2b`` ``fingerprint`` key; it has nothing to check
against and is simply hashed.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.errors import TraceFormatError
from repro.workloads.trace import FINGERPRINT_CHUNK_BYTES, Trace, lines_fingerprint

#: Metadata keys every trace file must carry.
REQUIRED_META_KEYS = ("version", "name", "instructions", "window_s", "scale")

#: Metadata key of the stored content digest; it names the algorithm.
FINGERPRINT_KEY = "fingerprint_sha256"

#: Magic bytes opening every raw trace file.
RAW_MAGIC = b"RBXTRACE"

#: Raw format version (bump on any layout change).
RAW_FORMAT_VERSION = 1

#: Sentinel stored in the same byte order as the line data; a reader
#: that parses it as little-endian and sees a scrambled value knows the
#: data section does not match this format's mandated byte order.
RAW_ENDIAN_WORD = 0x01020304

#: Line dtype codes: little-endian u64, and (for traces whose
#: addresses fit 32 bits) little-endian u32.
RAW_DTYPE_CODE_U64LE = 1
RAW_DTYPE_CODE_U32LE = 2

#: On-disk line dtype of every dtype code.
_RAW_DTYPES = {RAW_DTYPE_CODE_U64LE: np.dtype("<u8"), RAW_DTYPE_CODE_U32LE: np.dtype("<u4")}

#: Fixed header size; line data starts here, 64-byte aligned for clean
#: cache-line/page behaviour of the memmap (metadata JSON is a tail
#: section, so the data offset never depends on metadata length).
RAW_HEADER_BYTES = 64

#: struct layout of the leading header fields (little-endian through-
#: out): magic, version, endian word, dtype code, reserved, n_lines,
#: meta_len.  Zero-padded to RAW_HEADER_BYTES.
_RAW_HEADER_STRUCT = struct.Struct("<8sIIII QQ")


# ---------------------------------------------------------------------------
# Streaming writer
# ---------------------------------------------------------------------------
class RawTraceWriter:
    """Stream a raw ``.rtr`` trace file chunk by chunk, constant-memory.

    The writer never holds more than one appended chunk: callers
    generating (or transcoding) traces far larger than RAM feed line
    batches through :meth:`append` and the file grows in place.  On
    :meth:`close` the writer re-reads the written data in bounded chunks
    to compute the content fingerprint (the digest stream starts with
    the final line count, which is only known now), writes the tail
    metadata and final header, and atomically renames the temp file into
    place -- readers never observe a half-written trace.

    Usage::

        with RawTraceWriter(path, name="synth", instructions=10**9) as w:
            for chunk in generate_chunks():
                w.append(chunk)
        trace = load_trace(path)   # np.memmap, zero-copy
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        name: str,
        instructions: int,
        window_s: float = 64e-3,
        scale: float = 1.0,
        seed: Optional[int] = None,
    ) -> None:
        self.path = _raw_path(path)
        self.meta = {
            "version": RAW_FORMAT_VERSION,
            "name": str(name),
            "instructions": int(instructions),
            "window_s": float(window_s),
            "scale": float(scale),
        }
        if seed is not None:
            self.meta["seed"] = int(seed)
        self.n_lines = 0
        # Line dtype code, fixed by the first chunk appended.
        self._code: Optional[int] = None
        self._closed = False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._tmp = self.path.with_name(f".{self.path.stem}.{os.getpid()}.tmp.rtr")
        self._file = open(self._tmp, "wb")
        self._file.write(b"\0" * RAW_HEADER_BYTES)  # placeholder header

    def append(self, lines: np.ndarray) -> None:
        """Append a batch of line addresses (any integer array-like).

        The first batch fixes the file's line dtype: ``<u4`` when it is
        a ``uint32`` array, ``<u8`` otherwise.  Later batches are stored
        in that dtype; one that does not fit a ``<u4`` file is refused.
        """
        if self._closed:
            raise ValueError("writer is closed")
        lines = np.asarray(lines)
        if lines.ndim != 1:
            raise ValueError(f"line chunks must be 1-D, got shape {lines.shape}")
        if self._code is None:
            narrow = lines.dtype == np.uint32
            self._code = RAW_DTYPE_CODE_U32LE if narrow else RAW_DTYPE_CODE_U64LE
        chunk = np.ascontiguousarray(lines, dtype=_RAW_DTYPES[self._code])
        if chunk.itemsize < lines.itemsize and not np.array_equal(chunk, lines):
            raise ValueError(
                f"{self.path}: a line address past 32 bits cannot join a file"
                " whose first chunk was uint32"
            )
        self._file.write(memoryview(chunk))
        self.n_lines += int(chunk.size)

    def close(self) -> Path:
        """Finalize header + metadata and publish the file; returns its path."""
        if self._closed:
            return self.path
        self._closed = True
        try:
            self._file.flush()
            self.meta[FINGERPRINT_KEY] = self._fingerprint()
            raw_meta = json.dumps(self.meta).encode()
            self._file.seek(0, os.SEEK_END)
            self._file.write(raw_meta)
            header = _RAW_HEADER_STRUCT.pack(
                RAW_MAGIC,
                RAW_FORMAT_VERSION,
                RAW_ENDIAN_WORD,
                self._code or RAW_DTYPE_CODE_U64LE,
                0,
                self.n_lines,
                len(raw_meta),
            )
            self._file.seek(0)
            self._file.write(header)
            self._file.close()
            os.replace(self._tmp, self.path)
        finally:
            if not self._file.closed:
                self._file.close()
            if self._tmp.exists():
                self._tmp.unlink()
        return self.path

    def _fingerprint(self) -> str:
        """Streamed digest of the written data (bounded re-read)."""
        if self.n_lines == 0:
            return lines_fingerprint(np.empty(0, dtype=np.uint64))
        data = np.memmap(
            self._tmp,
            dtype=_RAW_DTYPES[self._code],
            mode="r",
            offset=RAW_HEADER_BYTES,
            shape=(self.n_lines,),
        )
        try:
            return lines_fingerprint(data)
        finally:
            del data

    def abort(self) -> None:
        """Discard the temp file without publishing anything."""
        self._closed = True
        if not self._file.closed:
            self._file.close()
        if self._tmp.exists():
            self._tmp.unlink()

    def __enter__(self) -> "RawTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def _raw_path(path: Union[str, Path]) -> Path:
    path = Path(path)
    if path.suffix != ".rtr":
        path = path.with_suffix(path.suffix + ".rtr")
    return path


def save_trace_raw(trace: Trace, path: Union[str, Path]) -> Path:
    """Write an in-memory trace as a raw ``.rtr`` file, atomically.

    Streams the line array in bounded chunks through
    :class:`RawTraceWriter` (the trace may itself be memmap-backed), so
    transcoding never doubles peak memory.  The lines are stored as
    ``<u4`` when the trace holds them as ``uint32``, else as ``<u8``.
    Returns the path written.
    """
    writer = RawTraceWriter(
        path,
        name=trace.name,
        instructions=trace.instructions,
        window_s=trace.window_s,
        scale=trace.scale,
        seed=trace.seed,
    )
    try:
        step = max(1, FINGERPRINT_CHUNK_BYTES // trace.lines.dtype.itemsize)
        for start in range(0, int(trace.lines.size), step):
            writer.append(trace.lines[start : start + step])
    except BaseException:
        writer.abort()
        raise
    return writer.close()


# ---------------------------------------------------------------------------
# Zero-copy loader
# ---------------------------------------------------------------------------
def load_trace(path: Union[str, Path]) -> Trace:
    """Open a raw ``.rtr`` trace; line data is a zero-copy ``np.memmap``.

    The returned trace's ``lines`` array is a read-only view demand-
    paged straight from the file in its stored dtype (no bytes are
    copied or materialized).  Opening hashes the mapped lines once, in
    bounded chunks whose pages are released as they go, checks the
    digest against the one stored under :data:`FINGERPRINT_KEY`, and
    pre-seeds the trace's memoized fingerprint with it.

    Raises:
        FileNotFoundError: No file at ``path``.
        TraceFormatError: Bad magic, unsupported version, wrong data
            byte order, unknown dtype code, malformed metadata, or a
            file too short for its declared line count (truncation) --
            every case is caught by header validation, never by a numpy
            crash on a short buffer -- or line data whose digest differs
            from the stored one (corruption).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no trace file at {path}")

    def bad(reason: str) -> TraceFormatError:
        return TraceFormatError(f"{path}: {reason}", path=str(path))

    size = path.stat().st_size
    if size < RAW_HEADER_BYTES:
        raise bad(
            f"file is {size} bytes, shorter than the {RAW_HEADER_BYTES}-byte header"
        )
    with open(path, "rb") as handle:
        head = handle.read(RAW_HEADER_BYTES)
    magic, version, endian, dtype_code, _reserved, n_lines, meta_len = (
        _RAW_HEADER_STRUCT.unpack(head[: _RAW_HEADER_STRUCT.size])
    )
    if magic != RAW_MAGIC:
        raise bad(f"not a raw trace (magic {magic!r}, expected {RAW_MAGIC!r})")
    if version != RAW_FORMAT_VERSION:
        raise bad(
            f"unsupported raw trace version {version} (expected {RAW_FORMAT_VERSION})"
        )
    if endian != RAW_ENDIAN_WORD:
        raise bad(
            f"data byte order marker {endian:#010x} does not read as little-endian"
            f" (expected {RAW_ENDIAN_WORD:#010x}); refusing to map foreign-endian data"
        )
    dtype = _RAW_DTYPES.get(dtype_code)
    if dtype is None:
        raise bad(f"unknown line dtype code {dtype_code} (expected one of {sorted(_RAW_DTYPES)})")
    data_bytes = dtype.itemsize * n_lines
    expected = RAW_HEADER_BYTES + data_bytes + meta_len
    if size < expected:
        raise bad(
            f"file is {size} bytes but the header declares {n_lines} lines"
            f" + {meta_len} metadata bytes = {expected}; trace is truncated"
        )
    with open(path, "rb") as handle:
        handle.seek(RAW_HEADER_BYTES + data_bytes)
        raw_meta = handle.read(meta_len)
    try:
        meta = json.loads(raw_meta.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise bad(f"metadata tail is not valid JSON ({error})") from None
    if not isinstance(meta, dict):
        raise bad("metadata tail is not a JSON object")
    missing = [key for key in REQUIRED_META_KEYS if key not in meta]
    if missing:
        raise bad(f"metadata is missing required keys {missing}")

    if n_lines == 0:
        lines = np.empty(0, dtype=np.uint64)
    else:
        lines = np.memmap(
            path, dtype=dtype, mode="r", offset=RAW_HEADER_BYTES, shape=(n_lines,)
        )
    try:
        trace = Trace(
            name=str(meta["name"]),
            lines=lines,
            instructions=int(meta["instructions"]),
            window_s=float(meta["window_s"]),
            scale=float(meta["scale"]),
            seed=int(meta["seed"]) if meta.get("seed") is not None else None,
        )
    except (TypeError, ValueError) as error:
        raise bad(f"metadata values are invalid ({error})") from None
    digest = lines_fingerprint(trace.lines)
    stored = meta.get(FINGERPRINT_KEY)
    if stored is not None and stored != digest:
        raise bad(
            f"line data hashes to {digest}, not the stored {FINGERPRINT_KEY}"
            f" {stored!r}; the file is corrupt"
        )
    trace._fingerprint = digest
    return trace


__all__ = [
    "REQUIRED_META_KEYS",
    "FINGERPRINT_KEY",
    "RAW_MAGIC",
    "RAW_FORMAT_VERSION",
    "RAW_ENDIAN_WORD",
    "RAW_DTYPE_CODE_U64LE",
    "RAW_DTYPE_CODE_U32LE",
    "RAW_HEADER_BYTES",
    "RawTraceWriter",
    "save_trace_raw",
    "load_trace",
]
