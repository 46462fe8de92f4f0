"""Trace persistence: raw ``.rtr`` files that load as memmaps.

Generating the biggest calibrated traces takes seconds; persisting them
lets experiment campaigns (``file:<path>`` workloads) and external
tools (e.g. feeding the same trace to another simulator) reuse
identical streams.  A ``.rtr`` file (:func:`save_trace_raw`,
:func:`load_trace`) is a versioned binary
layout whose line data sits 64-byte-aligned and little-endian on disk,
so loading is one ``np.memmap`` call: **zero-copy**, demand-paged, and
viable for multi-hundred-million-line traces that must never be
materialized.  Lines are stored as they are held: ``<u4`` (4 bytes a
line) for a ``uint32`` trace, ``<u8`` otherwise, and load back in that
dtype.  The writer takes one :class:`~repro.workloads.trace.Trace`, in
memory or itself memory-mapped (a trace too large for RAM is built over
a scratch ``np.memmap``), writes its lines in bounded slices and stores
its content fingerprint (:func:`~repro.workloads.trace.lines_fingerprint`:
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
from typing import Union

import numpy as np

from repro.errors import TraceFormatError
from repro.workloads.trace import (
    FINGERPRINT_CHUNK_BYTES,
    Trace,
    iter_line_chunks,
    lines_fingerprint,
)

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


def _raw_path(path: Union[str, Path]) -> Path:
    path = Path(path)
    if path.suffix != ".rtr":
        path = path.with_suffix(path.suffix + ".rtr")
    return path


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------
def save_trace_raw(trace: Trace, path: Union[str, Path]) -> Path:
    """Write a trace as a raw ``.rtr`` file, atomically; returns the path.

    The lines are stored as ``<u4`` when the trace holds them as
    ``uint32``, else as ``<u8``, in slices of at most
    :data:`~repro.workloads.trace.FINGERPRINT_CHUNK_BYTES` (zero-copy
    views of a trace already in its stored dtype; a memory-mapped
    trace's consumed pages are released as they go), so writing never
    doubles peak memory.  The stored digest is the trace's memoized
    :attr:`~repro.workloads.trace.Trace.fingerprint`.  The file is
    written to a temporary name beside ``path`` and renamed into place,
    so a failure leaves nothing behind.

    Raises:
        ValueError: ``trace.lines`` is not one-dimensional.
    """
    lines = trace.lines
    if lines.ndim != 1:
        raise ValueError(f"trace lines must be 1-D, got shape {lines.shape}")
    # An empty trace is stored as <u8, as every empty .rtr file has been.
    narrow = lines.dtype == np.uint32 and lines.size > 0
    code = RAW_DTYPE_CODE_U32LE if narrow else RAW_DTYPE_CODE_U64LE
    meta = {
        "version": RAW_FORMAT_VERSION,
        "name": str(trace.name),
        "instructions": int(trace.instructions),
        "window_s": float(trace.window_s),
        "scale": float(trace.scale),
    }
    if trace.seed is not None:
        meta["seed"] = int(trace.seed)
    meta[FINGERPRINT_KEY] = trace.fingerprint
    raw_meta = json.dumps(meta).encode()
    header = _RAW_HEADER_STRUCT.pack(
        RAW_MAGIC, RAW_FORMAT_VERSION, RAW_ENDIAN_WORD, code, 0, lines.size, len(raw_meta)
    )
    dtype = _RAW_DTYPES[code]
    path = _raw_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.stem}.{os.getpid()}.tmp.rtr")
    try:
        with open(tmp, "wb") as handle:
            handle.write(header.ljust(RAW_HEADER_BYTES, b"\0"))
            for chunk in iter_line_chunks(lines, FINGERPRINT_CHUNK_BYTES // dtype.itemsize):
                handle.write(memoryview(np.ascontiguousarray(chunk, dtype=dtype)))
            handle.write(raw_meta)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


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
    "save_trace_raw",
    "load_trace",
]
