"""Raw memmap trace format (.rtr): zero-copy loads, strict validation.

Pins the zero-copy ingestion contract: loading never materializes the
line array (memmap view, fingerprint verified and pre-seeded), lines are
stored as ``<u4`` when the trace holds them as ``uint32`` and as ``<u8``
otherwise, files in either dtype load, the streaming fingerprint equals
an independent SHA-256 of the lines at their canonical width whatever
the stored dtype, and every way a file can be malformed -- truncation,
wrong byte order, bad magic, unsupported version, unknown dtype code,
corrupt metadata, a flipped data bit -- raises
:class:`~repro.errors.TraceFormatError` instead of a numpy crash or a
silently wrong trace.
"""

import hashlib
import json
import struct

import numpy as np
import pytest

from repro.errors import TraceFormatError, WorkloadConfigError
from repro.workloads.trace import FINGERPRINT_CHUNK_BYTES, Trace, lines_fingerprint
from repro.workloads.trace_io import (
    FINGERPRINT_KEY,
    RAW_DTYPE_CODE_U32LE,
    RAW_DTYPE_CODE_U64LE,
    RAW_ENDIAN_WORD,
    RAW_FORMAT_VERSION,
    RAW_HEADER_BYTES,
    RAW_MAGIC,
    load_trace,
    save_trace_raw,
)


@pytest.fixture
def trace():
    rng = np.random.default_rng(42)
    lines = rng.integers(0, 1 << 28, size=50_000, dtype=np.uint64)
    return Trace(name="synthetic", lines=lines, instructions=10**6, scale=0.5, seed=42)


def _written(tmp_path, trace, name="t"):
    return save_trace_raw(trace, tmp_path / name)


def _sha256(lines, width):
    """The fingerprint computed independently: SHA-256 over the line
    count, then the lines as little-endian integers of ``width`` bytes."""
    digest = hashlib.sha256(str(lines.size).encode())
    digest.update(np.asarray(lines).astype(f"<u{width}").tobytes())
    return digest.hexdigest()


def _header(path):
    """(dtype code, n_lines, meta_len) from a raw file's header."""
    data = path.read_bytes()
    (code,) = struct.unpack("<I", data[16:20])
    n_lines, meta_len = struct.unpack("<QQ", data[24:40])
    return code, n_lines, meta_len


# ---------------------------------------------------------------------------
# Round trip + zero copy
# ---------------------------------------------------------------------------
def test_roundtrip_preserves_everything(tmp_path, trace):
    path = _written(tmp_path, trace)
    assert path.suffix == ".rtr"
    loaded = load_trace(path)
    assert loaded.name == trace.name
    assert loaded.instructions == trace.instructions
    assert loaded.window_s == trace.window_s
    assert loaded.scale == trace.scale
    assert loaded.seed == trace.seed
    # Addresses below 2^28 are held as uint32, so they are stored and
    # loaded as four-byte lines.
    assert trace.lines.dtype == np.uint32
    assert _header(path)[0] == RAW_DTYPE_CODE_U32LE
    assert path.stat().st_size == RAW_HEADER_BYTES + 4 * trace.lines.size + _header(path)[2]
    assert loaded.lines.dtype == np.uint32
    assert np.array_equal(loaded.lines, trace.lines)


def test_wide_trace_roundtrips_as_u8(tmp_path, trace):
    """An address at or past 2^32 keeps the trace uint64, stored as <u8."""
    lines = trace.lines.astype(np.uint64)
    lines[-1] = 1 << 32
    wide = Trace("wide", lines, instructions=10**6, seed=7)
    assert wide.lines.dtype == np.uint64
    path = _written(tmp_path, wide)
    assert _header(path)[0] == RAW_DTYPE_CODE_U64LE
    loaded = load_trace(path)
    assert loaded.lines.dtype == np.uint64
    assert np.array_equal(loaded.lines, lines)
    assert loaded._fingerprint == wide.fingerprint
    short = tmp_path / "short.rtr"
    short.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(TraceFormatError, match="; trace is truncated"):
        load_trace(short)


def test_hand_built_u8_file_loads_with_its_fingerprint(tmp_path, trace):
    """A file in the original eight-byte layout, carrying only the old
    blake2b ``fingerprint`` key, still loads, as uint64: it is hashed on
    open and gets the current fingerprint."""
    lines = trace.lines.astype("<u8")
    legacy = hashlib.blake2b(str(lines.size).encode(), digest_size=16)
    legacy.update(lines.tobytes())
    meta = json.dumps(
        {
            "version": RAW_FORMAT_VERSION,
            "name": "legacy",
            "instructions": 1000,
            "window_s": 0.064,
            "scale": 1.0,
            "fingerprint": legacy.hexdigest(),
        }
    ).encode()
    header = struct.pack(
        "<8sIIII QQ",
        RAW_MAGIC,
        RAW_FORMAT_VERSION,
        RAW_ENDIAN_WORD,
        RAW_DTYPE_CODE_U64LE,
        0,
        lines.size,
        len(meta),
    )
    path = tmp_path / "legacy.rtr"
    path.write_bytes(header.ljust(RAW_HEADER_BYTES, b"\0") + lines.tobytes() + meta)
    loaded = load_trace(path)
    assert loaded.lines.dtype == np.uint64
    assert np.array_equal(loaded.lines, trace.lines)
    assert loaded._fingerprint == trace.fingerprint == _sha256(lines, 4)
    loaded._fingerprint = None  # the pre-seeded digest is the hashed one
    assert loaded.fingerprint == trace.fingerprint


def test_load_is_zero_copy_memmap(tmp_path, trace):
    loaded = load_trace(_written(tmp_path, trace))
    # The lines array is a view onto a memmap -- no bytes copied.
    assert not loaded.lines.flags.owndata
    base = loaded.lines
    while isinstance(base, np.ndarray) and base.base is not None:
        base = base.base
    import mmap

    assert isinstance(base, (np.memmap, mmap.mmap))


def test_stored_fingerprint_preseeds_memo(tmp_path, trace):
    expected = trace.fingerprint
    path = _written(tmp_path, trace)
    meta_len = _header(path)[2]
    assert json.loads(path.read_bytes()[-meta_len:])[FINGERPRINT_KEY] == expected
    loaded = load_trace(path)
    # Present once the file is open: the load verified it...
    assert loaded._fingerprint == expected
    # ...and it is what hashing the mapped bytes from scratch gives.
    assert lines_fingerprint(loaded.lines) == expected


def test_flipped_data_bit_is_refused(tmp_path, trace):
    """The loader hashes the line data: one flipped bit anywhere in it
    no longer matches the stored digest, and the file is refused by
    name instead of loading under the clean trace's cache key."""

    def flip_one_bit(data):
        data[RAW_HEADER_BYTES + 4 * 12_345 + 1] ^= 0x10

    path = _corrupt(tmp_path, trace, flip_one_bit)
    with pytest.raises(TraceFormatError, match=rf"bad\.rtr.*not the stored {FINGERPRINT_KEY}"):
        load_trace(path)
    assert load_trace(tmp_path / "good.rtr").fingerprint == trace.fingerprint


#: SHA-256 of the whole file ``save_trace_raw`` writes for the ``trace``
#: fixture (``uint32``) and for its ``uint64`` twin:
#: the header, the line bytes and the metadata tail must never drift.
_FILE_SHA256 = {
    "uint32": "3d2c587208762ad3ecc2a49cbb746e5149300d97297a27eb54d1743db1492338",
    "uint64": "4d7dd9d16581690fc205d10162920a4378f055fd81d9331cb8650b558cc4136f",
}


@pytest.mark.parametrize("held", ["uint32", "uint64"])
def test_written_bytes_are_pinned(tmp_path, trace, held):
    if held == "uint64":  # the test_wide_trace_roundtrips_as_u8 shape
        lines = trace.lines.astype(np.uint64)
        lines[-1] = 1 << 32
        trace = Trace("wide", lines, instructions=10**6, seed=7)
    assert trace.lines.dtype == np.dtype(held)
    data = _written(tmp_path, trace).read_bytes()
    assert hashlib.sha256(data).hexdigest() == _FILE_SHA256[held]


def test_empty_trace_roundtrip(tmp_path):
    empty = Trace("empty", np.empty(0, dtype=np.uint64), instructions=1)
    path = _written(tmp_path, empty, "empty")
    assert _header(path)[:2] == (RAW_DTYPE_CODE_U64LE, 0)
    loaded = load_trace(path)
    assert loaded.lines.size == 0
    assert loaded.fingerprint == lines_fingerprint(np.empty(0, dtype=np.uint64))


def test_writer_abort_leaves_nothing(tmp_path, trace, monkeypatch):
    """A save that fails after the lines are written publishes nothing
    and removes its temporary file."""

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("repro.workloads.trace_io.os.replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        save_trace_raw(trace, tmp_path / "gone")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Streaming fingerprint == an independent SHA-256 of the lines
# ---------------------------------------------------------------------------
def test_streamed_digest_identical_to_in_memory(tmp_path, trace):
    """The regression the stats cache depends on: file-backed and
    in-memory copies of the same stream share one fingerprint."""
    assert trace.fingerprint == _sha256(trace.lines, 4)
    streamed = load_trace(_written(tmp_path, trace))
    streamed._fingerprint = None  # hash the mapped bytes again
    assert streamed.fingerprint == trace.fingerprint


def test_fingerprint_streams_across_chunk_boundary():
    # Each array straddles one chunk boundary of its own hashing step:
    # zero-copy views of four-byte lines, and eight-byte lines.
    narrow = np.arange(FINGERPRINT_CHUNK_BYTES // 4 + 17, dtype=np.uint32)
    assert lines_fingerprint(narrow) == _sha256(narrow, 4)
    wide = np.arange(FINGERPRINT_CHUNK_BYTES // 8 + 17, dtype=np.uint64) << np.uint64(12)
    assert int(wide[-1]) >= 1 << 32
    assert lines_fingerprint(wide) == _sha256(wide, 8)


@pytest.mark.parametrize("largest", [(1 << 32) - 1, 1 << 32])
def test_uint64_fingerprint_width_follows_the_values(largest):
    """A ``uint64`` array is hashed as four-byte lines while every line
    fits in 32 bits, and as eight-byte lines once one does not."""
    lines = np.arange(3 * (1 << 16) + 5, dtype=np.uint64)
    lines[70_000] = largest
    width = 4 if largest < 1 << 32 else 8
    assert lines_fingerprint(lines) == _sha256(lines, width)
    if width == 4:
        assert lines_fingerprint(lines) == lines_fingerprint(lines.astype(np.uint32))


def test_fingerprint_same_for_uint32_uint64_and_memmap(tmp_path):
    """The digest hashes the lines at their canonical width, so a
    four-byte trace, its eight-byte twin and a memmap of it share one
    key."""
    n = FINGERPRINT_CHUNK_BYTES // 8 + 17  # straddles one chunk boundary
    wide = np.arange(n, dtype=np.uint64) * 3
    narrow = wide.astype(np.uint32)
    trace = Trace("t", narrow, instructions=1)
    assert trace.lines.dtype == np.uint32
    mapped = load_trace(save_trace_raw(trace, tmp_path / "t"))
    assert mapped.lines.dtype == np.uint32
    assert mapped._fingerprint == trace.fingerprint
    mapped._fingerprint = None  # hash the mapped bytes, not the stored digest
    digests = {lines_fingerprint(narrow), lines_fingerprint(wide), mapped.fingerprint}
    assert digests == {trace.fingerprint}



@pytest.mark.parametrize("action", ["fingerprint", "save_trace_raw"])
def test_uint32_fingerprint_temporary_is_bounded(tmp_path, action):
    """Hashing a four-byte trace, alone or as ``save_trace_raw`` writes
    it, feeds zero-copy views of its lines: the traced peak stays
    at or under 0.05 bytes per line, with no widened copy at all."""
    import tracemalloc

    n = 1_000_000
    trace = Trace("t", np.arange(n, dtype=np.uint32) * 3, instructions=1)
    run = {
        "fingerprint": lambda: trace.fingerprint,
        "save_trace_raw": lambda: save_trace_raw(trace, tmp_path / "t"),
    }[action]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 0.05, f"{peak / n:.4f} B/line"

# ---------------------------------------------------------------------------
# The .rtr path is the only format
# ---------------------------------------------------------------------------
def test_load_trace_keeps_the_in_memory_fingerprint(tmp_path, trace):
    assert load_trace(_written(tmp_path, trace)).fingerprint == trace.fingerprint


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_trace(tmp_path / "nope.rtr")


# ---------------------------------------------------------------------------
# Malformed files: typed errors, never numpy crashes
# ---------------------------------------------------------------------------
def _corrupt(tmp_path, trace, mutate, name="bad.rtr"):
    data = bytearray(_written(tmp_path, trace, "good").read_bytes())
    mutate(data)
    path = tmp_path / name
    path.write_bytes(bytes(data))
    return path


def test_truncated_data_is_diagnosed(tmp_path, trace):
    good = _written(tmp_path, trace)
    short = tmp_path / "short.rtr"
    short.write_bytes(good.read_bytes()[: RAW_HEADER_BYTES + 1000])
    with pytest.raises(TraceFormatError, match="; trace is truncated"):
        load_trace(short)


def test_truncated_u4_file_is_diagnosed(tmp_path, trace):
    """The truncation check counts four bytes a line for a <u4 file: a
    file four bytes short of its declared data and metadata is refused."""
    good = _written(tmp_path, trace)
    code, n_lines, meta_len = _header(good)
    assert code == RAW_DTYPE_CODE_U32LE
    short = tmp_path / "short.rtr"
    short.write_bytes(good.read_bytes()[: RAW_HEADER_BYTES + 4 * n_lines + meta_len - 4])
    # The temp path names the test, so match the diagnosis itself.
    with pytest.raises(TraceFormatError, match="; trace is truncated"):
        load_trace(short)


def test_file_shorter_than_header_is_diagnosed(tmp_path):
    stub = tmp_path / "stub.rtr"
    stub.write_bytes(RAW_MAGIC)  # magic only, no header
    with pytest.raises(TraceFormatError, match="shorter than"):
        load_trace(stub)


def test_wrong_endian_word_is_refused(tmp_path, trace):
    def flip_endian_word(data):
        data[12:16] = data[12:16][::-1]

    path = _corrupt(tmp_path, trace, flip_endian_word)
    with pytest.raises(TraceFormatError, match="byte order"):
        load_trace(path)


def test_bad_magic_is_not_a_raw_trace(tmp_path, trace):
    def clobber_magic(data):
        data[:8] = b"NOTATRCE"

    path = _corrupt(tmp_path, trace, clobber_magic)
    with pytest.raises(TraceFormatError, match="magic"):
        load_trace(path)


def test_unsupported_version_is_refused(tmp_path, trace):
    def bump_version(data):
        data[8:12] = struct.pack("<I", 99)

    path = _corrupt(tmp_path, trace, bump_version)
    with pytest.raises(TraceFormatError, match="version 99"):
        load_trace(path)


def test_unknown_dtype_code_is_refused(tmp_path, trace):
    def set_dtype_code(data):
        data[16:20] = struct.pack("<I", 7)

    path = _corrupt(tmp_path, trace, set_dtype_code)
    with pytest.raises(TraceFormatError, match="dtype code 7"):
        load_trace(path)


@pytest.mark.parametrize("code", [0, 3])
def test_dtype_codes_next_to_the_known_ones_are_refused(tmp_path, trace, code):
    def set_dtype_code(data):
        data[16:20] = struct.pack("<I", code)

    path = _corrupt(tmp_path, trace, set_dtype_code)
    with pytest.raises(TraceFormatError, match=rf"dtype code {code} \(expected one of \[1, 2\]\)"):
        load_trace(path)


def test_corrupt_metadata_tail_is_diagnosed(tmp_path, trace):
    def scramble_meta(data):
        data[-10:] = b"\xff" * 10

    path = _corrupt(tmp_path, trace, scramble_meta)
    with pytest.raises(TraceFormatError, match="JSON"):
        load_trace(path)


def test_missing_meta_keys_are_diagnosed(tmp_path, trace):
    written = _written(tmp_path, trace)
    code, n_lines, meta_len = _header(written)
    assert code == RAW_DTYPE_CODE_U32LE
    good = written.read_bytes()
    data_end = RAW_HEADER_BYTES + 4 * n_lines
    meta = json.loads(good[data_end:].decode())
    del meta["instructions"]
    new_meta = json.dumps(meta).encode()
    header = bytearray(good[:RAW_HEADER_BYTES])
    header[32:40] = struct.pack("<Q", len(new_meta))
    path = tmp_path / "nometa.rtr"
    path.write_bytes(bytes(header) + good[RAW_HEADER_BYTES:data_end] + new_meta)
    with pytest.raises(TraceFormatError, match="missing required keys"):
        load_trace(path)


# ---------------------------------------------------------------------------
# file: workloads
# ---------------------------------------------------------------------------
def test_file_workload_loads_raw_trace(tmp_path, trace):
    from repro.experiments.common import get_trace, validate_workload

    path = _written(tmp_path, trace)
    name = f"file:{path}"
    assert validate_workload(name) == name
    loaded = get_trace(name)
    assert loaded.fingerprint == trace.fingerprint


def test_file_workload_missing_path_fails_fast(tmp_path):
    from repro.experiments.common import validate_workload

    with pytest.raises(WorkloadConfigError, match="no file"):
        validate_workload(f"file:{tmp_path}/absent.rtr")


def test_npz_file_workload_fails_fast(tmp_path, trace):
    """A ``file:`` workload naming an ``.npz`` bundle is refused by name
    before any cell runs, through a campaign and through ``get_trace``."""
    from repro.experiments.campaign import Campaign, MappingSpec
    from repro.experiments.common import get_trace

    bundle = tmp_path / "old.npz"
    np.savez(bundle, lines=trace.lines.astype(np.uint64))
    name = f"file:{bundle}"
    with pytest.raises(WorkloadConfigError, match="old.npz.* is not a .rtr trace"):
        Campaign(workloads=[name], mappings=[MappingSpec("coffeelake")])
    with pytest.raises(WorkloadConfigError, match="old.npz.* is not a .rtr trace"):
        get_trace(name)


def test_cached_file_workload_opens_no_file(tmp_path, trace):
    from repro.experiments import common

    common.clear_caches()
    path = _written(tmp_path, trace)
    name = f"file:{path}"
    loaded = common.get_trace(name)
    path.unlink()  # validating the name again would now raise
    assert common.get_trace(name) is loaded
    common.clear_caches()
