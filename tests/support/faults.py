"""Seeded corruptions of the trust boundaries below the simulator.

Each helper corrupts one boundary so a test can prove the matching
detector fails loudly:

* **trace files** on disk (:func:`corrupt_trace_file` truncates an
  ``.rtr`` file so :func:`~repro.workloads.trace_io.load_trace` must
  raise :class:`~repro.errors.TraceFormatError`; the loader refuses a
  flipped bit in the line data the same way, since it checks the data
  against the stored fingerprint);
* **remap-engine key state** (:func:`corrupt_remap_keys` flips a key
  bit, :func:`verify_key_state` catches it against a boot-time
  :func:`snapshot_key_state` digest -- modelling key-register parity).

Faults injected into the simulator a campaign drives stay in
:mod:`repro.resilience.faults`.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional, Union

from repro.errors import FaultInjectedError, MappingConfigError
from repro.mapping.base import AddressMapping
from repro.utils.prng import SplitMix64


# ---------------------------------------------------------------------------
# Trace-file corruption
# ---------------------------------------------------------------------------
def corrupt_trace_file(
    path: Union[str, Path],
    *,
    mode: str = "truncate",
    out: Optional[Union[str, Path]] = None,
) -> Path:
    """Write a deterministically-corrupted copy of a ``.rtr`` trace file.

    Args:
        path: An existing ``.rtr`` trace file.
        mode: ``truncate`` (drop the final quarter of the file).
        out: Destination (defaults to ``<name>.corrupt.rtr`` next to the
            original; the original is never modified).

    Returns:
        The corrupted file's path.
    """
    path = Path(path)
    data = path.read_bytes()
    if not data:
        raise ValueError(f"{path} is empty; nothing to corrupt")
    if mode != "truncate":
        raise ValueError(f"unknown corruption mode '{mode}' (truncate)")
    data = data[: max(1, len(data) - max(1, len(data) // 4))]
    target = Path(out) if out is not None else path.with_suffix(".corrupt.rtr")
    target.write_bytes(data)
    return target


# ---------------------------------------------------------------------------
# Remap-engine key corruption + integrity checking
# ---------------------------------------------------------------------------
def _key_material(mapping: AddressMapping) -> bytes:
    """Serialize a mapping's secret state (keys + sweep pointers)."""
    engines = getattr(mapping, "engines", None)
    if engines:
        digest = hashlib.sha256()
        for engine in engines:
            digest.update(
                f"{engine.keys.curr_key:x}/{engine.keys.next_key:x}/{engine.ptr}|".encode()
            )
        return digest.digest()
    cipher = getattr(mapping, "cipher", None)
    if cipher is not None:
        return hashlib.sha256(f"{cipher.key:x}".encode()).digest()
    raise MappingConfigError(
        f"mapping '{mapping.name}' has no key state to checksum",
        mapping=mapping.name,
    )


def snapshot_key_state(mapping: AddressMapping) -> str:
    """Boot-time digest of the mapping's key registers (hex)."""
    return _key_material(mapping).hex()


def corrupt_remap_keys(mapping: AddressMapping, *, seed: int = 0) -> str:
    """Flip one bit in one remap engine's current key (in place).

    Models a bit-flip in the controller's key SRAM.  Only mappings with
    xor remap engines (Rubix-D, Keyed-Xor) carry mutable key registers;
    others raise :class:`~repro.errors.MappingConfigError`.

    Returns:
        A description of the flip (engine index and bit), for logs.
    """
    engines = getattr(mapping, "engines", None)
    if not engines:
        raise MappingConfigError(
            f"mapping '{mapping.name}' has no remap engines to corrupt",
            mapping=mapping.name,
        )
    rng = SplitMix64(seed)
    index = rng.next_below(len(engines))
    engine = engines[index]
    bit = rng.next_below(engine.nbits)
    engine.keys.curr_key ^= 1 << bit
    return f"engine[{index}].curr_key bit {bit}"


def verify_key_state(mapping: AddressMapping, snapshot: str) -> None:
    """Check key registers against a boot-time snapshot.

    Raises:
        FaultInjectedError: The key material changed outside a legal
            epoch advance (snapshot mismatch).
    """
    current = snapshot_key_state(mapping)
    if current != snapshot:
        raise FaultInjectedError(
            "remap key state diverged from its boot-time snapshot",
            mapping=mapping.name,
            expected=snapshot[:16],
            actual=current[:16],
        )
