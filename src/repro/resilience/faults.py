"""Deterministic fault injection for the mitigation pipeline.

Hardware Rowhammer test harnesses prove their detection logic by
injecting faults and watching the system fail *loudly*.  This module is
the software analogue: seeded, reproducible corruptions of the three
trust boundaries a campaign crosses --

* **trace files** on disk (:func:`corrupt_trace_file` truncates an
  ``.rtr`` file so :func:`~repro.workloads.trace_io.load_trace` must
  raise :class:`~repro.errors.TraceFormatError`; the loader refuses a
  flipped bit in the line data the same way, since it checks the data
  against the stored fingerprint);
* **remap-engine key state** (:func:`corrupt_remap_keys` flips a key
  bit, :func:`verify_key_state` catches it against a boot-time
  :func:`snapshot_key_state` digest -- modelling key-register parity);
* **the simulator itself** (:class:`FaultySimulator` wraps a real
  simulator and, per a seeded :class:`FaultPlan`, raises typed errors,
  drops mitigation events, or crashes the process mid-sweep).

:func:`~repro.resilience.executor.check_result_invariants`, which every
campaign cell runs, is the matching detector, so no injected fault
yields a silent wrong result.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.errors import FaultInjectedError, MappingConfigError
from repro.mapping.base import AddressMapping
from repro.perf.simulator import RunResult, Simulator
from repro.utils.prng import SplitMix64
from repro.workloads.trace import Trace


class SimulatedCrash(BaseException):
    """A hard mid-sweep crash (process death, OOM kill).

    Derives from ``BaseException`` on purpose: the resilience layer
    absorbs only ``Exception``, so a simulated crash tears the campaign
    down exactly like a real one -- which is what the checkpoint/resume
    tests need to exercise.
    """


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


# ---------------------------------------------------------------------------
# Simulator-level fault plans
# ---------------------------------------------------------------------------
@dataclass
class FaultPlan:
    """A seeded, declarative set of faults to inject into a simulator.

    Cells are matched by substring against the cell id
    ``"<trace>|<mapping>|<scheme>|<t_rh>"`` (e.g. ``"namd|Rubix"``).

    Attributes:
        seed: Recorded for provenance (plans are already deterministic).
        fail_cells: Cells that raise :class:`FaultInjectedError`.
        drop_mitigation_cells: Cells whose result has its mitigation
            events dropped (count zeroed) -- a *silent* corruption that
            :func:`~repro.resilience.executor.check_result_invariants`
            must catch.
        crash_after_cells: Raise :class:`SimulatedCrash` when this many
            cells have completed (None = never).
    """

    seed: int = 0
    fail_cells: Tuple[str, ...] = ()
    drop_mitigation_cells: Tuple[str, ...] = ()
    crash_after_cells: Optional[int] = None


class FaultySimulator:
    """A :class:`~repro.perf.simulator.Simulator` wrapper that injects faults.

    Drop-in for the campaign's ``simulator`` argument; everything not
    named by the plan passes straight through to the wrapped simulator.
    """

    def __init__(self, simulator: Simulator, plan: FaultPlan) -> None:
        self.simulator = simulator
        self.plan = plan
        self.config = simulator.config
        self.cells_completed = 0

    @staticmethod
    def _cell_id(trace: Trace, mapping: AddressMapping, scheme: str, t_rh: int) -> str:
        return f"{trace.name}|{mapping.name}|{scheme}|{t_rh}"

    def _matches(self, patterns, cell_id: str) -> bool:
        return any(pattern in cell_id for pattern in patterns)

    def run(self, trace: Trace, mapping: AddressMapping, *, scheme: str = "none", t_rh: int = 128, **kwargs) -> RunResult:
        """Injecting counterpart of :meth:`Simulator.run`."""
        if (
            self.plan.crash_after_cells is not None
            and self.cells_completed >= self.plan.crash_after_cells
        ):
            raise SimulatedCrash(
                f"simulated crash after {self.cells_completed} cells"
            )
        cell_id = self._cell_id(trace, mapping, scheme, t_rh)
        if self._matches(self.plan.fail_cells, cell_id):
            raise FaultInjectedError(
                "injected hard fault", cell=cell_id, seed=self.plan.seed
            )
        result = self.simulator.run(trace, mapping, scheme=scheme, t_rh=t_rh, **kwargs)
        if self._matches(self.plan.drop_mitigation_cells, cell_id):
            result = dataclasses.replace(result, mitigations=0)
        self.cells_completed += 1
        return result

    def __getattr__(self, name: str):
        # Delegate window_stats/power/etc. to the wrapped simulator.
        return getattr(self.simulator, name)


__all__ = [
    "SimulatedCrash",
    "FaultPlan",
    "FaultySimulator",
    "corrupt_trace_file",
    "snapshot_key_state",
    "corrupt_remap_keys",
    "verify_key_state",
]
