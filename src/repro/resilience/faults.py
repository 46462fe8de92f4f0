"""Deterministic fault injection into the simulator a campaign drives.

Hardware Rowhammer test harnesses prove their detection logic by
injecting faults and watching the system fail *loudly*.  This module is
the software analogue for campaigns: :class:`FaultySimulator` wraps a
real simulator and, per a seeded :class:`FaultPlan`, raises typed
errors, drops mitigation events, or crashes the process mid-sweep.
:func:`~repro.resilience.executor.check_result_invariants`, which every
campaign cell runs, is the matching detector, so no injected fault
yields a silent wrong result.

The corruptions of trace files and remap-key state that only unit tests
inject live with those tests (``tests/support/faults.py``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import FaultInjectedError
from repro.mapping.base import AddressMapping
from repro.perf.simulator import RunResult, Simulator
from repro.workloads.trace import Trace


class SimulatedCrash(BaseException):
    """A hard mid-sweep crash (process death, OOM kill).

    Derives from ``BaseException`` on purpose: the resilience layer
    absorbs only ``Exception``, so a simulated crash tears the campaign
    down exactly like a real one -- which is what the checkpoint/resume
    tests need to exercise.
    """


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


__all__ = ["SimulatedCrash", "FaultPlan", "FaultySimulator"]
