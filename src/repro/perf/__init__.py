"""Performance modeling: from trace statistics to normalized IPC.

:mod:`repro.perf.simulator` drives a trace through a mapping and the
fast DRAM analyzer, then :mod:`repro.perf.core_model` converts the
measured activation/hit mix and mitigation-invocation counts into an
execution-time estimate.  All calibration constants live in
:class:`repro.perf.core_model.Calibration` and are documented in
EXPERIMENTS.md.
"""

from repro.perf.core_model import Calibration, PerformanceModel
from repro.perf.metrics import geometric_mean, percent, slowdown_percent
from repro.perf.simulator import RunResult, Simulator

__all__ = [
    "Calibration",
    "PerformanceModel",
    "Simulator",
    "RunResult",
    "geometric_mean",
    "percent",
    "slowdown_percent",
]
