"""Workload generators.

The paper evaluates 18 SPEC CPU2017 rate workloads, 16 four-way mixes,
the STREAM suite, and the illustrative stream/stride/random kernels of
Figure 4.  SPEC traces are proprietary, so :mod:`repro.workloads.spec`
provides synthetic generators calibrated per workload to the published
first-order statistics (Table 2: MPKI, unique rows touched, hot-row
counts; Table 3: active lines per hot row) -- see DESIGN.md for the
substitution rationale.
"""

from repro.workloads.attacks import (
    blacksmith_attack,
    blacksmith_spec,
    blind_adjacency_attack,
    blind_adjacency_spec,
    double_sided_attack,
    double_sided_spec,
    half_double_attack,
    half_double_spec,
    many_sided_attack,
    many_sided_spec,
    single_sided_attack,
    single_sided_spec,
)
from repro.workloads.kernels import random_kernel, stream_kernel, stride_kernel
from repro.workloads.mixes import mix_names, mix_profile, mix_trace
from repro.workloads.spec import (
    SPEC_PROFILES,
    SpecProfile,
    spec_names,
    spec_profile,
    spec_trace,
)
from repro.workloads.stream_suite import STREAM_KERNELS, stream_suite_trace
from repro.workloads.synthetic import (
    ColdPool,
    HotSpots,
    PointerChase,
    SequentialScan,
    WorkloadBuilder,
)
from repro.workloads.trace import Trace
from repro.workloads.trace_io import load_trace, save_trace

__all__ = [
    "Trace",
    "stream_kernel",
    "stride_kernel",
    "random_kernel",
    "SpecProfile",
    "SPEC_PROFILES",
    "spec_names",
    "spec_profile",
    "spec_trace",
    "mix_names",
    "mix_profile",
    "mix_trace",
    "STREAM_KERNELS",
    "stream_suite_trace",
    "single_sided_attack",
    "double_sided_attack",
    "half_double_attack",
    "many_sided_attack",
    "blacksmith_attack",
    "blind_adjacency_attack",
    "WorkloadBuilder",
    "HotSpots",
    "SequentialScan",
    "ColdPool",
    "PointerChase",
    "save_trace",
    "load_trace",
]
