"""repro: reproduction of *Rubix: Reducing the Overhead of Secure
Rowhammer Mitigations via Randomized Line-to-Row Mapping* (ASPLOS 2024).

Quickstart::

    from repro import (
        baseline_config, CoffeeLakeMapping, RubixSMapping, Simulator, spec_trace,
    )

    config = baseline_config()
    sim = Simulator(config)
    trace = spec_trace("gcc", scale=0.1)
    base = sim.run(trace, CoffeeLakeMapping(config), scheme="aqua", t_rh=128)
    rubix = sim.run(trace, RubixSMapping(config, gang_size=4), scheme="aqua", t_rh=128)
    print(base.slowdown_pct, "->", rubix.slowdown_pct)

Package map (see DESIGN.md for the full inventory):

* ``repro.dram``        -- DRAM geometry/timing, banks, power, the fast analyzer
* ``repro.mapping``     -- baseline address mappings (Coffee Lake, Skylake, MOP, ...)
* ``repro.crypto``      -- the programmable-width cipher (K-Cipher stand-in)
* ``repro.core``        -- Rubix-S, Rubix-D, keyed-xor (the paper's contribution)
* ``repro.mitigations`` -- AQUA, SRS, Blockhammer, TRR, trackers
* ``repro.workloads``   -- calibrated SPEC-like generators, mixes, STREAM, attacks
* ``repro.perf``        -- performance model and simulation driver
* ``repro.analysis``    -- hot-row characterization, binomial model, security checks
* ``repro.experiments`` -- one runner per table/figure of the paper
* ``repro.errors``      -- the structured exception taxonomy
* ``repro.resilience``  -- one-try campaign fault boundary, checkpoint journals, fault injection
"""

import importlib

__version__ = "1.0.0"

#: The quickstart surface, by defining module.  Each name is imported on
#: first access (PEP 562), so ``import repro.<anything>`` imports only
#: what that caller uses.
_MODULES = {
    "repro.dram.config": (
        "DRAMConfig",
        "DRAMTiming",
        "Coordinate",
        "baseline_config",
        "multichannel_config",
    ),
    "repro.mapping.intel": ("CoffeeLakeMapping", "SkylakeMapping"),
    "repro.mapping.linear": ("LinearMapping",),
    "repro.mapping.mop": ("MOPMapping",),
    "repro.mapping.stride": ("LargeStrideMapping",),
    "repro.core.rubix_s": ("RubixSMapping",),
    "repro.core.rubix_d": ("RubixDMapping",),
    "repro.core.rubix_keyed_xor": ("KeyedXorMapping",),
    "repro.mitigations.aqua": ("AQUA",),
    "repro.mitigations.srs": ("SRS",),
    "repro.mitigations.blockhammer": ("Blockhammer",),
    "repro.mitigations.trr": ("TRR",),
    "repro.perf.simulator": ("Simulator", "RunResult"),
    "repro.workloads.trace": ("Trace",),
    "repro.workloads.spec": ("spec_trace", "spec_names"),
    "repro.workloads.mixes": ("mix_trace",),
    "repro.workloads.stream_suite": ("stream_suite_trace",),
    "repro.workloads.kernels": ("stream_kernel", "stride_kernel", "random_kernel"),
    "repro.errors": ("ReproError",),
}
_SURFACE = {name: module for module, names in _MODULES.items() for name in names}

__all__ = [*_SURFACE, "__version__"]


def __getattr__(name):
    module = _SURFACE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
