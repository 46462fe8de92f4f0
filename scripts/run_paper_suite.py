#!/usr/bin/env python3
"""Run the full experiment suite at publication scales.

The experiments run one after another in one process, so every
experiment reuses the trace and window-statistics caches -- the whole
suite costs one analysis pass per (workload, mapping) configuration.
``--stats-cache DIR`` also keeps those analyses on disk, so a later run
reuses them.  Output is the EXPERIMENTS.md data, in suite order.

``--telemetry-dir DIR`` additionally writes a run manifest, metric
snapshots, and span event streams to DIR (see docs/OBSERVABILITY.md);
``--log-json PATH`` mirrors the console status records to a JSONL file.

Usage:  python scripts/run_paper_suite.py [output.txt] [--stats-cache DIR]
                                          [--telemetry-dir DIR]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments.runner import run_experiment
from repro.obs import runtime as obs_runtime
from repro.obs.logs import QUIET, VERBOSE
from repro.obs.manifest import RunManifest
from repro.obs.runtime import get_logger
from repro.parallel.cache import STATS_CACHE_ENV

log = get_logger("paper_suite")

#: (experiment id, scale, workload limit) -- None = experiment default.
SUITE = [
    ("fig1a", 1.0, None),
    ("fig4", 1.0, None),
    ("table2", 1.0, None),
    ("fig7", 1.0, None),
    ("table3", 0.5, None),
    ("fig1c", 0.4, None),
    ("fig3", 0.4, None),
    ("fig8", 0.4, None),
    ("fig9", 0.4, None),
    ("sec48", 0.4, None),
    ("sec49", 0.4, None),
    ("fig12", 0.4, None),
    ("fig13", 0.4, None),
    ("table4", 0.4, None),
    ("fig14", 0.4, None),
    ("sec57", 0.4, None),
    ("table5", 0.4, None),
    ("sec61", 0.4, None),
    ("sec62", 0.4, None),
    ("fig16", 0.5, None),
    ("fig17", 0.4, None),
    ("fig8mix", 0.25, None),
    ("fig15", 0.2, None),
    ("sec73", 0.4, None),
    ("actdist", 0.3, None),
    ("indram-escape", 1.0, None),
    ("abl-pitfall", 0.3, None),
    ("abl-stride-attack", 1.0, None),
    ("abl-remap-rate", 0.2, None),
    ("abl-segments", 1.0, None),
    ("abl-tracker", 1.0, None),
    ("abl-cipher-rounds", 0.2, None),
    ("abl-reveng", 1.0, None),
]


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", default=None, help="output file (stdout if omitted)")
    parser.add_argument(
        "--stats-cache",
        metavar="DIR",
        default=None,
        help="persistent window-statistics cache directory, reused by later runs",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--verbose", action="store_true", help="print debug-level records too"
    )
    verbosity.add_argument(
        "--quiet", action="store_true", help="suppress console status output"
    )
    parser.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="mirror structured log records to this JSONL file",
    )
    parser.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        default=None,
        help="enable telemetry and write run artifacts (manifest,"
        " metric snapshots, event streams) to DIR",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.stats_cache:
        os.environ[STATS_CACHE_ENV] = args.stats_cache
    verbosity = VERBOSE if args.verbose else (QUIET if args.quiet else None)
    manifest = None
    obs_runtime.configure(
        enabled=obs_runtime.enabled() or bool(args.telemetry_dir),
        telemetry_dir=args.telemetry_dir,
        verbosity=verbosity,
        log_json=args.log_json,
    )
    if args.telemetry_dir or obs_runtime.telemetry_dir() is not None:
        manifest = RunManifest.create(
            "paper_suite",
            config={
                "suite": [list(entry) for entry in SUITE],
                "stats_cache": args.stats_cache,
                "output": args.output,
            },
        )
    out = open(args.output, "w") if args.output else sys.stdout
    suite_started = time.perf_counter()
    try:
        for experiment_id, scale, workloads in SUITE:
            started = time.perf_counter()
            result = run_experiment(experiment_id, scale, workloads)
            elapsed = time.perf_counter() - started
            print(result.format(), file=out)
            print(
                f"[{experiment_id} scale={scale} finished in {elapsed:.1f}s]\n",
                file=out,
            )
            out.flush()
            log.info(
                "suite.experiment_done",
                message=f"done {experiment_id} ({elapsed:.1f}s)",
                experiment=experiment_id,
                elapsed_s=round(elapsed, 3),
            )
        print(
            f"[suite finished in {time.perf_counter() - suite_started:.0f}s]", file=out
        )
        if manifest is not None:
            written = obs_runtime.write_telemetry(manifest=manifest)
            log.info(
                "telemetry.written",
                message=f"[telemetry written to {obs_runtime.telemetry_dir()}]",
                artifacts=sorted(str(path) for path in written.values()),
            )
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
