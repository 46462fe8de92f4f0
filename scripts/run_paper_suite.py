#!/usr/bin/env python3
"""Run the full experiment suite at publication scales.

Every registered experiment runs once, at its registered default scale.

The experiments run one after another in one process, so every
experiment reuses the trace and window-statistics caches -- the whole
suite costs one analysis pass per (workload, mapping) configuration.
``--stats-cache DIR`` also keeps those analyses on disk, so a later run
reuses them.  Output is the EXPERIMENTS.md data, in suite order.

``--telemetry-dir DIR`` additionally writes a run manifest, metric
snapshots, and span event streams to DIR (see docs/OBSERVABILITY.md);
``--log-json PATH`` mirrors the console status records to a JSONL file.
The last record, ``suite.done``, carries the suite's ``elapsed_s``, the
process's ``peak_rss_mb`` and the array megabytes its window-statistics
and trace caches hold at the end (``stats_cache_mb``,
``trace_cache_mb``); like every status record it goes to the console
and the logs, never to the output file.

Usage:  python scripts/run_paper_suite.py [output.txt] [--stats-cache DIR]
                                          [--telemetry-dir DIR]
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

from repro.experiments.common import cache_footprint_mb
from repro.experiments.registry import get_experiment
from repro.experiments.runner import run_experiment
from repro.obs import runtime as obs_runtime
from repro.obs.logs import QUIET, VERBOSE
from repro.obs.manifest import RunManifest
from repro.obs.runtime import get_logger
from repro.parallel.cache import STATS_CACHE_ENV

log = get_logger("paper_suite")

#: Every registered experiment, in suite order.  Each runs at its
#: registered ``default_scale``, so ``run <id>`` and ``run all`` print
#: what this suite (and EXPERIMENTS.md) reports.
SUITE = (
    "fig1a",
    "fig4",
    "table2",
    "fig7",
    "table3",
    "fig1c",
    "fig3",
    "fig8",
    "fig9",
    "sec48",
    "sec49",
    "fig12",
    "fig13",
    "table4",
    "fig14",
    "sec57",
    "table5",
    "sec61",
    "sec62",
    "fig16",
    "fig17",
    "fig8mix",
    "fig15",
    "sec73",
    "actdist",
    "indram-escape",
    "abl-pitfall",
    "abl-stride-attack",
    "abl-remap-rate",
    "abl-segments",
    "abl-tracker",
    "abl-cipher-rounds",
    "abl-reveng",
)


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


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss``, KB on Linux), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.stats_cache:
        os.environ[STATS_CACHE_ENV] = args.stats_cache
    verbosity = VERBOSE if args.verbose else (QUIET if args.quiet else None)
    manifest = None
    obs_runtime.configure(
        enabled=bool(args.telemetry_dir),
        telemetry_dir=args.telemetry_dir,
        verbosity=verbosity,
        log_json=args.log_json,
    )
    if args.telemetry_dir:
        manifest = RunManifest.create(
            "paper_suite",
            config={
                "suite": {
                    experiment_id: get_experiment(experiment_id).default_scale
                    for experiment_id in SUITE
                },
                "stats_cache": args.stats_cache,
                "output": args.output,
            },
        )
    out = open(args.output, "w") if args.output else sys.stdout
    suite_started = time.perf_counter()
    try:
        for experiment_id in SUITE:
            scale = get_experiment(experiment_id).default_scale
            started = time.perf_counter()
            result = run_experiment(experiment_id, scale)
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
        elapsed = time.perf_counter() - suite_started
        print(f"[suite finished in {elapsed:.0f}s]", file=out)
        out.flush()
        peak = peak_rss_mb()
        log.info(
            "suite.done",
            message=f"suite done ({elapsed:.1f}s, peak RSS {peak:.0f} MB)",
            elapsed_s=round(elapsed, 3),
            peak_rss_mb=round(peak, 1),
            **cache_footprint_mb(),
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
