#!/usr/bin/env python3
"""Run the full experiment suite at publication scales.

Every registered experiment runs once, at its registered default scale.
This is the one whole-suite driver: ``python -m repro.experiments run``
runs a single experiment.

The experiments run one after another in one process, so every
experiment reuses the trace and window-statistics caches -- the whole
suite costs one analysis pass per (workload, mapping) configuration.
Output is the EXPERIMENTS.md data, in suite order.

The flags are the runner's (``add_run_flags``): ``--stats-cache DIR``
also keeps the analyses on disk, so a later run reuses them;
``--quiet`` keeps only warnings and errors on the console; and
``--telemetry-dir DIR`` writes a run manifest, metric snapshots, and
the span and log event streams to DIR (see docs/OBSERVABILITY.md).
Each experiment ends with a ``suite.experiment_done`` status record
(``experiment``, ``elapsed_s``).  The last record, ``suite.done``,
carries the suite's ``elapsed_s``, the process's ``peak_rss_mb`` and the
array megabytes its window-statistics and trace caches hold at the end
(``stats_cache_mb``, ``trace_cache_mb``).  Like every status record
they go to the console and the event stream, never to the output file.

Usage:  python scripts/run_paper_suite.py [output.txt] [--stats-cache DIR]
                                          [--quiet] [--telemetry-dir DIR]
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

from repro.experiments.common import cache_footprint_mb, persist_window_stats
from repro.experiments.registry import get_experiment
from repro.experiments.runner import (
    add_run_flags,
    configure_telemetry,
    run_experiment,
    write_telemetry,
)
from repro.obs.runtime import get_logger

log = get_logger("paper_suite")

#: Every registered experiment, in suite order.  Each runs at its
#: registered ``default_scale``, so ``run <id>`` prints what this suite
#: (and EXPERIMENTS.md) reports.
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
    add_run_flags(parser)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss``, KB on Linux), in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = _parse_args(argv)
    scales = {experiment_id: get_experiment(experiment_id).default_scale for experiment_id in SUITE}
    manifest = configure_telemetry(
        args,
        "paper_suite",
        {"suite": scales, "stats_cache": args.stats_cache, "output": args.output},
    )
    out = open(args.output, "w") if args.output else sys.stdout
    suite_started = time.perf_counter()
    try:
        with persist_window_stats(args.stats_cache):
            for experiment_id, scale in scales.items():
                started = time.perf_counter()
                result = run_experiment(experiment_id, scale)
                elapsed = time.perf_counter() - started
                print(result.format(), file=out)
                print(f"[{experiment_id} scale={scale} finished in {elapsed:.1f}s]\n", file=out)
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
        write_telemetry(manifest)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
