"""Command-line experiment runner.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run fig7 [--scale 0.5] [--workloads 6]
    python -m repro.experiments serve spec.json [--workers 2] [--journal j.jsonl]
    python -m repro.experiments report --telemetry runs/today

``run`` runs one experiment; ``scripts/run_paper_suite.py`` runs the
whole suite, in its published order, in one process.

``serve`` runs campaign spec files one after another, each over the
campaign process pool (``Campaign.run(workers=N)``), against one shared
checkpoint journal: a cell an earlier spec or an earlier run committed
is replayed, not recomputed.

``run``, ``serve`` and the suite share one block of flags
(:func:`add_run_flags`).  ``--stats-cache DIR`` keeps the window
statistics on disk, so a later run reuses instead of recomputes each
(trace, mapping) analysis.  ``--telemetry-dir DIR`` enables the
telemetry layer for the run: a ``manifest.json`` with full provenance,
a JSONL metric snapshot, and per-process span/log event streams -- the
run's machine log -- land in DIR; ``report --telemetry DIR`` renders
them as a human summary afterwards.  ``--quiet`` keeps only warnings
and errors on the console.  Default console output is unchanged by any
of this.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.experiments.common import persist_window_stats
from repro.experiments.registry import get_experiment, list_experiments
from repro.obs import runtime as obs_runtime
from repro.obs.logs import QUIET
from repro.obs.manifest import RunManifest
from repro.obs.runtime import METRICS, TRACER, get_logger
from repro.resilience.journal import CheckpointJournal

log = get_logger("runner")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rubix-experiment",
        description="Reproduce the tables and figures of the Rubix paper (ASPLOS 2024).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    inspect_cmd = sub.add_parser(
        "inspect", help="inspect one workload under one mapping"
    )
    inspect_cmd.add_argument("workload", help="workload name (e.g. gcc, mix3, stream-copy)")
    inspect_cmd.add_argument(
        "--mapping",
        default="coffeelake",
        help="mapping short name (coffeelake, skylake, mop, stride, linear,"
        " rubix-s, rubix-d, keyed-xor)",
    )
    inspect_cmd.add_argument("--gang-size", type=int, default=4)
    inspect_cmd.add_argument("--scale", type=float, default=0.2)
    inspect_cmd.add_argument("--t-rh", type=int, default=128)
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment id (see 'list')")
    run.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload scale factor in (0,1]; defaults to the experiment's own",
    )
    run.add_argument(
        "--workloads",
        type=int,
        default=None,
        help="limit the number of workloads (quick runs)",
    )
    run.add_argument(
        "--chart",
        action="store_true",
        help="render the first numeric column as ASCII bars",
    )
    run.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the result as JSON to PATH",
    )
    add_run_flags(run)
    report = sub.add_parser(
        "report", help="summarize a finished run's telemetry artifacts"
    )
    report.add_argument(
        "--telemetry",
        metavar="DIR",
        required=True,
        help="telemetry directory a previous run wrote (--telemetry-dir)",
    )
    serve = sub.add_parser(
        "serve",
        help="run campaign spec files on the campaign process pool",
    )
    serve.add_argument(
        "specs", nargs="+", help="campaign spec JSON files, run in order"
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="process-pool size (1 = in-process)"
    )
    serve.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="checkpoint journal shared by every spec; an existing journal"
        " resumes without recomputing committed cells",
    )
    serve.add_argument(
        "--no-resume",
        action="store_true",
        help="start the --journal over instead of resuming it",
    )
    serve.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="write each spec's records to DIR/<tenant>.json",
    )
    add_run_flags(serve)
    return parser


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Add the flags every run command shares: ``run``, ``serve`` and the suite."""
    parser.add_argument(
        "--stats-cache",
        metavar="DIR",
        default=None,
        help="disk-persistent window-statistics cache, shared with pool"
        " workers and later runs",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress console status output (warnings/errors still print)",
    )
    parser.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        default=None,
        help="enable telemetry and write run artifacts (manifest.json,"
        " metrics.jsonl, events-*.jsonl) to DIR",
    )


def run_experiment(
    experiment_id: str, scale: Optional[float] = None, workload_limit: Optional[int] = None
):
    """Run one experiment and return its ExperimentResult.

    ``workload_limit`` is forwarded only to runners that accept it (the
    data-only experiments like fig1a take no workload arguments).  The
    run is one ``runner.experiment`` span (attrs ``experiment`` and the
    resolved ``scale``), the root every simulator span nests under.
    """
    import inspect

    entry = get_experiment(experiment_id)
    kwargs = {}
    if workload_limit is not None:
        parameters = inspect.signature(entry.runner).parameters
        if "workload_limit" in parameters:
            kwargs["workload_limit"] = workload_limit
    scale = scale if scale is not None else entry.default_scale
    with TRACER.span("runner.experiment", experiment=experiment_id, scale=scale):
        return entry.runner(scale=scale, **kwargs)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for entry in list_experiments():
            print(f"{entry.experiment_id:10s} {entry.title}")
        return 0

    if args.command == "inspect":
        return _inspect(args)

    if args.command == "report":
        return _report(args)

    if args.command == "serve":
        return _serve(args)

    known = sorted(entry.experiment_id for entry in list_experiments())
    if args.experiment not in known:
        log.error(
            "args.invalid",
            message=f"unknown experiment '{args.experiment}'; known: {', '.join(known)}",
            experiment=args.experiment,
        )
        return 2
    manifest = configure_telemetry(
        args,
        "experiments.run",
        {
            "experiment": args.experiment,
            "scale": args.scale,
            "workload_limit": args.workloads,
            "stats_cache": args.stats_cache,
        },
    )
    with persist_window_stats(args.stats_cache):
        ok = _run_one(args)
    write_telemetry(manifest)
    return 0 if ok else 1


def configure_telemetry(args, command: str, config: dict) -> Optional[RunManifest]:
    """Apply the run's ``--quiet``/``--telemetry-dir``; returns the manifest, if any.

    Pool workers mirror this configuration through the pool initializer
    (:func:`repro.obs.runtime.export_config`).
    """
    obs_runtime.configure(
        enabled=bool(args.telemetry_dir),
        telemetry_dir=args.telemetry_dir,
        verbosity=QUIET if args.quiet else None,
    )
    if not args.telemetry_dir:
        return None
    return RunManifest.create(command, config=config)


def write_telemetry(manifest: Optional[RunManifest]) -> None:
    """Write the run's metric snapshot and manifest, when telemetry is on."""
    if manifest is None:
        return
    written = obs_runtime.write_telemetry(manifest=manifest)
    log.info(
        "telemetry.written",
        message=f"[telemetry written to {obs_runtime.telemetry_dir()}]",
        artifacts=sorted(str(path) for path in written.values()),
    )


def _serve(args) -> int:
    """Run campaign specs in order on the pool, sharing one journal.

    Every spec resumes from the journal the specs before it appended
    to, so a cell that an earlier spec (or an earlier run of the same
    command) committed is replayed, not recomputed.  Without
    ``--journal`` the shared journal is a temporary file.
    """
    import json
    import tempfile
    from concurrent.futures.process import BrokenProcessPool

    from repro.experiments.campaign import campaign_from_spec

    if args.workers < 1:
        log.error("args.invalid", message="[--workers must be >= 1]")
        return 2
    campaigns, tenants = [], []
    for index, path in enumerate(args.specs):
        try:
            spec = json.loads(Path(path).read_text())
            campaigns.append(campaign_from_spec(spec))
        except (OSError, ValueError, KeyError) as error:
            log.error("serve.invalid_spec", message=f"[bad spec {path}: {error}]")
            return 2
        tenant = str(spec.get("tenant", f"tenant{index}"))
        if tenant in ("", ".", "..") or Path(tenant).name != tenant:
            # It names the --json DIR/<tenant>.json file, so it must stay in DIR.
            log.error(
                "serve.invalid_spec",
                message=f"[bad spec {path}: tenant {tenant!r} is not a plain file name]",
            )
            return 2
        tenants.append(tenant)
    duplicates = sorted({tenant for tenant in tenants if tenants.count(tenant) > 1})
    if duplicates:
        log.error(
            "serve.duplicate_tenant",
            message=f"[tenant name(s) used by more than one spec: {', '.join(duplicates)}]",
            tenants=duplicates,
        )
        return 2
    manifest = configure_telemetry(
        args,
        "experiments.serve",
        {
            "specs": list(args.specs),
            "tenants": tenants,
            "workers": args.workers,
            "journal": args.journal,
            "stats_cache": args.stats_cache,
        },
    )
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="rubix-serve-") as scratch:
        journal = CheckpointJournal(args.journal or Path(scratch) / "journal.jsonl")
        if args.no_resume:
            journal.reset()
        try:
            results = [
                campaign.run(
                    workers=args.workers,
                    stats_cache_dir=args.stats_cache,
                    resume_from=journal,
                )
                for campaign in campaigns
            ]
        except BrokenProcessPool as error:
            log.error(
                "serve.worker_lost",
                message=f"[a pool worker died ({error}); every cell finished"
                " before it is journaled -- rerun the same command to resume]",
            )
            write_telemetry(manifest)
            return 1
    failures = 0
    for tenant, campaign, records in zip(tenants, campaigns, results):
        errors = sum(1 for r in records if r.get("status") == "error")
        failures += errors
        log.info(
            "serve.finished",
            message=f"[{tenant}: {len(records)} cells, {campaign.cells_executed} computed"
            + (f", {errors} errors" if errors else "")
            + "]",
            tenant=tenant,
            cells=len(records),
            computed=campaign.cells_executed,
            errors=errors,
        )
        if args.json:
            out = Path(args.json)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{tenant}.json").write_text(json.dumps(records, indent=2) + "\n")
    elapsed = time.perf_counter() - started
    log.info(
        "serve.done",
        message=f"[served {len(campaigns)} spec(s) in {elapsed:.1f}s]",
        specs=len(campaigns),
        elapsed_s=round(elapsed, 3),
    )
    write_telemetry(manifest)
    return 1 if failures else 0


def _report(args) -> int:
    """Render a finished run's telemetry artifacts as a human summary."""
    from repro.obs.summary import summarize_dir

    try:
        print(summarize_dir(args.telemetry))
    except (OSError, ValueError) as error:
        log.error("report.failed", message=str(error))
        return 2
    return 0


def _run_one(args) -> bool:
    """Run ``args.experiment`` and print its outcome; returns False on failure.

    A failure is logged as ``"<type>: <message>"`` text rather than a
    traceback.  Timing is monotonic (``perf_counter``), so a wall-clock
    adjustment mid-run cannot skew the reported elapsed time.
    """
    experiment_id = args.experiment
    started = time.perf_counter()
    try:
        result = run_experiment(experiment_id, args.scale, args.workloads)
    except Exception as exc:
        METRICS.inc("runner.experiments", status="error")
        error = f"{type(exc).__name__}: {exc}"
        log.error(
            "experiment.failed",
            message=f"[{experiment_id} failed: {error}]",
            experiment=experiment_id,
            error=error,
            elapsed_s=round(time.perf_counter() - started, 3),
        )
        return False
    METRICS.inc("runner.experiments", status="ok")
    elapsed = time.perf_counter() - started
    log.info("experiment.result", message=result.format(), experiment=experiment_id)
    if args.chart:
        from repro.experiments.charts import render_bars

        try:
            log.info("experiment.chart", message=render_bars(result), experiment=experiment_id)
        except ValueError as chart_error:
            log.info(
                "experiment.chart_skipped",
                message=f"[no chart: {chart_error}]",
                experiment=experiment_id,
            )
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(result.to_json())
        log.info(
            "experiment.json_written",
            message=f"[json written to {out}]",
            experiment=experiment_id,
            path=str(out),
        )
    log.info(
        "experiment.finished",
        message=f"[{experiment_id} finished in {elapsed:.1f}s]\n",
        experiment=experiment_id,
        elapsed_s=round(elapsed, 3),
    )
    return True


def _inspect(args) -> int:
    """Print a workload's window statistics under one mapping."""
    from repro.analysis.distribution import activation_distribution
    from repro.experiments.common import get_simulator, get_trace, make_mapping

    sim = get_simulator()
    try:
        trace = get_trace(args.workload, scale=args.scale)
        mapping = make_mapping(args.mapping, sim.config, gang_size=args.gang_size)
    except (KeyError, ValueError) as error:
        print(error, file=sys.stderr)
        return 2
    stats, swaps = sim.window_stats(trace, mapping)
    print(f"workload {args.workload} (scale {args.scale}) under {mapping.name}")
    print(
        f"accesses {stats.n_accesses:,}  MPKI {trace.mpki:.2f}  "
        f"hit rate {stats.hit_rate:.1%}  activations {stats.n_activations:,}"
    )
    print(
        f"unique rows {stats.unique_rows_touched:,}  "
        f"hot rows ACT-64+ {stats.hot_rows(64):,}  ACT-512+ {stats.hot_rows(512):,}"
    )
    if swaps:
        print(f"rubix-d remap swaps this window: {swaps:,}")
    for line in activation_distribution(stats).describe():
        print(line)
    print(f"\nslowdown at T_RH={args.t_rh} vs unprotected Coffee Lake:")
    for scheme in ("aqua", "srs", "blockhammer"):
        result = sim.run(trace, mapping, scheme=scheme, t_rh=args.t_rh)
        print(
            f"  {scheme:<12s} {result.slowdown_pct:7.1f}%  "
            f"({result.mitigations:,} mitigations)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
