"""Command-line experiment runner.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run fig7 [--scale 0.5] [--workloads 6]
    python -m repro.experiments run all [--scale 0.25]
    python -m repro.experiments serve spec.json [--workers 2] [--journal j.jsonl]
    python -m repro.experiments report --telemetry runs/today

Experiments run one after another in this process, so they share its
trace and window-statistics caches.  ``--stats-cache DIR`` also keeps
the window statistics on disk, so a later run reuses instead of
recomputes each (trace, mapping) analysis.

``serve`` runs campaign spec files one after another, each over the
campaign process pool (``Campaign.run(workers=N)``), against one shared
checkpoint journal: a cell an earlier spec or an earlier run committed
is replayed, not recomputed.

``--telemetry-dir DIR`` enables the telemetry layer for the run: a
``manifest.json`` with full provenance, metric snapshots (JSONL and
Prometheus text), and per-process span/log event streams land in DIR;
``report --telemetry DIR`` renders them as a human summary afterwards.
``--verbose``/``--quiet`` adjust console logging; ``--log-json PATH``
mirrors every log record (console-visible or not) to a JSONL file.
Default console output is unchanged by any of this.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional, Tuple

from repro.experiments.registry import get_experiment, list_experiments
from repro.obs import runtime as obs_runtime
from repro.obs.logs import QUIET, VERBOSE
from repro.obs.manifest import RunManifest
from repro.obs.runtime import METRICS, TRACER, get_logger
from repro.parallel.cache import STATS_CACHE_ENV
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
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id (see 'list') or 'all'")
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
        help="also write results as JSON (one file per experiment, or a"
        " single file for one experiment)",
    )
    run.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="JSONL checkpoint journal: record each completed experiment"
        " so an interrupted 'run all' can be resumed",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="skip experiments already completed in --journal instead of"
        " starting the journal over",
    )
    run.add_argument(
        "--stats-cache",
        metavar="DIR",
        default=None,
        help="directory for a persistent window-statistics cache shared"
        " across runs (sets the REPRO_STATS_CACHE environment variable)",
    )
    verbosity = run.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--verbose",
        action="store_true",
        help="also print debug-level status records to the console",
    )
    verbosity.add_argument(
        "--quiet",
        action="store_true",
        help="suppress console status output (warnings/errors still print)",
    )
    run.add_argument(
        "--log-json",
        metavar="PATH",
        default=None,
        help="mirror every structured log record to this JSONL file"
        " (independent of console verbosity)",
    )
    run.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        default=None,
        help="enable telemetry and write run artifacts (manifest.json,"
        " metrics.jsonl, metrics.prom, events-*.jsonl) to DIR; sets the"
        " REPRO_TELEMETRY_DIR environment variable",
    )
    playbook_cmd = sub.add_parser(
        "playbook", help="compile a declarative attack playbook and inspect its trace"
    )
    playbook_cmd.add_argument(
        "spec", help="playbook spec file (JSON, or TOML with a .toml suffix)"
    )
    playbook_cmd.add_argument(
        "--mapping",
        default=None,
        help="override the spec's target_mapping (construction mapping)",
    )
    playbook_cmd.add_argument("--gang-size", type=int, default=4)
    playbook_cmd.add_argument("--scale", type=float, default=1.0)
    playbook_cmd.add_argument(
        "--top", type=int, default=8, help="hottest rows to list (default 8)"
    )
    fuzz_cmd = sub.add_parser(
        "fuzz",
        help="sweep a playbook parameter grid and bisect to the minimal hot pattern",
    )
    fuzz_cmd.add_argument(
        "spec",
        help='sweep file holding {"base": <playbook spec>, "sweep": {axis: range}}'
        " (JSON, or TOML with a .toml suffix)",
    )
    fuzz_cmd.add_argument(
        "--mapping",
        default="coffeelake",
        help="mapping the cells are evaluated under (construction mapping"
        " comes from the base spec's target_mapping)",
    )
    fuzz_cmd.add_argument("--gang-size", type=int, default=4)
    fuzz_cmd.add_argument("--scheme", default="none")
    fuzz_cmd.add_argument("--t-rh", type=int, default=128)
    fuzz_cmd.add_argument(
        "--metric",
        default="hot_rows_64",
        choices=["hot_rows_64", "hot_rows_512"],
        help="record field that measures row pressure",
    )
    fuzz_cmd.add_argument("--min-hot-rows", type=int, default=1)
    fuzz_cmd.add_argument(
        "--max-cells",
        type=int,
        default=0,
        help="seeded subsample cap on evaluated grid cells (0 = no cap)",
    )
    fuzz_cmd.add_argument("--seed", type=int, default=0)
    fuzz_cmd.add_argument("--workers", type=int, default=1)
    fuzz_cmd.add_argument("--stats-cache", metavar="DIR", default=None)
    fuzz_cmd.add_argument(
        "--json", metavar="PATH", default=None, help="write the full result as JSON"
    )
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
    serve.add_argument(
        "--stats-cache",
        metavar="DIR",
        default=None,
        help="disk-persistent window-statistics cache shared by the pool"
        " workers and later runs",
    )
    serve.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        default=None,
        help="enable telemetry; run artifacts (manifest.json, metrics,"
        " events) land in DIR",
    )
    serve_verbosity = serve.add_mutually_exclusive_group()
    serve_verbosity.add_argument("--verbose", action="store_true")
    serve_verbosity.add_argument("--quiet", action="store_true")
    serve.add_argument("--log-json", metavar="PATH", default=None)
    return parser


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

    if args.command == "playbook":
        return _playbook(args)

    if args.command == "fuzz":
        return _fuzz(args)

    if args.command == "report":
        return _report(args)

    if args.command == "serve":
        return _serve(args)

    targets = (
        [e.experiment_id for e in list_experiments()]
        if args.experiment == "all"
        else [args.experiment]
    )
    if args.resume and not args.journal:
        log.error("args.invalid", message="--resume requires --journal PATH")
        return 2
    known = {entry.experiment_id for entry in list_experiments()}
    for experiment_id in targets:
        if experiment_id not in known:
            # Validate before journal.reset() below: a typo'd id must not
            # wipe an existing checkpoint journal.
            log.error(
                "args.invalid",
                message=f"unknown experiment '{experiment_id}';"
                f" known: {', '.join(sorted(known))}",
                experiment=experiment_id,
            )
            return 2
    if args.stats_cache:
        # Environment, not an argument: get_simulator() picks it up
        # lazily, whichever experiment builds the simulator first.
        os.environ[STATS_CACHE_ENV] = args.stats_cache
    manifest = _configure_telemetry(
        args,
        "experiments.run",
        {
            "experiments": targets,
            "scale": args.scale,
            "workload_limit": args.workloads,
            "stats_cache": args.stats_cache,
        },
    )
    journal = CheckpointJournal(args.journal) if args.journal else None
    if journal is not None and not args.resume:
        journal.reset()
    completed = journal.completed_keys() if journal is not None else set()
    failures = []
    for experiment_id in targets:
        if experiment_id in completed:
            log.info(
                "experiment.skipped",
                message=f"[{experiment_id} already completed; skipped (resume)]",
                experiment=experiment_id,
            )
            continue
        result, error, elapsed = _experiment_task(
            experiment_id, args.scale, args.workloads
        )
        ok = _emit_result(
            args, experiment_id, result, error, elapsed, journal,
            multi=len(targets) > 1,
        )
        if not ok:
            failures.append(experiment_id)
    _write_telemetry(manifest)
    if failures:
        log.error(
            "run.failures",
            message=f"[{len(failures)} experiment(s) failed: {', '.join(failures)}]",
            failed=failures,
        )
        return 1
    return 0


def _configure_telemetry(args, command: str, config: dict) -> Optional[RunManifest]:
    """Apply the run's logging/telemetry flags; returns the manifest, if any.

    The telemetry directory travels through ``REPRO_TELEMETRY_DIR`` so
    pool workers -- fork or spawn -- configure themselves at import, the
    same pattern ``REPRO_STATS_CACHE`` uses.
    """
    verbosity = VERBOSE if args.verbose else (QUIET if args.quiet else None)
    if args.telemetry_dir:
        os.environ[obs_runtime.TELEMETRY_DIR_ENV] = args.telemetry_dir
    obs_runtime.configure(
        enabled=obs_runtime.enabled() or bool(args.telemetry_dir),
        telemetry_dir=args.telemetry_dir,
        verbosity=verbosity,
        log_json=args.log_json,
    )
    if not args.telemetry_dir:
        return None
    return RunManifest.create(command, config=config)


def _write_telemetry(manifest: Optional[RunManifest]) -> None:
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
    from pathlib import Path

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
        tenants.append(str(spec.get("tenant", f"tenant{index}")))
    duplicates = sorted({tenant for tenant in tenants if tenants.count(tenant) > 1})
    if duplicates:
        log.error(
            "serve.duplicate_tenant",
            message=f"[tenant name(s) used by more than one spec: {', '.join(duplicates)}]",
            tenants=duplicates,
        )
        return 2
    manifest = _configure_telemetry(
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
            _write_telemetry(manifest)
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
    _write_telemetry(manifest)
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


def _experiment_task(
    experiment_id: str, scale: Optional[float], workload_limit: Optional[int]
) -> Tuple[object, Optional[str], float]:
    """Run one experiment; returns ``(result, error, elapsed)``.

    A failure comes back as ``"<type>: <message>"`` text so one broken
    experiment does not abort the suite.  Timing is monotonic
    (``perf_counter``), so a wall-clock adjustment mid-run cannot skew
    the reported elapsed time.
    """
    started = time.perf_counter()
    try:
        result = run_experiment(experiment_id, scale, workload_limit)
        METRICS.inc("runner.experiments", status="ok")
        error = None
    except Exception as exc:
        METRICS.inc("runner.experiments", status="error")
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, time.perf_counter() - started


def _emit_result(args, experiment_id, result, error, elapsed, journal, *, multi) -> bool:
    """Print/journal one experiment outcome; returns False on failure."""
    if error is not None:
        log.error(
            "experiment.failed",
            message=f"[{experiment_id} failed: {error}]",
            experiment=experiment_id,
            error=error,
            elapsed_s=round(elapsed, 3),
        )
        return False
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
        from pathlib import Path

        target = Path(args.json)
        if multi:
            target.mkdir(parents=True, exist_ok=True)
            out = target / f"{experiment_id}.json"
        else:
            out = target
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(result.to_json())
        log.info(
            "experiment.json_written",
            message=f"[json written to {out}]",
            experiment=experiment_id,
            path=str(out),
        )
    if journal is not None:
        journal.append(
            experiment_id,
            {"status": "ok", "title": result.title, "elapsed_s": round(elapsed, 1)},
            duration_s=elapsed,
            worker_id=f"p{os.getpid()}",
        )
    log.info(
        "experiment.finished",
        message=f"[{experiment_id} finished in {elapsed:.1f}s]\n",
        experiment=experiment_id,
        elapsed_s=round(elapsed, 3),
    )
    return True


def _load_playbook_file(path: str) -> dict:
    """Parse a playbook/sweep file: TOML for ``.toml``, JSON otherwise."""
    import json
    from pathlib import Path

    raw = Path(path).read_bytes()
    if path.endswith(".toml"):
        import tomllib

        return tomllib.loads(raw.decode())
    return json.loads(raw)


def _playbook(args) -> int:
    """Compile one playbook spec and print its trace's row profile."""
    import numpy as np

    from repro.experiments.common import _playbook_mapping_kwargs, make_mapping
    from repro.workloads.playbook import compile_playbook

    try:
        spec = _load_playbook_file(args.spec)
        if args.mapping is not None:
            spec["target_mapping"] = {"kind": args.mapping, "gang_size": args.gang_size}
        mapping = None
        if spec.get("address_space", "row") != "line":
            kwargs = _playbook_mapping_kwargs(spec.get("target_mapping"))
            mapping = make_mapping(**kwargs)
        trace = compile_playbook(spec, mapping, scale=args.scale)
    except (OSError, ValueError) as error:
        print(f"bad playbook spec {args.spec}: {error}", file=sys.stderr)
        return 2
    print(
        f"playbook {trace.name}: {len(trace):,} accesses, "
        f"{trace.instructions:,} instructions, scale {trace.scale}"
    )
    if mapping is None:
        values, counts = np.unique(trace.lines, return_counts=True)
        print(f"address space: line ({len(values):,} distinct line addresses)")
        label = "line"
    else:
        mapped = mapping.translate_trace(trace.lines)
        values, counts = np.unique(mapped.global_row, return_counts=True)
        print(
            f"constructed against {mapping.name}: {len(values):,} distinct rows touched"
        )
        label = "row"
    order = np.argsort(counts)[::-1][: args.top]
    for value, count in zip(values[order].tolist(), counts[order].tolist()):
        print(f"  {label} {value:>12}  {count:,} accesses")
    return 0


def _fuzz(args) -> int:
    """Run one sweep + bisection through the campaign engine."""
    from repro.experiments.campaign import MappingSpec
    from repro.workloads.fuzzer import FuzzConfig, fuzz

    try:
        payload = _load_playbook_file(args.spec)
        if not isinstance(payload, dict) or set(payload) != {"base", "sweep"}:
            raise ValueError('sweep files hold exactly {"base": ..., "sweep": ...}')
        config = FuzzConfig(
            mapping=MappingSpec(args.mapping, gang_size=args.gang_size),
            scheme=args.scheme,
            t_rh=args.t_rh,
            metric=args.metric,
            min_hot_rows=args.min_hot_rows,
            max_cells=args.max_cells,
            seed=args.seed,
            workers=args.workers,
            stats_cache_dir=args.stats_cache,
        )
        result = fuzz(payload["base"], payload["sweep"], config=config)
    except (OSError, ValueError) as error:
        print(f"bad sweep {args.spec}: {error}", file=sys.stderr)
        return 2
    hot = result.hot_cells
    print(
        f"fuzz: {len(result.cells)} cells under {config.mapping.label}/"
        f"{config.scheme} (t_rh {config.t_rh}), {len(hot)} hot"
        + (f", {result.skipped_cells} skipped by --max-cells" if result.skipped_cells else "")
    )
    if result.minimal_overrides is None:
        print(f"no cell reached {config.min_hot_rows}+ {config.metric}; nothing to bisect")
    else:
        print(f"seed cell      : {result.seed_overrides}")
        print(f"minimal pattern: {result.minimal_overrides} ({result.probes} probes)")
        print(
            f"minimal record : {config.metric}="
            f"{result.minimal_record.get(config.metric)}"
            f" activations={result.minimal_record.get('activations')}"
        )
    if args.json:
        import json
        from pathlib import Path

        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(
                {
                    "cells": result.cells,
                    "seed_overrides": result.seed_overrides,
                    "minimal_overrides": result.minimal_overrides,
                    "minimal_spec": result.minimal_spec,
                    "minimal_record": result.minimal_record,
                    "probes": result.probes,
                    "skipped_cells": result.skipped_cells,
                },
                indent=2,
            )
            + "\n"
        )
        print(f"json written to {out}")
    return 0


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
