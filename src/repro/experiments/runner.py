"""Command-line experiment runner.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run fig7 [--scale 0.5] [--workloads 6]
    python -m repro.experiments run all [--scale 0.25] [--workers 4]
    python -m repro.experiments report --telemetry runs/today

``--workers N`` fans the selected experiments out over a process pool;
``--stats-cache DIR`` points every process (and every later run) at one
shared on-disk window-statistics cache so they reuse instead of
recompute each (trace, mapping) analysis.

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
from repro.obs.metrics import diff_snapshots
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
        "--workers",
        type=int,
        default=1,
        help="run the selected experiments over a process pool of this"
        " size (1 = in-process, the default)",
    )
    run.add_argument(
        "--stats-cache",
        metavar="DIR",
        default=None,
        help="directory for a persistent window-statistics cache shared"
        " across workers and runs (sets the REPRO_STATS_CACHE"
        " environment variable)",
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
        " REPRO_TELEMETRY_DIR environment variable so pool workers"
        " inherit it",
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
    submit = sub.add_parser(
        "submit",
        help="validate a campaign spec and queue it for the next 'serve'",
    )
    submit.add_argument("spec", help="campaign spec JSON file (see docs/SERVICE.md)")
    submit.add_argument(
        "--spool",
        metavar="DIR",
        default="runs/service-spool",
        help="spool directory 'serve' drains (default: runs/service-spool)",
    )
    serve = sub.add_parser(
        "serve",
        help="run the fault-tolerant campaign service over submitted specs",
    )
    serve.add_argument(
        "specs",
        nargs="*",
        help="campaign spec JSON files to submit directly (besides --spool)",
    )
    serve.add_argument(
        "--spool",
        metavar="DIR",
        default=None,
        help="also drain every spec previously queued with 'submit' here",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="worker-process pool size"
    )
    serve.add_argument(
        "--lease-timeout",
        type=float,
        default=5.0,
        help="heartbeat deadline in seconds before a cell is re-dispatched",
    )
    serve.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="durable commit log; an existing journal resumes without"
        " recomputing committed cells",
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
        help="write each submission's records to DIR/<tenant>.json",
    )
    serve.add_argument(
        "--stats-cache",
        metavar="DIR",
        default=None,
        help="shared window-statistics cache directory for service workers"
        " (sets REPRO_STATS_CACHE)",
    )
    serve.add_argument(
        "--telemetry-dir",
        metavar="DIR",
        default=None,
        help="enable telemetry; run artifacts (manifest.json with worker"
        " identities, metrics, events) land in DIR",
    )
    serve.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="enable the chaos harness with this seed (testing only):"
        " injects seeded worker kills, hangs, and duplicate completions",
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
    data-only experiments like fig1a take no workload arguments).
    """
    import inspect

    entry = get_experiment(experiment_id)
    kwargs = {}
    if workload_limit is not None:
        parameters = inspect.signature(entry.runner).parameters
        if "workload_limit" in parameters:
            kwargs["workload_limit"] = workload_limit
    return entry.runner(scale=scale if scale is not None else entry.default_scale, **kwargs)


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

    if args.command == "submit":
        return _submit(args)

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
    if args.workers < 1:
        log.error("args.invalid", message="--workers must be >= 1")
        return 2
    if args.stats_cache:
        # Environment, not an argument: pool workers (fork or spawn)
        # inherit it, and get_simulator() picks it up lazily.
        os.environ[STATS_CACHE_ENV] = args.stats_cache
    manifest = _configure_telemetry(args, targets)
    journal = CheckpointJournal(args.journal) if args.journal else None
    if journal is not None and not args.resume:
        journal.reset()
    completed = journal.completed_keys() if journal is not None else set()
    for experiment_id in targets:
        if experiment_id in completed:
            log.info(
                "experiment.skipped",
                message=f"[{experiment_id} already completed; skipped (resume)]",
                experiment=experiment_id,
            )
    pending = [eid for eid in targets if eid not in completed]

    failures = []
    for experiment_id, result, error, elapsed in _run_pending(pending, args):
        ok = _emit_result(
            args, experiment_id, result, error, elapsed, journal,
            multi=len(targets) > 1,
        )
        if not ok:
            failures.append(experiment_id)
    if manifest is not None:
        written = obs_runtime.write_telemetry(manifest=manifest)
        log.info(
            "telemetry.written",
            message=f"[telemetry written to {obs_runtime.telemetry_dir()}]",
            artifacts=sorted(str(path) for path in written.values()),
        )
    if failures:
        log.error(
            "run.failures",
            message=f"[{len(failures)} experiment(s) failed: {', '.join(failures)}]",
            failed=failures,
        )
        return 1
    return 0


def _configure_telemetry(args, targets: List[str]) -> Optional[RunManifest]:
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
    return RunManifest.create(
        "experiments.run",
        config={
            "experiments": targets,
            "scale": args.scale,
            "workload_limit": args.workloads,
            "workers": args.workers,
            "stats_cache": args.stats_cache,
        },
    )


def _load_spec(path) -> Tuple[dict, "object"]:
    """Parse + validate one campaign spec file -> (spec dict, Campaign)."""
    import json
    from pathlib import Path

    from repro.experiments.campaign import campaign_from_spec

    spec = json.loads(Path(path).read_text())
    return spec, campaign_from_spec(spec)


def _submit(args) -> int:
    """Queue one validated campaign spec into the serve spool."""
    import hashlib
    import json
    import shutil
    from pathlib import Path

    try:
        spec, campaign = _load_spec(args.spec)
    except (OSError, ValueError, KeyError) as error:
        log.error("submit.invalid", message=f"[bad spec {args.spec}: {error}]")
        return 2
    spool = Path(args.spool)
    spool.mkdir(parents=True, exist_ok=True)
    # Content-addressed name: re-submitting the same spec is idempotent.
    digest = hashlib.blake2b(
        json.dumps(spec, sort_keys=True).encode(), digest_size=8
    ).hexdigest()
    target = spool / f"{digest}.json"
    already = target.exists()
    if not already:
        shutil.copyfile(args.spec, target)
    log.info(
        "submit.queued",
        message=f"[{'already queued' if already else 'queued'} {target.name}:"
        f" {campaign.size()} cells, tenant {spec.get('tenant', 'default')}]",
        path=str(target),
        cells=campaign.size(),
    )
    return 0


def _serve(args) -> int:
    """Drain submitted campaign specs through one CampaignService."""
    import json
    from pathlib import Path

    from repro.errors import ServiceSaturated, ServiceStopped
    from repro.service import ChaosSpec, ServiceConfig, run_service

    try:
        config = ServiceConfig(
            workers=args.workers,
            lease_timeout_s=args.lease_timeout,
            stats_cache_dir=args.stats_cache,
        )
    except ValueError as error:
        log.error("args.invalid", message=f"[bad service config: {error}]")
        return 2
    spec_paths = [Path(p) for p in args.specs]
    if args.spool:
        spec_paths.extend(sorted(Path(args.spool).glob("*.json")))
    if not spec_paths:
        log.error(
            "serve.no_specs",
            message="[nothing to serve: pass spec files or --spool DIR]",
        )
        return 2
    campaigns, tenants = [], []
    for index, path in enumerate(spec_paths):
        try:
            spec, campaign = _load_spec(path)
        except (OSError, ValueError, KeyError) as error:
            log.error("serve.invalid_spec", message=f"[bad spec {path}: {error}]")
            return 2
        campaigns.append(campaign)
        tenants.append(str(spec.get("tenant", f"tenant{index}")))
    if args.stats_cache:
        os.environ[STATS_CACHE_ENV] = args.stats_cache
    manifest = _configure_serve_telemetry(args, [str(p) for p in spec_paths], tenants)
    chaos = ChaosSpec(
        seed=args.chaos_seed,
        kill_before_frac=0.1,
        kill_after_frac=0.05,
        hang_frac=0.05,
        hang_s=2 * args.lease_timeout,
        duplicate_frac=0.1,
        reorder_every=5,
    ) if args.chaos_seed is not None else None
    started = time.perf_counter()
    try:
        results = run_service(
            campaigns,
            config=config,
            journal=args.journal,
            chaos=chaos,
            manifest=manifest,
            resume=not args.no_resume,
            tenants=tenants,
        )
    except (ServiceSaturated, ServiceStopped) as error:
        log.error("serve.failed", message=f"[service failed: {error}]")
        return 1
    elapsed = time.perf_counter() - started
    failures = 0
    for tenant, records in zip(tenants, results):
        errors = sum(1 for r in records if r.get("status") == "error")
        failures += errors
        log.info(
            "serve.finished",
            message=f"[{tenant}: {len(records)} cells"
            + (f", {errors} errors" if errors else "")
            + "]",
            tenant=tenant,
            cells=len(records),
            errors=errors,
        )
        if args.json:
            out = Path(args.json)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{tenant}.json").write_text(json.dumps(records, indent=2) + "\n")
    log.info(
        "serve.done",
        message=f"[served {len(campaigns)} submission(s) in {elapsed:.1f}s]",
        submissions=len(campaigns),
        elapsed_s=round(elapsed, 3),
    )
    if manifest is not None:
        written = obs_runtime.write_telemetry(manifest=manifest)
        log.info(
            "telemetry.written",
            message=f"[telemetry written to {obs_runtime.telemetry_dir()}]",
            artifacts=sorted(str(path) for path in written.values()),
        )
    return 1 if failures else 0


def _configure_serve_telemetry(
    args, specs: List[str], tenants: List[str]
) -> Optional[RunManifest]:
    """Serve-mode telemetry config; mirrors :func:`_configure_telemetry`."""
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
    return RunManifest.create(
        "experiments.serve",
        config={
            "specs": specs,
            "tenants": tenants,
            "workers": args.workers,
            "lease_timeout_s": args.lease_timeout,
            "journal": args.journal,
            "chaos_seed": args.chaos_seed,
            "stats_cache": args.stats_cache,
        },
    )


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
    task: Tuple[str, Optional[float], Optional[int]], ship_telemetry: bool = False
):
    """Run one experiment; shipping-safe result (used from pool workers).

    Returns ``(id, result, error, elapsed, telemetry)`` where
    ``telemetry`` is this experiment's metric *delta* snapshot when
    ``ship_telemetry`` is set (pool mode: the parent merges it), else
    None (serial mode: the in-process registry already has it).
    Timing is monotonic (``perf_counter``), so a wall-clock adjustment
    mid-run cannot skew the reported elapsed time.
    """
    experiment_id, scale, workload_limit = task
    telemetry = ship_telemetry and METRICS.enabled
    before = METRICS.snapshot() if telemetry else None
    started = time.perf_counter()
    try:
        with TRACER.span("runner.experiment", experiment=experiment_id):
            result = run_experiment(experiment_id, scale, workload_limit)
        METRICS.inc("runner.experiments", status="ok")
        error = None
    except Exception as exc:
        # One broken experiment must not abort the suite: carry the
        # (typed) failure back as text -- exceptions from a worker may
        # not unpickle -- so the parent reports it and keeps sweeping.
        METRICS.inc("runner.experiments", status="error")
        result, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    delta = diff_snapshots(METRICS.snapshot(), before) if telemetry else None
    return experiment_id, result, error, elapsed, delta


def _run_pending(pending: List[str], args):
    """Yield (id, result, error, elapsed) in deterministic target order.

    Serial mode yields each experiment as it runs; parallel mode
    dispatches them all to a process pool and yields the deterministic
    prefix as soon as it completes, so output order never depends on
    worker timing.  Pool workers ship their metric deltas back with each
    outcome; merging them here is what makes the final snapshot (and the
    manifest) identical between serial and parallel runs of one suite.
    """
    tasks = [(eid, args.scale, args.workloads) for eid in pending]
    if args.workers == 1 or len(pending) <= 1:
        for task in tasks:
            yield _experiment_task(task)[:4]
        return
    from concurrent.futures import ProcessPoolExecutor, as_completed

    done = {}
    cursor = 0
    with ProcessPoolExecutor(max_workers=min(args.workers, len(pending))) as pool:
        futures = {pool.submit(_experiment_task, task, True): task[0] for task in tasks}
        for future in as_completed(futures):
            outcome = future.result()
            if outcome[4]:
                METRICS.merge(outcome[4])
            done[outcome[0]] = outcome[:4]
            while cursor < len(pending) and pending[cursor] in done:
                yield done.pop(pending[cursor])
                cursor += 1


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
