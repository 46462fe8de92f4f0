#!/usr/bin/env python3
"""Time the serial paper suite and append the timings to BENCH_suite.json.

Each run is a fresh ``scripts/run_paper_suite.py OUT --quiet
--telemetry-dir DIR`` process of the tree being measured (this checkout
unless ``--tree`` names another), with every ``REPRO_*`` variable
removed so no developer stats cache leaks into an older tree, which
still reads one.  The numbers come from the suite's log records in its
telemetry event streams (``DIR/events-*.jsonl``).  A run records:

- ``wall_s``: the process's wall time, interpreter start included;
- ``elapsed_s``, ``peak_rss_mb``, ``trace_cache_mb`` and
  ``stats_cache_mb``: the ``suite.done`` record;
- ``experiments``: each experiment's seconds, from its
  ``suite.experiment_done`` record;
- ``layers``: each span name's seconds, the ``span.seconds`` counters
  of ``DIR/metrics.jsonl`` summed over statuses by
  ``repro.obs.summary.span_totals`` (the reader ``report --telemetry``
  uses), absent when the tree wrote no ``metrics.jsonl``;
- ``golden``: whether the output equals ``results_paper_suite.txt`` once
  the ``[... finished in Ns]`` timing lines are dropped.  A run whose
  output differs is still recorded, but its timings describe a different
  program.

One invocation appends one entry to the history file: the measured
tree's commit (and whether its working tree was dirty; when it was,
``tree`` is the git tree id of its tracked content, which equals the
tree of a later commit of that content), the machine, the runs, and the
quartiles of each number over the runs (``bench/benchstats.py``'s
``quartiles``, so this history and the repository benchmark summarize
the same way), each layer's included when every run recorded it.
Earlier entries are kept as they are, and are never backfilled with
layers.

``--against REV`` compares the tree with a parent commit instead.  REV,
resolved in the tree's repository, is exported with ``git archive`` into
a temporary directory, and so is the tree's tracked content as it was
before the runs (the ``git stash create`` commit when tracked files
differ from HEAD, staged new files included, otherwise HEAD; untracked
files stay behind) into a second one whose path has the same length.
Neither side runs from the checkout itself, so the two differ in code
only, not in where they run (a checkout run against a ``/tmp`` export
showed a one-sided offset in layer shares).  Both
directories are removed afterwards whether or not the runs succeed.
``--runs`` then counts pairs (at least 3, the default):
each pair runs the suite once on each side, the side that goes first
alternating from pair to pair so a steady drift of the machine falls on
both.  Each side's runs are checked against its own golden and appended
as one entry (``"side": "parent"`` or ``"change"``).  For ``wall_s``,
``elapsed_s`` and ``peak_rss_mb``, and for each span of :data:`LAYERS`
that every run of both sides recorded, the script prints the medians,
pair wins and verdict of ``bench/compare.py``'s ``pair_wins`` and
``verdict``, so the suite and the repository benchmark judge alike; the
bounds are :data:`BOUNDS` and :data:`LAYERS`.  A layer's row adds each
side's median share of ``runner.experiment``, which cancels most of the
machine's drift.  The exit status is 1 when a run's output differs from
its golden or a verdict is ``regressed``.

Usage::

    python scripts/bench_suite.py [--runs N] [--tree DIR] [--history FILE]
    python scripts/bench_suite.py --against REV [--runs PAIRS] [--tree DIR] [--history FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import io
import json
import os
import platform
import re
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

from benchstats import quartiles  # noqa: E402
from compare import pair_wins, verdict  # noqa: E402
from repro.obs.metrics import snapshot_from_jsonl  # noqa: E402
from repro.obs.summary import span_totals  # noqa: E402

#: Output lines that hold a timing and so differ between runs.
_TIMING_LINE = re.compile(r"^\[.* finished in [0-9.]+s\]$")

#: ``--against`` bounds: the share of the parent's median by which the
#: change's median may be worse.  Four runs of one commit in the first
#: two history entries spread 2.9% in wall time, and single runs of one
#: commit have differed by 8%; ``suite.done``'s peak moved by 0.65%
#: between runs minutes apart.
BOUNDS = {"wall_s": 0.10, "elapsed_s": 0.10, "peak_rss_mb": 0.02}

#: The spans ``--against`` judges, with their bounds.  In the first
#: round that recorded layers, the parent's three runs spread 5.6%
#: (``sim.analyze``), 3.9%, 3.4% and 28.8% (``sim.event_model``:
#: abl-tracker's four-second scalar replay) of their medians; see
#: docs/PERFORMANCE.md.
LAYERS = {"sim.analyze": 0.10, "sim.translate": 0.10, "trace.gen": 0.10, "sim.event_model": 0.30}

#: The span every layer's share is taken of.
ROOT_SPAN = "runner.experiment"

#: Identity of the throwaway commit ``git stash create`` writes, so it
#: needs no configured user.
_STASH_IDENT = {
    "GIT_AUTHOR_NAME": "bench_suite",
    "GIT_AUTHOR_EMAIL": "bench_suite@localhost",
    "GIT_COMMITTER_NAME": "bench_suite",
    "GIT_COMMITTER_EMAIL": "bench_suite@localhost",
}

#: Pairs ``--against`` runs by default, and the fewest it accepts.
MIN_PAIRS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--runs",
        type=int,
        help=f"suite runs (default 2), or pairs with --against (default {MIN_PAIRS})",
    )
    parser.add_argument(
        "--tree", type=Path, default=ROOT, help="checkout whose suite runs (default: this one)"
    )
    parser.add_argument("--against", metavar="REV", help="parent commit to alternate runs with")
    parser.add_argument(
        "--history",
        type=Path,
        default=ROOT / "BENCH_suite.json",
        help="history file to append to (default: BENCH_suite.json)",
    )
    args = parser.parse_args(argv)
    least = MIN_PAIRS if args.against else 1
    if args.runs is None:
        args.runs = MIN_PAIRS if args.against else 2
    if args.runs < least:
        parser.error(f"--runs must be at least {least}, got {args.runs}")
    return args


def without_timings(text: str) -> List[str]:
    """The suite output's lines, minus the per-experiment and whole-suite timing lines."""
    return [line for line in text.splitlines() if not _TIMING_LINE.match(line)]


def parse_log(lines) -> dict:
    """One run's numbers from its event-stream lines (spans are skipped).

    Raises:
        ValueError: The events hold no ``suite.done`` record (the suite
            did not finish).
    """
    experiments: Dict[str, float] = {}
    done: Optional[dict] = None
    for line in lines:
        record = json.loads(line)
        if record.get("event") == "suite.experiment_done":
            experiments[record["experiment"]] = record["elapsed_s"]
        elif record.get("event") == "suite.done":
            done = record
    if done is None:
        raise ValueError("the suite events hold no suite.done record")
    keys = ("elapsed_s", "peak_rss_mb", "trace_cache_mb", "stats_cache_mb")
    return {**{key: done[key] for key in keys}, "experiments": experiments}


def run_suite(tree: Path, golden: List[str]) -> dict:
    """One fresh suite process over ``tree``; its numbers and golden check."""
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = str(tree / "src")
    with tempfile.TemporaryDirectory(prefix="bench-suite-") as scratch:
        output, telemetry = Path(scratch) / "suite.txt", Path(scratch) / "telemetry"
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(tree / "scripts" / "run_paper_suite.py"), str(output),
             "--quiet", "--telemetry-dir", str(telemetry)],
            cwd=scratch,
            env=env,
            check=True,
        )
        wall_s = time.perf_counter() - started
        events = sorted(telemetry.glob("events-*.jsonl"))
        run = parse_log(line for path in events for line in path.read_text().splitlines())
        run["golden"] = without_timings(output.read_text()) == golden
        metrics = telemetry / "metrics.jsonl"
        if metrics.exists():
            seconds = span_totals(snapshot_from_jsonl(metrics))["span.seconds"]
            run["layers"] = {name: round(seconds[name], 3) for name in sorted(seconds)}
    return {"wall_s": round(wall_s, 3), **run}


def common_layers(runs: List[dict]) -> List[str]:
    """The span names every run recorded (none when a run has no layers)."""
    names = [set(run.get("layers", ())) for run in runs]
    return sorted(set.intersection(*names)) if names else []


def summarize(runs: List[dict]) -> dict:
    """``[first quartile, median, third quartile]`` of each number over ``runs``."""

    def spread(values):
        return [round(value, 3) for value in quartiles(values)]

    keys = ("wall_s", "elapsed_s", "peak_rss_mb")
    summary = {key: spread([run[key] for run in runs]) for key in keys}
    summary["experiments"] = {
        name: spread([run["experiments"][name] for run in runs]) for name in runs[0]["experiments"]
    }
    layers = common_layers(runs)
    if layers:
        summary["layers"] = {
            name: spread([run["layers"][name] for run in runs]) for name in layers
        }
    return summary


def git(repo: Path, *args: str, env=None) -> str:
    """``git ARGS`` run in ``repo``; its stdout, stripped."""
    return subprocess.run(
        ["git", *args], cwd=repo, capture_output=True, text=True, check=True, env=env
    ).stdout.strip()


def commit_of(tree: Path) -> dict:
    """The tree's commit and whether tracked files differ from it (None outside git)."""
    try:
        measured = {
            "commit": git(tree, "rev-parse", "HEAD"),
            "dirty": bool(git(tree, "status", "--porcelain", "--untracked-files=no")),
        }
        if measured["dirty"]:
            # A commit of the tracked files as they are, written without
            # touching the index, the working tree or the stash list.
            stash = git(tree, "stash", "create", env={**os.environ, **_STASH_IDENT})
            measured["tree"] = git(tree, "rev-parse", f"{stash}^{{tree}}")
        return measured
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}


def machine() -> dict:
    """What the timings depend on: CPU, memory, interpreter and numpy."""
    import numpy

    info = {
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            info["cpu"] = next(
                line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")
            )
        with open("/proc/meminfo") as meminfo:
            info["mem_gb"] = round(int(meminfo.readline().split()[1]) / 2**20, 1)
    except (OSError, StopIteration):
        pass
    return info


def export_tree(repo: Path, rev: str, into: Path) -> None:
    """Extract ``rev`` (a commit or tree id) of ``repo``'s repository into ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=repo, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def make_entry(commit: dict, runs: List[dict], **extra) -> dict:
    """One history entry: commit, date, machine, runs and their quartiles."""
    return {
        **commit,
        **extra,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": machine(),
        "runs": runs,
        "summary": summarize(runs),
    }


def judge(parent: List[dict], change: List[dict]) -> Dict[str, dict]:
    """``bench/compare.py``'s pair wins and verdict for each bounded number,
    and for each layer of :data:`LAYERS` that every run recorded."""

    def row(a, b, bound):
        parent_wins, change_wins, pairs = pair_wins(a, b, "lower")
        return {
            "parent": quartiles(a)[1],
            "change": quartiles(b)[1],
            "pair_wins": [parent_wins, change_wins, pairs],
            "verdict": verdict(a, b, bound, "lower"),
        }

    rows = {
        key: row([run[key] for run in parent], [run[key] for run in change], bound)
        for key, bound in BOUNDS.items()
    }
    recorded = common_layers(parent + change)
    for layer, bound in LAYERS.items():
        if layer not in recorded or ROOT_SPAN not in recorded:
            continue
        sides = [[run["layers"][layer] for run in side] for side in (parent, change)]
        rows[layer] = row(*sides, bound)
        rows[layer]["share"] = [
            round(quartiles([run["layers"][layer] / run["layers"][ROOT_SPAN] for run in side])[1], 4)
            for side in (parent, change)
        ]
    return rows


def against(args: argparse.Namespace, tree: Path, measured: dict) -> int:
    """Alternate ``args.runs`` pairs of runs between exports of REV and ``tree``."""
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    commit = git(tree, "rev-parse", "--verify", f"{args.against}^{{commit}}")
    revs = {"parent": commit, "change": measured.get("tree", measured["commit"])}
    # "parent" and "change" have the same length, and so has mkdtemp's
    # random suffix: both sides run from paths of equal length.
    with contextlib.ExitStack() as stack:
        sides = {}
        for side, rev in revs.items():
            scratch = tempfile.TemporaryDirectory(prefix=f"bench-suite-{side}-")
            into = Path(stack.enter_context(scratch))
            export_tree(tree, rev, into)
            sides[side] = (into, without_timings((into / "results_paper_suite.txt").read_text()))
        for index in range(args.runs):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_suite(*sides[side])
                runs[side].append(run)
                golden_check = "ok" if run["golden"] else "DIFFERS"
                print(
                    f"pair {index + 1}/{args.runs} {side}: wall_s={run['wall_s']}"
                    f" peak_rss_mb={run['peak_rss_mb']} golden={golden_check}",
                    flush=True,
                )
    rows = judge(runs["parent"], runs["change"])
    parent = make_entry({"commit": commit, "dirty": False}, runs["parent"], side="parent")
    append_entry(args.history, parent)
    change = make_entry(measured, runs["change"], side="change", against=commit, comparison=rows)
    append_entry(args.history, change)
    for key, row in rows.items():
        wins = row["pair_wins"]
        share = ""
        if "share" in row:
            share = f" share of {ROOT_SPAN} parent {row['share'][0]} change {row['share'][1]}"
        print(
            f"{key}: parent {row['parent']:.4g} change {row['change']:.4g}"
            f" pair_wins parent/change {wins[0]}/{wins[1]} of {wins[2]} verdict {row['verdict']}"
            + share
        )
    goldens = all(run["golden"] for side in runs.values() for run in side)
    regressed = any(row["verdict"] == "regressed" for row in rows.values())
    return 0 if goldens and not regressed else 1


def append_entry(history: Path, entry: dict) -> None:
    """Append ``entry`` to the history file, keeping every earlier entry, atomically."""
    data = json.loads(history.read_text()) if history.exists() else {"history": []}
    data["history"].append(entry)
    staging = history.with_name(history.name + ".tmp")
    staging.write_text(json.dumps(data, indent=2) + "\n")
    os.replace(staging, history)


def main(argv=None) -> int:
    args = parse_args(argv)
    tree = args.tree.resolve()
    # Taken before the runs, which the tree may be edited during.
    measured = commit_of(tree)
    if args.against:
        return against(args, tree, measured)
    golden = without_timings((tree / "results_paper_suite.txt").read_text())
    runs = []
    for index in range(args.runs):
        run = run_suite(tree, golden)
        runs.append(run)
        print(
            f"run {index + 1}/{args.runs}: wall_s={run['wall_s']} peak_rss_mb={run['peak_rss_mb']}"
            f" golden={'ok' if run['golden'] else 'DIFFERS'}",
            flush=True,
        )
    entry = make_entry(measured, runs)
    append_entry(args.history, entry)
    wall = entry["summary"]["wall_s"]
    print(f"appended to {args.history}: wall_s median {wall[1]} [{wall[0]}, {wall[2]}]")
    return 0 if all(run["golden"] for run in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
