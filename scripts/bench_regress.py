#!/usr/bin/env python3
"""Bench regression gate over the hot-path benchmark history.

``scripts/bench_hotpath.py`` appends every report to a ``history`` list
(``BENCH_hotpath.json`` by default).  This script compares the newest
entry's per-kernel timings against the *best* (fastest) prior entry
measured under the same configuration and fails when any kernel got
more than ``--threshold`` percent slower -- the creeping-regression
check a bit-equivalence assertion cannot provide.

Each entry is scored on its optimized kernels
(``kernels.<k>.optimized_s``); history entries without that field
score nothing.

A kernel the newest entry reports but no comparable prior entry does
(one just added to the benchmark) is skipped, not failed: it has no
history to regress against until its second run.

Entries are only compared when their ``config`` matches (same line
count, reps, seed, chunking, quick flag, ...), so a --quick run can
never be judged against a full run.  With fewer than two comparable
entries the gate passes vacuously: a fresh clone has nothing to
regress against.

CI runs this advisorily after the quick bench stage (timings on shared
CI hardware are noisy); locally it is a hard gate for perf work.

Usage:  python scripts/bench_regress.py [--history PATH]
                                        [--threshold PCT] [--quiet]
Exit status 0 when no kernel regressed, 1 otherwise, 2 on a bad file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_HISTORY = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"
DEFAULT_THRESHOLD_PCT = 15.0


def load_history(path: Path) -> list:
    """The report list in a history file (legacy bare reports wrapped)."""
    data = json.loads(path.read_text())
    if isinstance(data, dict) and isinstance(data.get("history"), list):
        return data["history"]
    if isinstance(data, dict):
        return [data]
    raise ValueError(f"{path} holds neither a history nor a report")


def kernel_seconds(entry: dict) -> dict:
    """Normalize one history entry to ``{kernel: optimized seconds}``.

    Kernels without a numeric ``optimized_s`` are skipped.
    """
    return {
        kernel: float(result["optimized_s"])
        for kernel, result in entry.get("kernels", {}).items()
        if isinstance(result, dict) and isinstance(result.get("optimized_s"), (int, float))
    }


def check_regressions(history: list, threshold_pct: float) -> tuple:
    """Compare the newest entry to the best comparable prior entries.

    Returns ``(regressions, comparisons)`` where ``regressions`` is a
    list of human-readable failures and ``comparisons`` a list of
    ``(kernel, newest_s, best_prior_s, delta_pct)`` rows actually
    compared (empty when no prior entry shares the newest config).
    Kernels without a comparable prior timing are left out of both.
    """
    if len(history) < 2:
        return [], []
    newest = history[-1]
    config = newest.get("config")
    newest_seconds = kernel_seconds(newest)
    best_prior: dict = {}
    for entry in history[:-1]:
        if entry.get("config") != config:
            continue
        for kernel, seconds in kernel_seconds(entry).items():
            if kernel not in best_prior or seconds < best_prior[kernel]:
                best_prior[kernel] = seconds
    regressions, comparisons = [], []
    for kernel, now_s in sorted(newest_seconds.items()):
        prior_s = best_prior.get(kernel)
        if prior_s is None or prior_s <= 0:
            continue
        delta_pct = (now_s / prior_s - 1.0) * 100.0
        comparisons.append((kernel, now_s, prior_s, delta_pct))
        if delta_pct > threshold_pct:
            regressions.append(
                f"{kernel}: {now_s:.6f}s vs best prior {prior_s:.6f}s"
                f" (+{delta_pct:.1f}% > {threshold_pct:.0f}% threshold)"
            )
    return regressions, comparisons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--history",
        type=Path,
        default=DEFAULT_HISTORY,
        help=f"bench history file (default: {DEFAULT_HISTORY.name})",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD_PCT,
        help="regression threshold in percent (default: 15)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print failures only"
    )
    args = parser.parse_args(argv)
    try:
        history = load_history(args.history)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"FAIL: cannot read bench history: {error}", file=sys.stderr)
        return 2
    regressions, comparisons = check_regressions(history, args.threshold)
    if not args.quiet:
        if not comparisons:
            print(
                f"OK: no prior entry comparable to the newest config in"
                f" {args.history} ({len(history)} entries); nothing to gate"
            )
        for kernel, now_s, prior_s, delta_pct in comparisons:
            print(
                f"{kernel:>16s}: {now_s:.6f}s vs best {prior_s:.6f}s"
                f" ({delta_pct:+.1f}%)"
            )
        if comparisons:
            compared = {row[0] for row in comparisons}
            for kernel in sorted(set(kernel_seconds(history[-1])) - compared):
                print(f"{kernel:>16s}: no comparable prior timing; skipped")
    if regressions:
        for line in regressions:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    if comparisons and not args.quiet:
        print(f"OK: no kernel regressed more than {args.threshold:.0f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
