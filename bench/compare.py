#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload and metric by metric.

Usage::

    python3 bench/compare.py PARENT.json CHANGE.json
    python3 bench/compare.py bench/results/baseline.json:a bench/results/baseline.json:b

Each argument is a results file written by ``run.py --out`` (or ``FILE:SET``
for a file of named sets).  For every workload and metric the report gives
each side's median and quartiles, the share of run pairs each side wins
(runs are paired in file order), and a verdict:

* ``improved``: at least ten pairs, the change wins nine tenths of them,
  and the medians differ by more than the parent's interquartile range;
* ``regressed``: the change's median is worse by more than the bound;
* ``unresolved``: otherwise, when either side's spread (interquartile
  range over median) is wider than the bound, unless every run of the
  change beats every run of the parent;
* ``unchanged``: otherwise.

The bound of an end-to-end metric is its share in BENCHMARK.json, or the
metric's absolute floor over the parent's median when that is larger
(``setup_s`` may always worsen by 0.1 s).  Per-layer metrics (traced
runs) have no bound: they are ``improved`` or ``-``.  Exits 1 when any
verdict is ``regressed``.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from benchstats import load_benchmark, load_runs, quartiles

MIN_PAIRS_FOR_GAIN = 10
GAIN_WIN_SHARE = 0.9
#: Worsening, in the metric's unit, that a bound never falls below.  A
#: share of a set-up time of a few tenths of a second is within the noise
#: of starting a process.
ABSOLUTE_FLOORS = {"setup_s": 0.1}


def _better(better: str):
    """``is_better(a, b)``: whether value ``a`` beats value ``b``."""
    return (lambda a, b: a < b) if better == "lower" else (lambda a, b: a > b)


def pair_wins(parent: Sequence[float], change: Sequence[float], better: str):
    """(parent wins, change wins, pairs) over runs paired in order; ties count for neither."""
    is_better = _better(better)
    pairs = list(zip(parent, change))
    return (
        sum(is_better(p, c) for p, c in pairs),
        sum(is_better(c, p) for p, c in pairs),
        len(pairs),
    )


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    bound: Optional[float],
    better: str,
    floor: float = 0.0,
) -> str:
    """Classify ``change`` against ``parent`` (see the module docstring).

    ``bound`` is a share of the parent's median, raised to ``floor`` (in
    the metric's unit) when that is larger; None for a per-layer metric.
    """
    is_better = _better(better)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    _, change_wins, pairs = pair_wins(parent, change, better)
    if (
        pairs >= MIN_PAIRS_FOR_GAIN
        and change_wins >= GAIN_WIN_SHARE * pairs
        and is_better(c_med, p_med)
        and abs(c_med - p_med) > p_q3 - p_q1
    ):
        return "improved"
    if bound is None:
        return "-"
    bound = max(bound, floor / p_med)
    worse = (c_med - p_med) / p_med * (1.0 if better == "lower" else -1.0)
    if worse > bound:
        return "regressed"
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    if spread > bound and not all(is_better(c, p) for p in parent for c in change):
        return "unresolved"
    return "unchanged"


def _values(runs: List[dict]) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run, in file order]}}``."""
    table: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            table[run["workload"]][name].append(metric["value"])
    return table


def compare(parent_runs: List[dict], change_runs: List[dict], benchmark: dict) -> List[dict]:
    """One row per (workload, metric) present on both sides."""
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    parent, change = _values(parent_runs), _values(change_runs)
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        for metric, better in directions.items():
            a = parent.get(workload, {}).get(metric)
            b = change.get(workload, {}).get(metric)
            if not a or not b:
                continue
            parent_wins, change_wins, pairs = pair_wins(a, b, better)
            rows.append({
                "workload": workload,
                "metric": metric,
                "parent": quartiles(a),
                "change": quartiles(b),
                "n": (len(a), len(b)),
                "parent_wins": parent_wins / pairs,
                "change_wins": change_wins / pairs,
                "verdict": verdict(a, b, bounds.get(metric), better,
                                   ABSOLUTE_FLOORS.get(metric, 0.0)),
            })
    return rows


def format_rows(rows: List[dict]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<40} {'parent median [q1, q3]':>30}"
        f" {'change median [q1, q3]':>30} {'delta':>8} {'n p/c':>7} {'wins p/c':>9}  verdict"
    ]
    for row in rows:
        (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
        delta = (cm - pm) / pm if pm else 0.0
        lines.append(
            f"{row['workload']:<16} {row['metric']:<40}"
            f" {f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>30}"
            f" {f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>30}"
            f" {delta:>+8.1%} {row['n'][0]:>3}/{row['n'][1]:<3}"
            f" {row['parent_wins']:>4.0%}/{row['change_wins']:<4.0%}"
            f"  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="results FILE or FILE:SET of the parent commit")
    parser.add_argument("change", help="results FILE or FILE:SET of the change")
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.parent), load_runs(args.change), load_benchmark())
    print(format_rows(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
