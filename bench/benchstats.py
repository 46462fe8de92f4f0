"""Order statistics and benchmark metadata shared by run.py and compare.py.

Only the standard library is imported here, so the runner can load it
before deciding whether the program under test is present at all.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Repository root: the directory holding BENCHMARK.json and src/.
ROOT = Path(__file__).resolve().parent.parent

#: A percentile is reported only with at least this many samples above it.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises:
        ValueError: Fewer than :data:`MIN_TAIL_SAMPLES` samples lie above
            the percentile, so it would be decided by a handful of runs.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples leaves {max(beyond, 0)} beyond it;"
            f" need at least {MIN_TAIL_SAMPLES}"
        )
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles``."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_benchmark(root: Path = ROOT) -> dict:
    """The parsed BENCHMARK.json at the repository root."""
    with open(root / "BENCHMARK.json") as handle:
        return json.load(handle)


def metric_units(benchmark: dict, kind: str) -> Dict[str, str]:
    """``{name: unit}`` for the ``end_to_end`` or ``per_layer`` metrics."""
    return {metric["name"]: metric["unit"] for metric in benchmark[kind]}


def load_runs(spec: str) -> List[dict]:
    """Run entries from ``FILE`` or ``FILE:SET`` (a named set of a file).

    A results file is ``{"runs": [...]}``; a file of several sets (such
    as ``results/baseline.json``) is ``{"sets": {name: {"runs": [...]}}}``.
    """
    path, _, name = spec.partition(":")
    with open(path) as handle:
        data = json.load(handle)
    if name:
        data = data["sets"][name]
    return data["runs"]


__all__ = [
    "ROOT",
    "MIN_TAIL_SAMPLES",
    "percentile",
    "quartiles",
    "load_benchmark",
    "metric_units",
    "load_runs",
]
