"""Tests of the benchmark harness itself: ``python3 -m pytest bench -q``.

The runs here use ``--quick --seconds 0``: the fewest passes that still
check pass-to-pass agreement and give p90 ten samples beyond it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from benchstats import load_benchmark, metric_units, percentile, quartiles  # noqa: E402
from compare import verdict  # noqa: E402
from workloads import (  # noqa: E402
    GRID_MAPPINGS,
    GRID_SCHEMES,
    GRID_THRESHOLDS,
    QUICK_TRACES,
    MitigationGrid,
)

BENCHMARK = load_benchmark()
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def copy_benchmark(root: Path, with_program: bool) -> Path:
    """BENCHMARK.json and bench/ under ``root``, plus a link to src/ if asked."""
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_program:
        (root / "src").symlink_to(ROOT / "src")
    return root


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Every workload once untraced and once traced, at the default seed."""
    out = tmp_path_factory.mktemp("runs") / "runs.json"
    for trace in ("0", "1"):
        done = run_bench("--quick", "--seconds", "0", "--trace", trace, "--out", str(out))
        assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())["runs"]


def test_metric_names_and_units_match_benchmark_json(quick_runs):
    for run in quick_runs:
        kind = "per_layer" if run["trace"] else "end_to_end"
        metrics = run["result"]["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == metric_units(BENCHMARK, kind)
        assert run["result"]["correct"] and run["result"]["failed"] == 0
    assert sorted((r["workload"], r["trace"]) for r in quick_runs) == sorted(
        (w, t) for w in WORKLOADS for t in (0, 1)
    )


def test_end_to_end_metrics_are_positive(quick_runs):
    for run in quick_runs:
        if not run["trace"]:
            assert all(m["value"] > 0 for m in run["result"]["metrics"].values()), run


def test_self_times_add_up_to_traced_wall(quick_runs):
    for run in quick_runs:
        if not run["trace"]:
            continue
        values = {name: m["value"] for name, m in run["result"]["metrics"].items()}
        self_total = sum(v for name, v in values.items() if name.endswith(".self_s"))
        assert math.isclose(
            self_total + values["unattributed_s"], values["trace.wall_s"], rel_tol=1e-9
        ), run["workload"]


def test_layers_run_where_expected(quick_runs):
    traced = {
        run["workload"]: {name: m["value"] for name, m in run["result"]["metrics"].items()}
        for run in quick_runs if run["trace"]
    }
    static, dynamic = traced["static-map"], traced["rubix-d"]
    assert static["mapping.translate_trace.calls"] > 0 and static["crypto.encrypt.calls"] > 0
    assert dynamic["mapping.translate_trace.calls"] == dynamic["crypto.encrypt.calls"] == 0
    assert dynamic["dram.chunked_feed.calls"] > 0 and static["dram.chunked_feed.calls"] == 0
    grid, pool = traced["mitigation-grid"], traced["campaign-pool"]
    assert grid["parallel.cache_hit_ratio"] > 0.9
    assert grid["resilience.journal_append.calls"] == 0
    cells = QUICK_TRACES * len(GRID_MAPPINGS) * len(GRID_SCHEMES) * len(GRID_THRESHOLDS)
    assert grid["experiments.execute_cell.calls"] == cells
    assert pool["resilience.journal_append.calls"] == cells
    assert pool["parallel.pool_busy_s"] > 0


def test_serial_and_pool_digests_are_pinned_equal():
    expected = json.loads((BENCH / "expected.json").read_text())
    for mode in ("full", "quick"):
        assert expected[mode]["campaign-pool"]["0"] == expected[mode]["mitigation-grid"]["0"]
        assert set(expected[mode]) == set(WORKLOADS)


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(list(reversed(values)), 90) == 90
    with pytest.raises(ValueError):
        percentile(values[:-1], 90)  # 99 samples leave 9 beyond p90
    with pytest.raises(ValueError):
        percentile(values[:19], 50)
    assert percentile(values[:20], 50) == 10
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)


def test_verdicts():
    base = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert verdict(base, base, 0.1, "lower") == "unchanged"
    assert verdict(base, [v * 1.2 for v in base], 0.1, "lower") == "regressed"
    assert verdict(base, [v * 0.8 for v in base], 0.1, "higher") == "regressed"
    assert verdict(base, [0.7, 1.0, 1.3, 0.8, 1.2], 0.1, "lower") == "unresolved"
    # A gain needs ten pairs, not five.
    assert verdict(base, [v * 0.8 for v in base], 0.1, "lower") == "unchanged"
    assert verdict(base * 2, [v * 0.8 for v in base * 2], 0.1, "lower") == "improved"
    # An absolute floor widens a bound that is small in absolute terms.
    assert verdict(base, [v + 0.05 for v in base], 0.02, "lower", floor=0.1) == "unchanged"
    assert verdict(base, [v + 0.15 for v in base], 0.02, "lower", floor=0.1) == "regressed"
    # Without a bound only a gain is judged.
    assert verdict(base, [v * 1.5 for v in base], None, "lower") == "-"
    assert verdict(base * 2, [v * 0.8 for v in base * 2], None, "lower") == "improved"


def test_tampered_digest_exits_nonzero(tmp_path):
    root = copy_benchmark(tmp_path, with_program=True)
    path = root / "bench" / "expected.json"
    expected = json.loads(path.read_text())
    digest = expected["quick"]["static-map"]["0"]
    expected["quick"]["static-map"]["0"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    path.write_text(json.dumps(expected))
    done = run_bench("--workload", "static-map", "--quick", "--seconds", "0", cwd=root)
    assert done.returncode != 0
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False


def test_a_crashing_workload_is_reported_and_the_rest_run(tmp_path):
    root = copy_benchmark(tmp_path, with_program=True)
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    # A name the runner accepts but no workload class has: the workload
    # process raises, exits 1 and prints no result line.
    benchmark["workloads"] = [{"name": "no-such-workload", "why": "-"}] * 2
    (root / "BENCHMARK.json").write_text(json.dumps(benchmark))
    done = run_bench("--quick", "--seconds", "0", cwd=root)
    assert done.returncode != 0
    summary = done.stdout.strip().splitlines()[-2:]
    assert [line.split() for line in summary] == [["no-such-workload", "crashed"]] * 2


def test_failed_cells_are_counted(tmp_path):
    from repro.perf.simulator import Simulator
    from repro.resilience.faults import FaultPlan, FaultySimulator

    workload = MitigationGrid(seed=2024, quick=True, scratch=tmp_path)
    workload.setup()
    workload.simulator = FaultySimulator(Simulator(), FaultPlan(fail_cells=("lbm|",)))
    result = workload.run_pass(0)
    assert 0 < result.failed < result.attempted


def test_exits_nonzero_without_the_program(tmp_path):
    root = copy_benchmark(tmp_path, with_program=False)
    done = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=root)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
