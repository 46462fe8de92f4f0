"""``scripts/bench_suite.py``: the paper suite's timing history.

The suite itself takes a minute, so these tests point the script at a
stand-in tree whose ``scripts/run_paper_suite.py`` writes a one-line
output and the two log records the script reads.
"""

import importlib.util
import json
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_FAKE_SUITE = textwrap.dedent(
    """
    import json, sys
    output, log = sys.argv[1], sys.argv[sys.argv.index("--log-json") + 1]
    with open(output, "w") as out:
        out.write("fig1a rows\\n[fig1a scale=1.0 finished in 0.1s]\\n\\n[suite finished in 0s]\\n")
    with open(log, "w") as records:
        for record in (
            {"event": "suite.experiment_done", "experiment": "fig1a", "elapsed_s": 0.1},
            {"event": "suite.done", "elapsed_s": 0.2, "peak_rss_mb": 50.0,
             "trace_cache_mb": 1.5, "stats_cache_mb": 0.5},
        ):
            records.write(json.dumps(record) + "\\n")
    """
)


@pytest.fixture(scope="module")
def bench_suite():
    spec = importlib.util.spec_from_file_location(
        "bench_suite", REPO_ROOT / "scripts" / "bench_suite.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tree(tmp_path):
    """A stand-in checkout: a fast fake suite and its golden output."""
    root = tmp_path / "tree"
    (root / "scripts").mkdir(parents=True)
    (root / "src").mkdir()
    (root / "scripts" / "run_paper_suite.py").write_text(_FAKE_SUITE)
    (root / "results_paper_suite.txt").write_text(
        "fig1a rows\n[fig1a scale=1.0 finished in 9.9s]\n\n[suite finished in 10s]\n"
    )
    return root


def test_entries_append_and_keep_history(bench_suite, tree, tmp_path):
    history = tmp_path / "BENCH_suite.json"
    argv = ["--runs", "2", "--tree", str(tree), "--history", str(history)]
    assert bench_suite.main(argv) == 0
    first = json.loads(history.read_text())["history"]
    assert bench_suite.main(argv) == 0
    entries = json.loads(history.read_text())["history"]

    assert len(entries) == 2 and entries[0] == first[0]
    entry = entries[1]
    assert entry["commit"] is None  # the stand-in tree is not a git checkout
    assert entry["machine"]["cpus"] >= 1
    assert len(entry["runs"]) == 2
    for run in entry["runs"]:
        assert run["golden"] is True
        assert run["wall_s"] > 0
        assert run["experiments"] == {"fig1a": 0.1}
        caches = (run["trace_cache_mb"], run["stats_cache_mb"])
        assert run["peak_rss_mb"] == 50.0 and caches == (1.5, 0.5)
    assert entry["summary"]["peak_rss_mb"] == [50.0, 50.0, 50.0]
    assert entry["summary"]["experiments"] == {"fig1a": [0.1, 0.1, 0.1]}


def test_changed_output_is_recorded_and_fails(bench_suite, tree, tmp_path):
    (tree / "results_paper_suite.txt").write_text("fig1a other rows\n")
    history = tmp_path / "BENCH_suite.json"
    assert bench_suite.main(["--runs", "1", "--tree", str(tree), "--history", str(history)]) == 1
    (entry,) = json.loads(history.read_text())["history"]
    assert entry["runs"][0]["golden"] is False


def test_log_without_done_record_is_refused(bench_suite):
    record = {"event": "suite.experiment_done", "experiment": "fig1a", "elapsed_s": 0.1}
    with pytest.raises(ValueError, match="suite.done"):
        bench_suite.parse_log([json.dumps(record)])


def test_summary_quartiles(bench_suite):
    runs = [
        {"wall_s": wall, "elapsed_s": wall - 1, "peak_rss_mb": 380.0, "experiments": {"fig7": wall / 10}}
        for wall in (60.0, 62.0, 70.0, 64.0)
    ]
    summary = bench_suite.summarize(runs)
    assert summary["wall_s"][1] == 63.0
    assert summary["wall_s"][0] <= 63.0 <= summary["wall_s"][2]
    assert summary["experiments"]["fig7"][1] == 6.3
