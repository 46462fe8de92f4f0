"""``scripts/bench_suite.py``: the paper suite's timing history.

The suite itself takes a minute, so these tests point the script at a
stand-in tree whose ``scripts/run_paper_suite.py`` writes a one-line
output and, to its telemetry directory, an event stream with the two
log records the script reads and a ``metrics.jsonl`` with the
``span.seconds`` counters it reads the layers from.  ``--against`` gets two
stand-in trees: a committed one, the parent, and the same repository's
working tree with the stand-in suite edited, the change.
"""

import importlib.util
import json
import shutil
import subprocess
import tempfile
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_FAKE_SUITE = textwrap.dedent(
    """
    import json, os, pathlib, sys
    PEAK_RSS_MB = 50.0
    LAYERS = True
    output = sys.argv[1]
    telemetry = pathlib.Path(sys.argv[sys.argv.index("--telemetry-dir") + 1])
    with open(output, "w") as out:
        out.write("fig1a rows\\n[fig1a scale=1.0 finished in 0.1s]\\n\\n[suite finished in 0s]\\n")
    telemetry.mkdir(parents=True, exist_ok=True)
    with open(telemetry / f"events-0badcafe-{os.getpid()}.jsonl", "w") as events:
        for record in (
            {"type": "span", "name": "runner.experiment", "run": "0badcafe"},
            {"type": "log", "event": "suite.experiment_done", "experiment": "fig1a",
             "elapsed_s": 0.1, "run": "0badcafe"},
            {"type": "log", "event": "suite.done", "elapsed_s": 0.2, "peak_rss_mb": PEAK_RSS_MB,
             "trace_cache_mb": 1.5, "stats_cache_mb": 0.5, "run": "0badcafe"},
        ):
            events.write(json.dumps(record) + "\\n")
    spans = [("runner.experiment", "ok", 1.0), ("sim.analyze", "ok", 0.3),
             ("sim.analyze", "error", 0.1), ("sim.translate", "ok", 0.25)]
    with open(telemetry / "metrics.jsonl", "w") as metrics:
        for span, status, seconds in spans if LAYERS else ():
            labels = {"span": span, "status": status}
            for name, value in (("span.count", 2), ("span.seconds", seconds)):
                metrics.write(json.dumps(
                    {"kind": "counter", "labels": labels, "name": name, "value": value}
                ) + "\\n")
    """
)

#: The stand-in suite's ``span.seconds``, summed over statuses.
LAYERS = {"runner.experiment": 1.0, "sim.analyze": 0.4, "sim.translate": 0.25}


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
        assert run["layers"] == LAYERS
    assert entry["summary"]["peak_rss_mb"] == [50.0, 50.0, 50.0]
    assert entry["summary"]["experiments"] == {"fig1a": [0.1, 0.1, 0.1]}
    assert entry["summary"]["layers"] == {name: [s, s, s] for name, s in LAYERS.items()}


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
        {
            "wall_s": wall,
            "elapsed_s": wall - 1,
            "peak_rss_mb": 380.0,
            "experiments": {"fig7": wall / 10},
            "layers": {"sim.analyze": wall / 3, "trace.gen": 5.0},
        }
        for wall in (60.0, 62.0, 70.0, 64.0)
    ]
    summary = bench_suite.summarize(runs)
    assert summary["wall_s"][1] == 63.0
    assert summary["wall_s"][0] <= 63.0 <= summary["wall_s"][2]
    assert summary["experiments"]["fig7"][1] == 6.3
    assert summary["layers"]["sim.analyze"][1] == 21.0
    assert summary["layers"]["trace.gen"] == [5.0, 5.0, 5.0]
    # A run without layers (an older tree's) leaves the summary without them.
    del runs[0]["layers"]
    assert "layers" not in bench_suite.summarize(runs)


def test_a_tree_without_metrics_records_no_layers(bench_suite, tree, tmp_path):
    suite = tree / "scripts" / "run_paper_suite.py"
    suite.write_text(suite.read_text().replace("LAYERS = True", "LAYERS = False"))
    history = tmp_path / "BENCH_suite.json"
    assert bench_suite.main(["--runs", "1", "--tree", str(tree), "--history", str(history)]) == 0
    (entry,) = json.loads(history.read_text())["history"]
    assert entry["runs"][0]["layers"] == {}
    assert "layers" not in entry["summary"]


def _git(tree, *args):
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid", *args],
        cwd=tree,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()


@pytest.fixture
def repo(tree, tmp_path, monkeypatch):
    """The stand-in tree as a repository: HEAD is the parent; the working
    tree is the change.  Temporary directories go to a private folder so
    a test can see that the parent's export is removed."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    _git(tree, "init", "-q")
    _git(tree, "add", "-A")
    _git(tree, "commit", "-q", "-m", "parent")
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    return tree


def _against(bench_suite, repo, history, *extra):
    return bench_suite.main(
        ["--against", "HEAD", "--tree", str(repo), "--history", str(history), *extra]
    )


def test_against_appends_one_entry_per_side(bench_suite, repo, tmp_path, capsys):
    history = tmp_path / "BENCH_suite.json"
    status = _against(bench_suite, repo, history)
    parent, change = json.loads(history.read_text())["history"]

    head = _git(repo, "rev-parse", "HEAD")
    assert (parent["side"], parent["commit"], parent["dirty"]) == ("parent", head, False)
    assert (change["side"], change["commit"], change["against"]) == ("change", head, head)
    assert len(parent["runs"]) == len(change["runs"]) == 3  # the default pair count
    assert all(run["golden"] for run in parent["runs"] + change["runs"])
    assert "tree" not in parent and "tree" not in change  # both clean
    assert all(run["layers"] == LAYERS for run in parent["runs"] + change["runs"])
    comparison = change["comparison"]
    # Only the judged layers both sides recorded get a row.
    assert set(comparison) == {"wall_s", "elapsed_s", "peak_rss_mb", "sim.analyze", "sim.translate"}
    for key in ("elapsed_s", "peak_rss_mb", "sim.analyze", "sim.translate"):  # ties
        assert comparison[key]["pair_wins"] == [0, 0, 3]
        assert comparison[key]["verdict"] == "unchanged"
    assert comparison["sim.analyze"]["share"] == [0.4, 0.4]
    out = capsys.readouterr().out
    assert "peak_rss_mb: parent 50 change 50 pair_wins parent/change 0/0 of 3" in out
    assert (
        "sim.translate: parent 0.25 change 0.25 pair_wins parent/change 0/0 of 3 verdict"
        " unchanged share of runner.experiment parent 0.25 change 0.25"
    ) in out
    regressed = any(row["verdict"] == "regressed" for row in comparison.values())
    assert status == (1 if regressed else 0)
    assert not list((tmp_path / "scratch").iterdir()), "the parent's export was left behind"


def test_against_flags_a_regressed_peak(bench_suite, repo, tmp_path):
    suite = repo / "scripts" / "run_paper_suite.py"
    suite.write_text(suite.read_text().replace("PEAK_RSS_MB = 50.0", "PEAK_RSS_MB = 60.0"))
    history = tmp_path / "BENCH_suite.json"
    assert _against(bench_suite, repo, history, "--runs", "4") == 1
    parent, change = json.loads(history.read_text())["history"]
    assert change["dirty"] is True
    assert [run["peak_rss_mb"] for run in parent["runs"]] == [50.0] * 4
    assert [run["peak_rss_mb"] for run in change["runs"]] == [60.0] * 4
    assert change["comparison"]["peak_rss_mb"]["pair_wins"] == [4, 0, 4]
    assert change["comparison"]["peak_rss_mb"]["verdict"] == "regressed"


def test_dirty_tree_records_its_tracked_content(bench_suite, repo, tmp_path):
    """An ``--against`` round run before the change is committed names
    the change by the tree id its tracked content will commit as, and
    leaves the index, the working tree and the stash list alone."""
    suite = repo / "scripts" / "run_paper_suite.py"
    suite.write_text(suite.read_text().replace("LAYERS = True", "LAYERS = False"))
    (repo / "untracked.txt").write_text("not part of the tree\n")
    status = _git(repo, "status", "--porcelain")
    history = tmp_path / "BENCH_suite.json"
    _against(bench_suite, repo, history)  # wall_s alone may read regressed
    parent, change = json.loads(history.read_text())["history"]
    assert _git(repo, "status", "--porcelain") == status
    assert _git(repo, "stash", "list") == ""
    assert (change["dirty"], "tree" in parent) == (True, False)
    # The change side wrote no metrics: no layer is judged.
    assert set(change["comparison"]) == {"wall_s", "elapsed_s", "peak_rss_mb"}
    assert "layers" in parent["summary"] and "layers" not in change["summary"]
    _git(repo, "commit", "-qam", "change")
    assert change["tree"] == _git(repo, "rev-parse", "HEAD^{tree}")
    assert change["tree"] != _git(repo, "rev-parse", "HEAD~1^{tree}")


def test_against_removes_the_export_when_a_run_fails(bench_suite, repo, tmp_path):
    (repo / "scripts" / "run_paper_suite.py").write_text("raise SystemExit(3)\n")
    history = tmp_path / "BENCH_suite.json"
    with pytest.raises(subprocess.CalledProcessError):
        _against(bench_suite, repo, history)
    assert not history.exists()
    assert not list((tmp_path / "scratch").iterdir()), "the parent's export was left behind"


def test_against_needs_three_pairs(bench_suite, repo, tmp_path):
    with pytest.raises(SystemExit):
        _against(bench_suite, repo, tmp_path / "BENCH_suite.json", "--runs", "2")


def test_against_records_the_tree_as_it_was_before_the_runs(bench_suite, repo, tmp_path):
    """A checkout edited while its runs go on is recorded as it was
    when they began: clean here, although each run edits a tracked file
    of the checkout."""
    suite = repo / "scripts" / "run_paper_suite.py"
    suite.write_text(
        suite.read_text()
        + f"\nwith open({str(repo / 'edited.txt')!r}, 'a') as f:\n"
        + "    f.write('run\\n')\n"
    )
    (repo / "edited.txt").write_text("")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "a suite that edits its tree")
    history = tmp_path / "BENCH_suite.json"
    _against(bench_suite, repo, history)
    assert _git(repo, "status", "--porcelain", "--untracked-files=no")  # edited by the runs
    _, change = json.loads(history.read_text())["history"]
    assert change["dirty"] is False


def test_against_runs_both_sides_from_exports(bench_suite, repo, tmp_path):
    """The change side runs from an export of the tracked content, as the
    parent does: a staged new file comes along, an untracked one stays
    behind, and both sides' paths have the same length."""
    seen = tmp_path / "seen.txt"
    suite = repo / "scripts" / "run_paper_suite.py"
    suite.write_text(
        suite.read_text()
        + "\nhere = pathlib.Path(__file__).resolve().parents[1]\n"
        + f"with open({str(seen)!r}, 'a') as f:\n"
        + "    f.write(f\"{here} {(here / 'staged.txt').exists()} {(here / 'untracked.txt').exists()}\\n\")\n"
    )
    _git(repo, "commit", "-qam", "a suite that reports where it runs")
    (repo / "staged.txt").write_text("")
    _git(repo, "add", "staged.txt")
    (repo / "untracked.txt").write_text("")
    _against(bench_suite, repo, tmp_path / "BENCH_suite.json")

    runs = [line.split() for line in seen.read_text().splitlines()]
    parent = {root for root, staged, _ in runs if staged == "False"}
    change = {root for root, staged, _ in runs if staged == "True"}
    assert len(parent) == len(change) == 1, runs
    assert all(untracked == "False" for _, _, untracked in runs)
    (parent_root,), (change_root,) = parent, change
    assert len(parent_root) == len(change_root)
    assert str(repo) not in (parent_root, change_root)
    assert not list((tmp_path / "scratch").iterdir()), "an export was left behind"
