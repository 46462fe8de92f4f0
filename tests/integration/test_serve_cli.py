"""Integration tests: ``serve`` runs campaign specs on the process pool.

``serve`` runs its spec files one after another through
``Campaign.run(workers=N)``, all against one checkpoint journal, so a
cell that an earlier spec or an earlier run committed is replayed, not
recomputed.  Its records equal a serial ``Campaign.run`` of each spec.
"""

import json
import multiprocessing

import pytest

from repro.experiments.campaign import campaign_from_spec
from repro.experiments.runner import main
from repro.resilience.journal import CheckpointJournal

#: Two specs that share the xz/coffeelake cell.
SPEC_A = {
    "workloads": ["xz"],
    "mappings": ["coffeelake", "rubix-s"],
    "schemes": ["aqua"],
    "thresholds": [128],
    "scale": 0.02,
    "tenant": "alice",
}
SPEC_B = {
    "workloads": ["xz", "lbm"],
    "mappings": ["coffeelake"],
    "schemes": ["aqua"],
    "thresholds": [128],
    "scale": 0.02,
    "tenant": "bob",
}


def write_spec(tmp_path, name, spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def journal_keys(path):
    return [json.loads(line)["key"] for line in path.read_text().splitlines()]


def distinct_keys(*specs):
    keys = set()
    for spec in specs:
        campaign = campaign_from_spec(spec)
        keys.update(campaign.cell_key(*cell) for cell in campaign.cells())
    return keys


def test_workers_below_one_exits_2_without_a_journal(tmp_path):
    journal = tmp_path / "never.jsonl"
    spec = write_spec(tmp_path, "a.json", SPEC_A)
    assert main(["serve", spec, "--workers", "0", "--journal", str(journal)]) == 2
    assert not journal.exists()


def test_bad_spec_exits_2(tmp_path):
    journal = tmp_path / "never.jsonl"
    spec = write_spec(tmp_path, "bad.json", {"workloads": ["xz"], "mapings": []})
    assert main(["serve", spec, "--journal", str(journal)]) == 2
    assert not journal.exists()


def test_string_thresholds_exit_2(tmp_path, capsys):
    journal = tmp_path / "never.jsonl"
    spec = write_spec(tmp_path, "bad.json", {**SPEC_A, "thresholds": "128"})
    assert main(["serve", spec, "--journal", str(journal)]) == 2
    captured = capsys.readouterr()
    assert "must be a list" in captured.out + captured.err
    assert not journal.exists()


def test_duplicate_tenants_exit_2_before_any_cell_runs(tmp_path, capsys):
    journal = tmp_path / "never.jsonl"
    out = tmp_path / "out"
    a = write_spec(tmp_path, "a.json", {**SPEC_A, "tenant": "team"})
    b = write_spec(tmp_path, "b.json", {**SPEC_B, "tenant": "team"})
    argv = ["serve", a, b, "--journal", str(journal), "--json", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "team" in captured.out + captured.err
    assert not journal.exists()
    assert not out.exists()


@pytest.mark.parametrize("tenant", ["team/a", "../x", "..", ""])
def test_tenant_that_is_not_a_file_name_exits_2_before_any_cell_runs(tmp_path, capsys, tenant):
    # The tenant names the DIR/<tenant>.json records file, so a path
    # would fail after every cell ran, or write outside DIR.
    journal = tmp_path / "never.jsonl"
    out = tmp_path / "out"
    spec = write_spec(tmp_path, "a.json", {**SPEC_A, "tenant": tenant})
    assert main(["serve", spec, "--journal", str(journal), "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"bad spec {spec}" in captured.out + captured.err
    assert not journal.exists()
    assert not out.exists()


def test_overlapping_specs_match_serial_and_compute_each_cell_once(tmp_path):
    journal = tmp_path / "serve.jsonl"
    out = tmp_path / "out"
    specs = [write_spec(tmp_path, "a.json", SPEC_A), write_spec(tmp_path, "b.json", SPEC_B)]
    argv = ["serve", *specs, "--workers", "2", "--journal", str(journal), "--json", str(out)]
    assert main(argv) == 0
    for spec in (SPEC_A, SPEC_B):
        served = json.loads((out / f"{spec['tenant']}.json").read_text())
        assert served == campaign_from_spec(spec).run()
    keys = journal_keys(journal)
    assert len(keys) == len(set(keys)) == len(distinct_keys(SPEC_A, SPEC_B)) == 3

    # A second invocation replays everything and appends nothing.
    assert main(argv) == 0
    assert journal_keys(journal) == keys

    # --no-resume starts the journal over: one line per cell again.
    assert main([*argv, "--no-resume"]) == 0
    assert sorted(journal_keys(journal)) == sorted(keys)


def test_serve_without_journal_dedupes_overlapping_specs(tmp_path, capsys):
    out = tmp_path / "out"
    specs = [write_spec(tmp_path, "a.json", SPEC_A), write_spec(tmp_path, "b.json", SPEC_B)]
    assert main(["serve", *specs, "--workers", "1", "--json", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "[alice: 2 cells, 2 computed]" in captured
    assert "[bob: 2 cells, 1 computed]" in captured  # xz/coffeelake replayed
    for spec in (SPEC_A, SPEC_B):
        served = json.loads((out / f"{spec['tenant']}.json").read_text())
        assert served == campaign_from_spec(spec).run()


@pytest.mark.skipif(
    multiprocessing.get_all_start_methods()[0] != "fork",
    reason="pool workers inherit the monkeypatch only under fork",
)
def test_dead_worker_exits_1_and_a_rerun_resumes(
    tmp_path, monkeypatch, capsys, lbm_kills_pool_workers
):
    journal = tmp_path / "serve.jsonl"
    out = tmp_path / "out"
    spec = write_spec(tmp_path, "b.json", SPEC_B)
    argv = ["serve", spec, "--workers", "2", "--journal", str(journal), "--json", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "rerun the same command to resume" in captured.out + captured.err
    assert not out.exists()
    assert len(CheckpointJournal(journal).completed()) == 1  # the xz cell

    monkeypatch.undo()
    assert main(argv) == 0
    served = json.loads((out / "bob.json").read_text())
    assert served == campaign_from_spec(SPEC_B).run()
    assert len(journal_keys(journal)) == 2
