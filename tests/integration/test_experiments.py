"""Integration tests for the experiment harness.

Each registered experiment runs at a tiny scale and must produce a
structurally valid result; a few spot checks assert the paper-shape
properties that survive even at tiny scale.
"""

import pytest

from repro.experiments.registry import get_experiment, list_experiments
from repro.experiments.common import ExperimentResult
from repro.experiments.runner import run_experiment

TINY = dict(scale=0.03, workload_limit=3)

ALL_IDS = [entry.experiment_id for entry in list_experiments()]


def _run(experiment_id, **overrides):
    kwargs = dict(TINY)
    kwargs.update(overrides)
    return run_experiment(experiment_id, kwargs["scale"], kwargs["workload_limit"])


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "fig1a", "fig1c", "fig3", "fig4", "fig7", "fig8", "fig9",
            "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
            "table2", "table3", "table4", "table5",
            "sec48", "sec49", "sec57", "sec61", "sec62",
        }
        assert expected.issubset(set(ALL_IDS))

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_duplicate_registration_rejected(self):
        from repro.experiments.registry import register

        with pytest.raises(ValueError):
            register("fig1a", "dup")(lambda scale: None)


@pytest.mark.parametrize("experiment_id", ALL_IDS)
def test_experiment_runs_and_formats(experiment_id):
    result = _run(experiment_id)
    assert isinstance(result, ExperimentResult)
    assert result.experiment_id == experiment_id
    assert result.rows, "experiment produced no rows"
    assert all(len(row) == len(result.headers) for row in result.rows)
    text = result.format()
    assert experiment_id in text
    assert result.headers[0] in text


class TestSpotChecks:
    def test_fig4_shape(self):
        result = run_experiment("fig4", scale=1.0, workload_limit=None)
        rows = result.row_map()
        # Baseline: stride/random hot, stream cold; encrypted: all cold.
        assert rows["stream"][1] == 0
        assert rows["stride-64"][1] == 1024
        assert rows["random"][1] >= 1000
        assert rows["stride-64"][2] <= 1
        assert rows["random"][2] <= 1

    def test_fig7_rubix_wins(self):
        result = _run("fig7")
        mean = result.row_map()["mean"]
        coffeelake, rubix = mean[1], mean[3]
        assert coffeelake > 20 * max(rubix, 0.5)

    def test_fig9_gang_sizes_all_cheap(self):
        result = _run("fig9")
        rows = result.row_map()
        # Every (scheme, GS) combination stays in the single digits; the
        # paper's exact GS1-vs-GS4 preference for Blockhammer is a ~1%
        # effect our model places within noise (see EXPERIMENTS.md).
        for scheme in ("aqua", "srs", "blockhammer"):
            assert all(v < 12 for v in rows[scheme][1:]), rows[scheme]

    def test_table5_security_labels(self):
        result = _run("table5")
        rows = result.rows
        assert any("Not Secure" in str(row[1]) for row in rows)
        assert sum("Secure" in str(row[1]) for row in rows) >= 6

    def test_fig1a_static_data(self):
        result = run_experiment("fig1a", None, None)
        assert result.column("t_rh")[0] == 139_000


class TestCLI:
    def test_list(self, capsys):
        from repro.experiments.runner import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out

    def test_run_single(self, capsys):
        from repro.experiments.runner import main

        assert main(["run", "fig1a"]) == 0
        out = capsys.readouterr().out
        assert "fig1a" in out

    def test_run_unknown(self):
        from repro.experiments.runner import main

        assert main(["run", "fig99"]) == 2

    def test_inspect(self, capsys):
        from repro.experiments.runner import main

        assert main(["inspect", "xz", "--scale", "0.03", "--mapping", "rubix-s"]) == 0
        out = capsys.readouterr().out
        assert "hot rows" in out
        assert "aqua" in out

    def test_inspect_unknown_workload(self):
        from repro.experiments.runner import main

        assert main(["inspect", "nosuch", "--scale", "0.03"]) == 2

    def test_inspect_unknown_mapping(self):
        from repro.experiments.runner import main

        assert main(["inspect", "xz", "--scale", "0.03", "--mapping", "warp"]) == 2
