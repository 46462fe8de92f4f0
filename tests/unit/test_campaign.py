"""Unit tests for the sweep-campaign API."""

import json

import pytest

from repro.experiments.campaign import Campaign, MappingSpec, campaign_from_spec
from repro.experiments.common import get_simulator
from repro.resilience.executor import CellBudget, ResilientExecutor
from repro.resilience.faults import FaultPlan, FaultySimulator


class TestMappingSpec:
    def test_labels(self):
        assert MappingSpec("coffeelake").label == "coffeelake"
        assert MappingSpec("rubix-s", gang_size=2).label == "rubix-s-gs2"


class TestCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        return Campaign(
            workloads=["xz", "namd"],
            mappings=[MappingSpec("coffeelake"), MappingSpec("rubix-s", gang_size=4)],
            schemes=["aqua", "blockhammer"],
            thresholds=[1024, 128],
            scale=0.05,
        )

    def test_size(self, campaign):
        assert campaign.size() == 2 * 2 * 2 * 2

    def test_run_produces_one_record_per_cell(self, campaign):
        records = campaign.run()
        assert len(records) == campaign.size()
        keys = {
            "workload",
            "mapping",
            "scheme",
            "t_rh",
            "normalized_performance",
            "slowdown_pct",
            "hot_rows_64",
            "mitigations",
        }
        assert keys.issubset(records[0].keys())

    def test_records_show_the_headline_effect(self, campaign):
        records = campaign.run()

        def cell(mapping, scheme, t_rh, workload="xz"):
            for record in records:
                if (
                    record["workload"] == workload
                    and record["mapping"] == mapping
                    and record["scheme"] == scheme
                    and record["t_rh"] == t_rh
                ):
                    return record
            raise KeyError

        baseline = cell("coffeelake", "blockhammer", 128)
        rubix = cell("rubix-s-gs4", "blockhammer", 128)
        assert rubix["slowdown_pct"] < baseline["slowdown_pct"]

    def test_validation(self):
        with pytest.raises(ValueError):
            Campaign(workloads=[], mappings=[MappingSpec("coffeelake")])
        with pytest.raises(ValueError):
            Campaign(workloads=["xz"], mappings=[])
        with pytest.raises(ValueError):
            Campaign(workloads=["xz"], mappings=[MappingSpec("coffeelake")], scale=0.0)

    def test_deterministic_cell_order(self, campaign):
        cells = list(campaign.cells())
        assert cells[0][0] == "xz"
        assert len(cells) == campaign.size()

    def test_records_carry_status_and_attempts(self, campaign):
        records = campaign.run()
        assert all(r["status"] == "ok" and r["attempts"] == 1 for r in records)

    def test_cell_keys_are_unique_and_stable(self, campaign):
        keys = [campaign.cell_key(*cell) for cell in campaign.cells()]
        assert len(set(keys)) == campaign.size()
        assert keys == [campaign.cell_key(*cell) for cell in campaign.cells()]


class TestMappingCache:
    def test_specs_differing_in_non_label_fields_get_distinct_mappings(self):
        # Regression: the old cache keyed on (label, remap_rate, segments),
        # so specs differing only in other fields could collide.
        campaign = Campaign(
            workloads=["xz"],
            mappings=[
                MappingSpec("rubix-d", gang_size=4, remap_rate=0.01),
                MappingSpec("rubix-d", gang_size=4, remap_rate=0.0),
            ],
        )
        a, b = (campaign._mapping(spec) for spec in campaign.mappings)
        assert a is not b
        assert a.remap_rate == 0.01 and b.remap_rate == 0.0

    def test_identical_specs_share_one_mapping(self):
        campaign = Campaign(workloads=["xz"], mappings=[MappingSpec("rubix-s")])
        spec = MappingSpec("rubix-s")
        assert campaign._mapping(spec) is campaign._mapping(spec)


class TestCellsExecuted:
    """``cells_executed`` counts cells, not attempts, whatever the outcome."""

    @pytest.mark.parametrize(
        "plan, budget, status",
        [
            (FaultPlan(), CellBudget(max_activations=1), "degraded"),
            (FaultPlan(fail_cells=("xz",)), CellBudget(), "error"),
            (FaultPlan(transient_cells={"xz": 1}), CellBudget(), "ok"),
        ],
        ids=["degrade", "hard-fail", "transient"],
    )
    def test_one_count_per_cell(self, plan, budget, status):
        campaign = Campaign(
            workloads=["xz"],
            mappings=[MappingSpec("coffeelake")],
            schemes=["aqua"],
            thresholds=[128, 512],
            scale=0.02,
        )
        records = campaign.run(
            simulator=FaultySimulator(get_simulator(), plan),
            executor=ResilientExecutor(budget=budget, sleep=lambda _: None),
        )
        assert [r["status"] for r in records] == [status] * campaign.size()
        assert campaign.cells_executed == campaign.size()


class TestSpecRoundTrip:
    def test_campaign_from_spec_matches_direct_construction(self):
        spec = {
            "workloads": ["xz", "namd", "lbm"],
            "mappings": [
                "coffeelake",
                {"kind": "rubix-d", "gang_size": 4, "remap_rate": 0.01},
            ],
            "schemes": ["aqua", "blockhammer"],
            "thresholds": [128, 512],
            "scale": 0.05,
            "tenant": "alice",
        }
        campaign = campaign_from_spec(json.loads(json.dumps(spec)))
        direct = Campaign(
            workloads=["xz", "namd", "lbm"],
            mappings=[
                MappingSpec("coffeelake"),
                MappingSpec("rubix-d", gang_size=4, remap_rate=0.01),
            ],
            schemes=["aqua", "blockhammer"],
            thresholds=[128, 512],
            scale=0.05,
        )
        assert campaign.size() == direct.size() == 24
        assert [campaign.cell_key(*c) for c in campaign.cells()] == [
            direct.cell_key(*c) for c in direct.cells()
        ]

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign spec key"):
            campaign_from_spec({"workloads": ["xz"], "mapings": ["coffeelake"]})
        with pytest.raises(ValueError, match="unknown campaign spec key"):
            campaign_from_spec(
                {"backend": "numpy", "workloads": ["xz"], "mappings": ["coffeelake"]}
            )
        with pytest.raises(ValueError, match="mapping"):
            campaign_from_spec({"workloads": ["xz"], "mappings": [42]})
        with pytest.raises(ValueError):
            campaign_from_spec([1, 2, 3])
