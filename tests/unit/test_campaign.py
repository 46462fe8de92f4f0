"""Unit tests for the sweep-campaign API."""

import json
import shutil

import pytest

from repro.experiments.campaign import Campaign, MappingSpec, campaign_from_spec
from repro.experiments.common import get_simulator
from repro.resilience.faults import FaultPlan, FaultySimulator, SimulatedCrash


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
        # Empty axes and thresholds below 1 fail before any cell runs.
        for axes, message in [
            ({"schemes": []}, "at least one scheme"),
            ({"thresholds": []}, "at least one threshold"),
            ({"thresholds": [128, 0]}, "thresholds must be >= 1"),
            ({"thresholds": [-64]}, "thresholds must be >= 1"),
        ]:
            with pytest.raises(ValueError, match=message):
                Campaign(workloads=["xz"], mappings=[MappingSpec("coffeelake")], **axes)

    def test_deterministic_cell_order(self, campaign):
        cells = list(campaign.cells())
        assert cells[0][0] == "xz"
        assert len(cells) == campaign.size()

    def test_records_carry_status(self, campaign):
        records = campaign.run()
        # Each cell is tried once, so records carry no attempt count.
        assert all(r["status"] == "ok" and "attempts" not in r for r in records)

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
    """``cells_executed`` counts one per cell, whatever the outcome."""

    @pytest.mark.parametrize(
        "plan, status",
        [
            (FaultPlan(drop_mitigation_cells=("xz",)), "degraded"),
            (FaultPlan(fail_cells=("xz",)), "error"),
        ],
        ids=["degrade", "hard-fail"],
    )
    def test_one_count_per_cell(self, plan, status):
        # At scale 0.05 xz under Coffee Lake has a row at or above both
        # thresholds, so zero mitigations there is flagged by the
        # invariant check.
        campaign = Campaign(
            workloads=["xz"],
            mappings=[MappingSpec("coffeelake")],
            schemes=["aqua"],
            thresholds=[64, 128],
            scale=0.05,
        )
        records = campaign.run(simulator=FaultySimulator(get_simulator(), plan))
        assert [r["status"] for r in records] == [status] * campaign.size()
        assert campaign.cells_executed == campaign.size()


class TestStatsCacheDir:
    """``run(stats_cache_dir=D)`` in process lends D to the shared simulator
    for that run only."""

    @staticmethod
    def grid() -> Campaign:
        return Campaign(
            workloads=["xz"],
            mappings=[MappingSpec("coffeelake")],
            schemes=["aqua"],
            thresholds=[128],
            scale=0.02,
        )

    def test_later_run_without_a_directory_writes_nothing_there(self, tmp_path):
        cache = get_simulator().stats_cache
        before = cache.persist_dir
        lent = tmp_path / "stats"
        cache.clear()
        self.grid().run(stats_cache_dir=lent)
        assert list(lent.glob("*.npz")), "the run should persist its windows"
        assert cache.persist_dir == before
        shutil.rmtree(lent)
        cache.clear()  # the next run misses memory, so it would put()
        self.grid().run()
        assert not lent.exists()

    def test_directory_detached_when_the_run_crashes(self, tmp_path):
        cache = get_simulator().stats_cache
        before = cache.persist_dir
        crashing = FaultySimulator(get_simulator(), FaultPlan(crash_after_cells=0))
        with pytest.raises(SimulatedCrash):
            self.grid().run(simulator=crashing, stats_cache_dir=tmp_path / "stats")
        assert cache.persist_dir == before


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
        # A string grid field must not be split into its characters.
        with pytest.raises(ValueError, match="'thresholds' must be a list"):
            campaign_from_spec(
                {"workloads": ["xz"], "mappings": ["coffeelake"], "thresholds": "128"}
            )
        with pytest.raises(ValueError, match="'workloads' must be a list"):
            campaign_from_spec({"workloads": "xz", "mappings": ["coffeelake"]})
        with pytest.raises(ValueError, match="'mappings' must be a list"):
            campaign_from_spec({"workloads": ["xz"], "mappings": "coffeelake"})
        with pytest.raises(ValueError, match="'schemes' must be a list"):
            campaign_from_spec(
                {"workloads": ["xz"], "mappings": ["coffeelake"], "schemes": "aqua"}
            )
        # Thresholds are integers, never silently truncated or bool.
        for bad in ([128.9], [True], ["128"]):
            with pytest.raises(ValueError, match="thresholds must be integers"):
                campaign_from_spec(
                    {"workloads": ["xz"], "mappings": ["coffeelake"], "thresholds": bad}
                )
