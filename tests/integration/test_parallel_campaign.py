"""Integration tests: parallel campaigns match serial ones exactly.

The contract under test is the tentpole guarantee: ``Campaign.run``
with ``workers=N`` produces record-for-record identical output to a
serial sweep of the same grid -- including for Rubix-D mappings with
mutable remap state -- and the checkpoint journal written by a parallel
run resumes interchangeably with a serial one.

No wall-clock assertions anywhere: CI machines may have a single core,
where a process pool is correct but not faster.
"""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments.campaign import Campaign, MappingSpec
from repro.experiments.common import get_simulator
from repro.resilience.faults import FaultPlan, FaultySimulator, SimulatedCrash
from repro.resilience.journal import CheckpointJournal

WORKLOADS = ["xz", "namd", "lbm"]
#: One stateless mapping and one with mutable remap state (rubix-d with
#: a nonzero remap rate) -- the hard case for order-independence.
MAPPINGS = [
    MappingSpec("coffeelake"),
    MappingSpec("rubix-d", gang_size=4, remap_rate=0.01),
]


def make_campaign(**overrides) -> Campaign:
    kwargs = dict(
        workloads=WORKLOADS,
        mappings=MAPPINGS,
        schemes=["aqua", "blockhammer"],
        thresholds=[128, 512],
        scale=0.05,
    )
    kwargs.update(overrides)
    return Campaign(**kwargs)


class TestParallelMatchesSerial:
    def test_24_cell_grid_identical_records(self, tmp_path):
        here = make_campaign()
        serial = here.run(journal=tmp_path / "serial.jsonl")
        campaign = make_campaign()
        parallel = campaign.run(workers=4, journal=tmp_path / "pool.jsonl")
        assert len(serial) == campaign.size() == 24
        assert parallel == serial
        assert campaign.cells_executed == here.cells_executed == 24
        assert all(record["status"] == "ok" for record in parallel)
        # Both modes journal alike: the same {key: record}, and every
        # entry carries the timing fields the campaign-pool benchmark
        # reads through timings().
        serial_journal = CheckpointJournal(tmp_path / "serial.jsonl")
        pool_journal = CheckpointJournal(tmp_path / "pool.jsonl")
        assert pool_journal.completed() == serial_journal.completed()
        for journal in (serial_journal, pool_journal):
            timings = journal.timings()
            assert set(timings) == set(journal.completed())
            for timing in timings.values():
                assert timing["duration_s"] > 0
                assert timing["worker_id"].startswith("p")

    def test_workers_1_uses_serial_path(self):
        # workers=1 must be exactly the serial code path (it accepts the
        # per-process simulator override parallel mode rejects).
        campaign = make_campaign(workloads=["xz"], thresholds=[128])
        records = campaign.run(workers=1, simulator=get_simulator())
        assert len(records) == campaign.size() == 4


class TestValidation:
    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            make_campaign().run(workers=0)

    def test_simulator_override_rejected_in_parallel(self):
        with pytest.raises(ValueError, match="workers=1"):
            make_campaign().run(workers=2, simulator=get_simulator())

    def test_journal_and_resume_mutually_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            make_campaign().run(
                journal=tmp_path / "a.jsonl", resume_from=tmp_path / "b.jsonl"
            )


class TestParallelResume:
    def test_parallel_resume_completes_interrupted_serial_run(self, tmp_path):
        expected = make_campaign().run()

        journal_path = tmp_path / "campaign.jsonl"
        crashing = FaultySimulator(get_simulator(), FaultPlan(crash_after_cells=5))
        with pytest.raises(SimulatedCrash):
            make_campaign().run(simulator=crashing, journal=journal_path)
        journal = CheckpointJournal(journal_path)
        assert len(journal.completed()) == 5

        resumed_campaign = make_campaign()
        records = resumed_campaign.run(workers=2, resume_from=journal_path)
        assert records == expected
        # Only the 19 unfinished cells were re-dispatched.
        assert resumed_campaign.cells_executed == 19
        assert len(CheckpointJournal(journal_path).completed()) == 24

    def test_parallel_journal_resumes_serially(self, tmp_path):
        # A journal written by a parallel run is a plain cell-keyed
        # checkpoint: a serial resume accepts it unchanged.
        expected = make_campaign().run()
        journal_path = tmp_path / "parallel.jsonl"
        first = make_campaign()
        first.run(workers=2, journal=journal_path)
        resumed = make_campaign()
        records = resumed.run(resume_from=journal_path)
        assert records == expected
        assert resumed.cells_executed == 0  # everything replayed from journal


class TestWorkerDeath:
    GRID = dict(
        workloads=["xz", "lbm"],
        mappings=[MappingSpec("coffeelake")],
        schemes=["aqua"],
        thresholds=[128, 512],
        scale=0.02,
    )

    def test_killed_worker_breaks_the_pool_and_resume_finishes(
        self, tmp_path, monkeypatch, lbm_kills_pool_workers
    ):
        journal_path = tmp_path / "campaign.jsonl"
        campaign = Campaign(**self.GRID)
        xz_keys = {campaign.cell_key(*c) for c in campaign.cells() if c[0] == "xz"}
        with pytest.raises(BrokenProcessPool):
            campaign.run(workers=2, journal=journal_path, mp_context="fork")
        # Every cell finished before the death is journaled.
        assert set(CheckpointJournal(journal_path).completed()) == xz_keys

        monkeypatch.undo()
        expected = Campaign(**self.GRID).run()
        resumed = Campaign(**self.GRID)
        assert resumed.run(workers=2, resume_from=journal_path) == expected
        assert resumed.cells_executed == 2  # only the lbm cells re-ran


class TestSharedStatsCache:
    def test_spawn_workers_populate_disk_cache(self, tmp_path):
        # 'spawn' workers start cold (no inherited in-memory caches), so
        # their analyses must land in the shared on-disk cache.
        cache_dir = tmp_path / "stats"
        campaign = make_campaign(
            workloads=["xz"], schemes=["blockhammer"], thresholds=[128]
        )
        records = campaign.run(
            workers=2, stats_cache_dir=cache_dir, mp_context="spawn"
        )
        assert all(record["status"] == "ok" for record in records)
        entries = list(cache_dir.glob("*.npz"))
        assert entries, "cold workers should persist their window statistics"
