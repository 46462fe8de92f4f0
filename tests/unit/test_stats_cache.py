"""Unit tests for the content-keyed window-statistics cache."""

import numpy as np
import pytest

from repro.dram.fast_model import TraceStats
from repro.parallel import StatsCache, default_persist_dir, stats_cache_key
from repro.parallel.cache import STATS_CACHE_ENV


def _stats(activations=100, hits=50, detail=False):
    acts = np.array([60, 40], dtype=np.int64)
    return TraceStats(
        n_accesses=activations + hits,
        n_activations=activations,
        n_hits=hits,
        row_ids=np.array([3, 9], dtype=np.int64),
        acts_per_row=acts,
        unique_rows_touched=2,
        act_rows=np.array([3, 9], dtype=np.int64) if detail else None,
        act_cols=None,
    )


BASE_KEY_ARGS = dict(
    trace_key=("gcc", 0.5, 100_000, "abcd" * 8, 2024),
    mapping_key="rubix-s|gs4|seed2024",
    rows_per_bank=65_536,
    max_hits=4,
)


class TestKey:
    def test_stable(self):
        assert stats_cache_key(**BASE_KEY_ARGS) == stats_cache_key(**BASE_KEY_ARGS)

    def test_filename_safe_hex(self):
        key = stats_cache_key(**BASE_KEY_ARGS)
        assert key == key.lower() and int(key, 16) >= 0
        assert len(key) == 40  # blake2b-20 hex

    @pytest.mark.parametrize(
        "override",
        [
            {"trace_key": ("gcc", 0.5, 100_000, "dcba" * 8, 2024)},  # content
            {"trace_key": ("gcc", 0.5, 100_000, "abcd" * 8, 9)},  # seed
            {"trace_key": ("mcf", 0.5, 100_000, "abcd" * 8, 2024)},  # name
            {"mapping_key": "rubix-s|gs2|seed2024"},
            {"rows_per_bank": 131_072},
            {"max_hits": None},
            {"chunk_lines": 4096},
        ],
    )
    def test_every_component_is_load_bearing(self, override):
        assert stats_cache_key(**{**BASE_KEY_ARGS, **override}) != stats_cache_key(
            **BASE_KEY_ARGS
        )

    @pytest.mark.parametrize(
        "mapping, dynamic, digest",
        [
            ("coffeelake", False, "97f20ad65e75310c38db39e4fb6e68b4d5a54d28"),
            ("rubix-d", True, "5d2493eec11e3ed7f0b4c4a5ce381e737e3f082b"),
        ],
        # The ids leave the digest out, so a version bump keeps the names.
        ids=["coffeelake-False", "rubix-d-True"],
    )
    def test_simulator_key_pinned(self, mapping, dynamic, digest):
        # Persisted .npz stats caches are named by this digest: a change
        # here silently orphans every cache on disk.  Update the literal
        # only together with a _DISK_VERSION bump.
        from repro.experiments.common import make_mapping
        from repro.perf.simulator import Simulator
        from repro.workloads.spec import spec_trace

        trace = spec_trace("xz", scale=0.01)
        built = make_mapping(mapping, gang_size=2)
        assert Simulator()._cache_key(trace, built, dynamic=dynamic) == digest

    @pytest.mark.parametrize(
        "base, other",
        [({}, {"row_bytes": 4 * 1024}), ({"ranks": 2}, {"channels": 2})],
        ids=["row_bytes", "channel_rank_split"],
    )
    def test_simulator_key_carries_geometry(self, tmp_path, base, other):
        # Two geometries with equal rows per bank: one shared disk cache
        # must hold one entry per geometry, never serve one for the other.
        from repro.dram.config import DRAMConfig
        from repro.mapping.intel import CoffeeLakeMapping
        from repro.perf.simulator import Simulator
        from repro.workloads.trace import Trace

        base, other = DRAMConfig(**base), DRAMConfig(**other)
        assert base.rows_per_bank == other.rows_per_bank
        lines = np.random.default_rng(5).integers(0, 1 << 20, 20_000, dtype=np.uint64)
        trace = Trace("geo", lines, instructions=1_000_000)
        cache = StatsCache(persist_dir=tmp_path)
        keys = []
        for config in (base, other):
            sim = Simulator(config, stats_cache=cache)
            mapping = CoffeeLakeMapping(config)
            keys.append(sim._cache_key(trace, mapping, dynamic=False))
            stats, _ = sim.window_stats(trace, mapping)
            fresh, _ = Simulator(config).window_stats(trace, mapping, use_cache=False)
            assert stats.row_ids.tolist() == fresh.row_ids.tolist()
            assert stats.acts_per_row.tolist() == fresh.acts_per_row.tolist()
        assert keys[0] != keys[1]
        assert cache.hits == cache.disk_hits == 0
        assert len(list(tmp_path.glob("*.npz"))) == 2


class TestMemoryLayer:
    def test_miss_then_hit_returns_same_objects(self):
        cache = StatsCache()
        key = stats_cache_key(**BASE_KEY_ARGS)
        assert cache.get(key) is None
        stats = _stats()
        cache.put(key, stats, 7)
        got = cache.get(key)
        assert got is not None
        assert got[0] is stats and got[1] == 7
        assert cache.hits == 1 and cache.misses == 1

    def test_len_and_contains(self):
        cache = StatsCache()
        key = stats_cache_key(**BASE_KEY_ARGS)
        assert key not in cache and len(cache) == 0
        cache.put(key, _stats(), 0)
        assert key in cache and len(cache) == 1
        cache.clear()
        assert len(cache) == 0


class TestDiskLayer:
    def test_round_trip_through_fresh_instance(self, tmp_path):
        key = stats_cache_key(**BASE_KEY_ARGS)
        writer = StatsCache(persist_dir=tmp_path)
        stats = _stats()
        writer.put(key, stats, 11)
        assert (tmp_path / f"{key}.npz").exists()

        reader = StatsCache(persist_dir=tmp_path)  # cold memory layer
        got = reader.get(key)
        assert got is not None
        loaded, swaps = got
        assert swaps == 11
        assert loaded.n_accesses == stats.n_accesses
        assert loaded.n_activations == stats.n_activations
        assert loaded.n_hits == stats.n_hits
        assert loaded.unique_rows_touched == stats.unique_rows_touched
        assert loaded.row_ids.tolist() == stats.row_ids.tolist()
        assert loaded.acts_per_row.tolist() == stats.acts_per_row.tolist()
        assert reader.disk_hits == 1
        # Promoted to memory: the second get is a memory hit.
        assert reader.get(key)[0] is loaded
        assert reader.hits == 1

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        key = stats_cache_key(**BASE_KEY_ARGS)
        (tmp_path / f"{key}.npz").write_bytes(b"this is not an npz file")
        cache = StatsCache(persist_dir=tmp_path)
        assert cache.get(key) is None
        assert cache.misses == 1 and cache.disk_hits == 0

    def test_corrupt_entry_quarantined_not_reread(self, tmp_path):
        """A torn .npz is moved aside, counted, and never decoded twice."""
        key = stats_cache_key(**BASE_KEY_ARGS)
        entry = tmp_path / f"{key}.npz"
        entry.write_bytes(b"\x00torn write from a crashed producer")
        cache = StatsCache(persist_dir=tmp_path)
        assert cache.get(key) is None
        assert cache.corrupt == 1
        # The bad bytes survive for postmortems under a new name; the
        # original path is free for the recomputing writer.
        quarantined = tmp_path / f"{key}.npz.corrupt"
        assert not entry.exists() and quarantined.exists()
        assert quarantined.read_bytes().startswith(b"\x00torn")
        # The second lookup is a plain miss: no decode attempt, no
        # double count.
        assert cache.get(key) is None
        assert cache.corrupt == 1 and cache.misses == 2

    def test_corrupt_metric_and_warning_emitted(self, tmp_path):
        from repro import obs

        key = stats_cache_key(**BASE_KEY_ARGS)
        (tmp_path / f"{key}.npz").write_bytes(b"garbage")
        obs.reset()
        obs.configure(enabled=True)
        try:
            assert StatsCache(persist_dir=tmp_path).get(key) is None
            assert obs.METRICS.counter_value("cache.corrupt") == 1
        finally:
            obs.reset()

    def test_quarantined_path_can_be_rewritten_and_read(self, tmp_path):
        key = stats_cache_key(**BASE_KEY_ARGS)
        (tmp_path / f"{key}.npz").write_bytes(b"garbage")
        cache = StatsCache(persist_dir=tmp_path)
        assert cache.get(key) is None  # quarantines
        cache.put(key, _stats(), 5)  # recompute persists cleanly
        fresh = StatsCache(persist_dir=tmp_path)
        got = fresh.get(key)
        assert got is not None and got[1] == 5
        assert fresh.corrupt == 0

    def test_stale_version_is_miss_without_quarantine(self, tmp_path):
        """A decodable entry from an older format is stale, not corrupt."""
        import numpy as np

        key = stats_cache_key(**BASE_KEY_ARGS)
        cache = StatsCache(persist_dir=tmp_path)
        cache.put(key, _stats(), 3)
        path = tmp_path / f"{key}.npz"
        with np.load(path) as bundle:
            scalars = bundle["scalars"].copy()
            row_ids, acts = bundle["row_ids"], bundle["acts_per_row"]
            scalars[5] = 999  # future format version
            np.savez_compressed(
                tmp_path / "tmp.npz", scalars=scalars, row_ids=row_ids, acts_per_row=acts
            )
        (tmp_path / "tmp.npz").replace(path)
        fresh = StatsCache(persist_dir=tmp_path)
        assert fresh.get(key) is None
        assert fresh.corrupt == 0 and path.exists()  # left in place

    def test_detail_bearing_stats_not_persisted(self, tmp_path):
        key = stats_cache_key(**BASE_KEY_ARGS)
        cache = StatsCache(persist_dir=tmp_path)
        cache.put(key, _stats(detail=True), 0)
        assert not (tmp_path / f"{key}.npz").exists()
        # Still served from memory, detail intact.
        assert cache.get(key)[0].act_rows is not None

    def test_unwritable_dir_never_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache dir should be")
        cache = StatsCache(persist_dir=blocker)
        cache.put(stats_cache_key(**BASE_KEY_ARGS), _stats(), 0)  # must not raise

    def test_persist_to_attach_detach(self, tmp_path):
        cache = StatsCache()
        assert cache.persist_to(tmp_path) is cache
        key = stats_cache_key(**BASE_KEY_ARGS)
        cache.put(key, _stats(), 0)
        assert (tmp_path / f"{key}.npz").exists()
        cache.persist_to(None)
        assert cache.persist_dir is None

    def test_clear_can_drop_disk_entries(self, tmp_path):
        cache = StatsCache(persist_dir=tmp_path)
        cache.put(stats_cache_key(**BASE_KEY_ARGS), _stats(), 0)
        cache.clear(memory_only=False)
        assert not list(tmp_path.glob("*.npz"))


class TestEnvironment:
    def test_default_persist_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv(STATS_CACHE_ENV, raising=False)
        assert default_persist_dir() is None
        monkeypatch.setenv(STATS_CACHE_ENV, str(tmp_path))
        assert default_persist_dir() == str(tmp_path)
        monkeypatch.setenv(STATS_CACHE_ENV, "  ")
        assert default_persist_dir() is None
