"""Unit tests for the metrics registry and its snapshot machinery."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    MAX_SERIES_PER_METRIC,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    filter_snapshot,
    parse_series_key,
    series_key,
    snapshot_from_jsonl,
    snapshot_to_jsonl,
)


class TestSeriesKey:
    def test_no_labels_is_bare_name(self):
        assert series_key("cache.requests", {}) == "cache.requests"

    def test_labels_sorted_stably(self):
        a = series_key("m", {"b": 1, "a": 2})
        b = series_key("m", {"a": 2, "b": 1})
        assert a == b == "m|a=2,b=1"

    def test_round_trip(self):
        key = series_key("span.count", {"span": "sim.window", "status": "ok"})
        name, labels = parse_series_key(key)
        assert name == "span.count"
        assert labels == {"span": "sim.window", "status": "ok"}


class TestRegistryBasics:
    def test_disabled_mutations_are_noops(self):
        reg = MetricsRegistry(enabled=False)
        reg.inc("a")
        reg.set_gauge("b", 3.0)
        reg.observe("c", 0.5)
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_counter_accumulates_with_labels(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("cache.requests", result="hit")
        reg.inc("cache.requests", 2, result="hit")
        reg.inc("cache.requests", result="miss")
        assert reg.counter_value("cache.requests", result="hit") == 3
        assert reg.counter_value("cache.requests", result="miss") == 1
        assert reg.counter_total("cache.requests") == 4

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry(enabled=True)
        reg.set_gauge("cache.entries", 5)
        reg.set_gauge("cache.entries", 2)
        assert reg.gauge_value("cache.entries") == 2

    def test_absent_series_defaults(self):
        reg = MetricsRegistry(enabled=True)
        assert reg.counter_value("nope") == 0
        assert reg.gauge_value("nope") is None
        assert reg.histogram("nope") is None


class TestHistogram:
    def test_bucket_assignment_and_overflow(self):
        hist = Histogram(buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(55.55)
        assert hist.mean == pytest.approx(55.55 / 4)

    def test_boundary_value_lands_in_bucket(self):
        hist = Histogram(buckets=(1.0, 2.0))
        hist.observe(1.0)  # le semantics: exactly the bound is inside
        assert hist.counts == [1, 0, 0]

    def test_registry_observe_uses_default_time_buckets(self):
        reg = MetricsRegistry(enabled=True)
        reg.observe("span.seconds", 0.3, span="x")
        hist = reg.histogram("span.seconds", span="x")
        assert hist.buckets == DEFAULT_TIME_BUCKETS
        assert hist.count == 1

    def test_declare_histogram_overrides_buckets(self):
        reg = MetricsRegistry(enabled=True)
        reg.declare_histogram("bytes", (1024, 65536))
        reg.observe("bytes", 2000)
        assert reg.histogram("bytes").buckets == (1024, 65536)
        assert reg.histogram("bytes").counts == [0, 1, 0]


class TestCardinalityCap:
    def test_overflow_series_after_cap(self):
        reg = MetricsRegistry(enabled=True)
        for i in range(MAX_SERIES_PER_METRIC + 50):
            reg.inc("m", worker=f"w{i}")
        # The cap admitted exactly MAX series; the rest folded together.
        overflow = reg.counter_value("m", overflow="true")
        assert overflow == 50
        assert reg.series_dropped == 50
        assert reg.counter_total("m") == MAX_SERIES_PER_METRIC + 50

    def test_existing_series_keep_counting_past_cap(self):
        reg = MetricsRegistry(enabled=True)
        for i in range(MAX_SERIES_PER_METRIC):
            reg.inc("m", worker=f"w{i}")
        reg.inc("m", worker="w0")  # existing series, not a new one
        assert reg.counter_value("m", worker="w0") == 2
        assert reg.series_dropped == 0


class TestSnapshotMergeDiff:
    def test_merge_adds_counters_and_histograms(self):
        a = MetricsRegistry(enabled=True)
        b = MetricsRegistry(enabled=True)
        for reg in (a, b):
            reg.inc("campaign.cells", status="ok")
            reg.observe("span.seconds", 0.2, span="x")
        b.set_gauge("cache.entries", 7)
        a.merge(b.snapshot())
        assert a.counter_value("campaign.cells", status="ok") == 2
        assert a.histogram("span.seconds", span="x").count == 2
        assert a.gauge_value("cache.entries") == 7

    def test_merge_ignores_enabled_flag(self):
        parent = MetricsRegistry(enabled=False)
        parent.merge({"counters": {"campaign.cells|status=ok": 3}})
        assert parent.counter_value("campaign.cells", status="ok") == 3

    def test_merge_rejects_bucket_mismatch(self):
        a = MetricsRegistry(enabled=True)
        a.observe("h", 1.0)
        other = {
            "histograms": {
                "h": {"buckets": [5.0], "counts": [1, 0], "sum": 1.0, "count": 1}
            }
        }
        with pytest.raises(ValueError, match="bucket mismatch"):
            a.merge(other)

    def test_diff_is_the_cells_contribution(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("campaign.cells", status="ok", )
        reg.observe("span.seconds", 0.1, span="x")
        before = reg.snapshot()
        reg.inc("campaign.cells", status="ok")
        reg.inc("campaign.activations", 100)
        reg.observe("span.seconds", 0.3, span="x")
        delta = diff_snapshots(reg.snapshot(), before)
        assert delta["counters"] == {
            "campaign.cells|status=ok": 1,
            "campaign.activations": 100,
        }
        hist = delta["histograms"]["span.seconds|span=x"]
        assert hist["count"] == 1
        assert hist["sum"] == pytest.approx(0.3)

    def test_serial_equals_merged_deltas(self):
        # The serial==parallel contract in miniature: applying the same
        # increments directly, or shipping them as two deltas and
        # merging, must produce identical snapshots.
        serial = MetricsRegistry(enabled=True)
        parent = MetricsRegistry(enabled=True)
        worker = MetricsRegistry(enabled=True)
        worker.inc("inherited.noise", 99)  # fork-inherited state
        for cell in range(2):
            serial.inc("campaign.cells", status="ok")
            serial.observe("span.seconds", 0.1 * (cell + 1), span="campaign.cell")
            before = worker.snapshot()
            worker.inc("campaign.cells", status="ok")
            worker.observe("span.seconds", 0.1 * (cell + 1), span="campaign.cell")
            parent.merge(diff_snapshots(worker.snapshot(), before))
        assert parent.snapshot() == serial.snapshot()


class TestExporters:
    def _populated(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("campaign.cells", 3, status="ok")
        reg.set_gauge("cache.entries", 4)
        reg.observe("span.seconds", 0.02, span="sim.window")
        return reg.snapshot()

    def test_jsonl_round_trip(self, tmp_path):
        snap = self._populated()
        path = tmp_path / "metrics.jsonl"
        path.write_text("\n".join(snapshot_to_jsonl(snap)) + "\n")
        assert snapshot_from_jsonl(path) == snap

    def test_jsonl_lines_are_valid_json(self):
        for line in snapshot_to_jsonl(self._populated()):
            entry = json.loads(line)
            assert entry["kind"] in ("counter", "gauge", "histogram")

    def test_filter_snapshot_by_prefix(self):
        snap = self._populated()
        semantic = filter_snapshot(snap, ("campaign.",))
        assert list(semantic["counters"]) == ["campaign.cells|status=ok"]
        assert semantic["gauges"] == {}
        assert semantic["histograms"] == {}


class TestOverflowFold:
    """Histograms stay sound once the series cap folds labels, in the
    snapshot and through the JSONL artifact."""

    @staticmethod
    def _round_trip(reg, tmp_path):
        snap = reg.snapshot()
        path = tmp_path / "metrics.jsonl"
        path.write_text("\n".join(snapshot_to_jsonl(snap)) + "\n")
        assert snapshot_from_jsonl(path) == snap
        return snap["histograms"]

    def test_histogram_folds_into_overflow_series(self, tmp_path):
        reg = MetricsRegistry(enabled=True)
        reg.declare_histogram("h", (1.0, 2.0))
        for i in range(MAX_SERIES_PER_METRIC):
            reg.observe("h", 0.5, worker=f"w{i}")
        # Past the cap: these observations fold into overflow="true".
        for value in (0.5, 1.5, 5.0):
            reg.observe("h", value, worker="one-too-many")
        histograms = self._round_trip(reg, tmp_path)
        overflow = histograms[series_key("h", {"overflow": "true"})]
        assert overflow["counts"] == [1, 1, 1]
        assert overflow["count"] == 3
        assert overflow["sum"] == 7.0
        # Pre-cap series keep their own buckets.
        assert histograms[series_key("h", {"worker": "w0"})]["counts"] == [1, 0, 0]
        assert not any("one-too-many" in key for key in histograms)

    def test_overflow_counts_accumulate_across_folded_series(self, tmp_path):
        reg = MetricsRegistry(enabled=True)
        reg.declare_histogram("h", (1.0,))
        for i in range(MAX_SERIES_PER_METRIC):
            reg.observe("h", 0.5, worker=f"w{i}")
        reg.observe("h", 0.5, worker="xa")
        reg.observe("h", 0.5, worker="xb")
        histograms = self._round_trip(reg, tmp_path)
        overflow = histograms[series_key("h", {"overflow": "true"})]
        assert overflow["counts"] == [2, 0]
        assert overflow["count"] == 2
        assert overflow["sum"] == 1.0
        assert len(histograms) == MAX_SERIES_PER_METRIC + 1
