"""Unit tests for the metrics registry and its snapshot machinery."""

import json

import pytest

from repro.obs.metrics import (
    MAX_SERIES_PER_METRIC,
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
        reg.inc("span.seconds", 0.5, span="x")
        snap = reg.snapshot()
        assert snap == {"counters": {}}

    def test_counter_accumulates_with_labels(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("cache.requests", result="hit")
        reg.inc("cache.requests", 2, result="hit")
        reg.inc("cache.requests", result="miss")
        assert reg.counter_value("cache.requests", result="hit") == 3
        assert reg.counter_value("cache.requests", result="miss") == 1
        assert reg.counter_total("cache.requests") == 4

    def test_absent_series_defaults(self):
        reg = MetricsRegistry(enabled=True)
        assert reg.counter_value("nope") == 0
        assert reg.counter_total("nope") == 0


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
    def test_merge_adds_counters(self):
        a = MetricsRegistry(enabled=True)
        b = MetricsRegistry(enabled=True)
        for reg in (a, b):
            reg.inc("campaign.cells", status="ok")
            reg.inc("span.seconds", 0.25, span="x")
        b.inc("cache.evictions", 7)
        a.merge(b.snapshot())
        assert a.counter_value("campaign.cells", status="ok") == 2
        assert a.counter_value("span.seconds", span="x") == 0.5
        assert a.counter_value("cache.evictions") == 7

    def test_merge_ignores_enabled_flag(self):
        parent = MetricsRegistry(enabled=False)
        parent.merge({"counters": {"campaign.cells|status=ok": 3}})
        assert parent.counter_value("campaign.cells", status="ok") == 3

    def test_diff_is_the_cells_contribution(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("campaign.cells", status="ok")
        reg.inc("span.seconds", 0.1, span="x")
        reg.inc("span.seconds", 0.2, span="idle")
        before = reg.snapshot()
        reg.inc("campaign.cells", status="ok")
        reg.inc("campaign.activations", 100)
        reg.inc("span.seconds", 0.3, span="x")
        delta = diff_snapshots(reg.snapshot(), before)
        assert set(delta) == {"counters"}
        assert delta["counters"] == {
            "campaign.cells|status=ok": 1,
            "campaign.activations": 100,
            "span.seconds|span=x": pytest.approx(0.3),
        }

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
            serial.inc("span.seconds", 0.1 * (cell + 1), span="campaign.cell")
            before = worker.snapshot()
            worker.inc("campaign.cells", status="ok")
            worker.inc("span.seconds", 0.1 * (cell + 1), span="campaign.cell")
            parent.merge(diff_snapshots(worker.snapshot(), before))
        assert parent.snapshot() == serial.snapshot()


class TestExporters:
    def _populated(self):
        reg = MetricsRegistry(enabled=True)
        reg.inc("campaign.cells", 3, status="ok")
        reg.inc("cache.evictions", 4)
        reg.inc("span.seconds", 0.02, span="sim.window")
        return reg.snapshot()

    def test_jsonl_round_trip(self, tmp_path):
        snap = self._populated()
        path = tmp_path / "metrics.jsonl"
        path.write_text("\n".join(snapshot_to_jsonl(snap)) + "\n")
        assert snapshot_from_jsonl(path) == snap

    def test_jsonl_lines_are_valid_json(self):
        for line in snapshot_to_jsonl(self._populated()):
            entry = json.loads(line)
            assert entry["kind"] == "counter"

    def test_filter_snapshot_by_prefix(self):
        snap = self._populated()
        semantic = filter_snapshot(snap, ("campaign.",))
        assert semantic == {"counters": {"campaign.cells|status=ok": 3}}


class TestOverflowFold:
    """Counters stay sound once the series cap folds labels, in the
    snapshot and through the JSONL artifact."""

    @staticmethod
    def _round_trip(reg, tmp_path):
        snap = reg.snapshot()
        path = tmp_path / "metrics.jsonl"
        path.write_text("\n".join(snapshot_to_jsonl(snap)) + "\n")
        assert snapshot_from_jsonl(path) == snap
        return snap["counters"]

    def test_span_seconds_fold_into_overflow_series(self, tmp_path):
        reg = MetricsRegistry(enabled=True)
        for i in range(MAX_SERIES_PER_METRIC):
            reg.inc("span.seconds", 0.5, span=f"s{i}")
        # Past the cap: these durations fold into overflow="true".
        for value in (0.5, 1.5, 5.0):
            reg.inc("span.seconds", value, span="one-too-many")
        counters = self._round_trip(reg, tmp_path)
        assert counters[series_key("span.seconds", {"overflow": "true"})] == 7.0
        # Pre-cap series keep their own totals.
        assert counters[series_key("span.seconds", {"span": "s0"})] == 0.5
        assert not any("one-too-many" in key for key in counters)

    def test_overflow_counts_accumulate_across_folded_series(self, tmp_path):
        reg = MetricsRegistry(enabled=True)
        for i in range(MAX_SERIES_PER_METRIC):
            reg.inc("h", worker=f"w{i}")
        reg.inc("h", worker="xa")
        reg.inc("h", worker="xb")
        counters = self._round_trip(reg, tmp_path)
        assert counters[series_key("h", {"overflow": "true"})] == 2
        assert len(counters) == MAX_SERIES_PER_METRIC + 1
