"""Unit tests for the in-DRAM sampling trackers."""

import pytest

from repro.mitigations.indram import (
    InDRAMSamplingTracker,
    compare_trackers,
    measure_escape_probability,
)
from repro.mitigations.trackers import MisraGriesTracker, PerRowTracker


class TestInDRAMSamplingTracker:
    def test_tracked_row_triggers_at_threshold(self):
        tracker = InDRAMSamplingTracker(threshold=5, sample_probability=1.0)
        fired = [tracker.observe(7) for _ in range(5)]
        assert fired == [False, False, False, False, True]

    def test_sampling_misses_some_rows(self):
        tracker = InDRAMSamplingTracker(
            threshold=4, num_entries=2, sample_probability=0.05, seed=3
        )
        # A single burst of 10 activations is often never sampled.
        fired = any(tracker.observe(42) for _ in range(10))
        # Either outcome is legal; the tracker must at least not crash
        # and must keep its table bounded.
        assert len(tracker.counts) <= 2
        assert fired in (True, False)

    def test_table_bounded(self):
        tracker = InDRAMSamplingTracker(threshold=100, num_entries=4, sample_probability=1.0)
        for row in range(50):
            tracker.observe(row)
        assert len(tracker.counts) <= 4

    def test_reset(self):
        tracker = InDRAMSamplingTracker(threshold=5, sample_probability=1.0)
        tracker.observe(1)
        tracker.reset()
        assert not tracker.counts

    def test_validation(self):
        with pytest.raises(ValueError):
            InDRAMSamplingTracker(threshold=5, num_entries=0)
        with pytest.raises(ValueError):
            InDRAMSamplingTracker(threshold=5, sample_probability=0.0)


class TestEscapeProbability:
    def test_ideal_tracker_never_escapes(self):
        report = measure_escape_probability(
            lambda: PerRowTracker(threshold=64), trials=5
        )
        assert report.escape_probability == 0.0

    def test_tiny_sampling_tracker_escapes_like_published(self):
        # DSAC 13.9% / PAT 6.9%: an area-limited sampling tracker under a
        # many-sided pattern lands in the single-to-double-digit percent
        # escape regime.
        report = measure_escape_probability(
            lambda: InDRAMSamplingTracker(
                threshold=64, num_entries=16, sample_probability=0.3, seed=9
            ),
            aggressors=16,
            trials=20,
        )
        assert 0.02 < report.escape_probability < 0.4

    def test_bigger_table_escapes_less(self):
        small = measure_escape_probability(
            lambda: InDRAMSamplingTracker(
                threshold=64, num_entries=2, sample_probability=0.1, seed=5
            ),
            trials=15,
        )
        large = measure_escape_probability(
            lambda: InDRAMSamplingTracker(
                threshold=64, num_entries=32, sample_probability=0.5, seed=5
            ),
            trials=15,
        )
        assert large.escape_probability <= small.escape_probability

    def test_compare_trackers(self):
        reports = compare_trackers(
            64,
            [
                lambda: PerRowTracker(threshold=64),
                lambda: MisraGriesTracker(threshold=64, num_counters=64),
            ],
            ["ideal", "misra-gries-64"],
            trials=5,
        )
        assert [r.tracker for r in reports] == ["ideal", "misra-gries-64"]
        assert reports[0].escape_probability == 0.0
        assert reports[1].escape_probability == 0.0  # guaranteed tracking

    def test_compare_validation(self):
        with pytest.raises(ValueError):
            compare_trackers(64, [lambda: PerRowTracker(64)], ["a", "b"])
