"""Unit tests: ``ServiceConfig`` rejects settings the scheduler cannot honour."""

import pytest

from repro.service import ServiceConfig


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"workers": 0}, "workers must be >= 1"),
        ({"lease_timeout_s": 0}, "must be positive"),
        ({"heartbeat_interval_s": -0.1}, "must be positive"),
        ({"max_pending_cells": 0}, "max_pending_cells"),
        # A beat no more often than the lease deadline lets a healthy
        # worker's lease expire between two heartbeats.
        ({"lease_timeout_s": 0.4}, "below the lease timeout"),
        ({"lease_timeout_s": 0.5, "heartbeat_interval_s": 0.5}, "below the lease timeout"),
    ],
)
def test_invalid_configs_rejected(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ServiceConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"workers": 1, "lease_timeout_s": 0.8, "heartbeat_interval_s": 0.15},
        {"lease_timeout_s": 0.51},
    ],
)
def test_valid_configs_accepted(kwargs):
    config = ServiceConfig(**kwargs)
    assert config.heartbeat_interval_s < config.lease_timeout_s
