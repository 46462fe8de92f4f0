"""Fixtures shared by the integration tests."""

import os
import time

import pytest

from repro.experiments.campaign import Campaign


@pytest.fixture
def lbm_kills_pool_workers(monkeypatch):
    """Make every forked pool worker die hard on its first ``lbm`` cell.

    The parent process runs ``lbm`` cells normally.  ``monkeypatch.undo()``
    lifts the fault for the rest of the test.
    """
    parent = os.getpid()
    real_run_cell = Campaign._run_cell

    def run_cell(self, sim, workload, *args):
        if workload == "lbm" and os.getpid() != parent:
            time.sleep(0.5)  # let the other completions reach the parent first
            os._exit(9)
        return real_run_cell(self, sim, workload, *args)

    monkeypatch.setattr(Campaign, "_run_cell", run_cell)
