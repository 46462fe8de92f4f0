"""Experiment registry: id -> runner.

The experiment modules register themselves when imported; the registry
imports them on the first lookup, so a process that never looks an
experiment up never loads one.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List


@dataclass(frozen=True)
class ExperimentEntry:
    """A registered experiment."""

    experiment_id: str
    title: str
    runner: Callable
    default_scale: float


#: Every ``repro.experiments`` module that calls :func:`register`.
EXPERIMENT_MODULES = (
    "ablations",
    "actdist",
    "discussion",
    "fig1",
    "fig3",
    "fig4",
    "fig7",
    "fig8",
    "fig9",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "indram_escape",
    "mixes",
    "power",
    "rowbuffer",
    "table2",
    "table3",
    "table4",
    "table5",
    "victim_refresh",
)

_REGISTRY: Dict[str, ExperimentEntry] = {}


def _load() -> None:
    """Import every experiment module (a no-op once imported), registering them."""
    for name in EXPERIMENT_MODULES:
        importlib.import_module(f"repro.experiments.{name}")


def register(experiment_id: str, title: str, *, default_scale: float = 0.5):
    """Decorator registering an experiment runner.

    The runner signature is ``runner(scale: float, **kwargs) ->
    ExperimentResult``.
    """

    def decorator(func: Callable) -> Callable:
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id '{experiment_id}'")
        _REGISTRY[experiment_id] = ExperimentEntry(
            experiment_id=experiment_id,
            title=title,
            runner=func,
            default_scale=default_scale,
        )
        return func

    return decorator


def get_experiment(experiment_id: str) -> ExperimentEntry:
    """Look up an experiment by id."""
    _load()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment '{experiment_id}'; known: {known}") from None


def list_experiments() -> List[ExperimentEntry]:
    """All registered experiments, sorted by id."""
    _load()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


__all__ = ["ExperimentEntry", "register", "get_experiment", "list_experiments"]
