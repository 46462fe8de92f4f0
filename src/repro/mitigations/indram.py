"""In-DRAM sampling trackers and their escape probability (§7.3).

DRAM vendors mitigate in-DRAM with severely area-limited trackers:
DDR4 TRR keeps a handful of entries, Samsung's DSAC adds stochastic
insert/replace, SK Hynix's PAT samples probabilistically.  The paper
cites their published escape rates (DSAC 13.9%, PAT 6.9% per mitigation
window) as the reason "in-DRAM mitigations cannot eliminate all forms of
Rowhammer attacks" (JEDEC) -- which is why the secure, controller-side
mitigations it builds on matter.

This module models that tracker class and measures escape probability
directly: the fraction of threshold-reaching aggressors that never get
tracked (and therefore whose victims are never refreshed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.mitigations.trackers import Tracker
from repro.obs.runtime import TRACER
from repro.utils.prng import SplitMix64


class InDRAMSamplingTracker(Tracker):
    """A DSAC-style stochastic tracker with a tiny entry table.

    On an activation of an untracked row, the row is inserted with
    probability ``sample_probability``; when the table is full it
    stochastically replaces the minimum-count entry (the DSAC insight:
    deterministic min-replacement is exploitable, so the replacement
    itself is randomized).

    Args:
        threshold: Activation count at which the victim refresh fires.
        num_entries: Table size (in-DRAM area limits this to a handful).
        sample_probability: Insert sampling rate.
        replace_probability: Chance a full-table insert evicts the
            current minimum entry.
        seed: Determinism seed.
    """

    def __init__(
        self,
        threshold: int,
        *,
        num_entries: int = 8,
        sample_probability: float = 0.3,
        replace_probability: float = 0.5,
        seed: int = 0xD5AC,
    ) -> None:
        super().__init__(threshold)
        if num_entries < 1:
            raise ValueError(f"num_entries must be >= 1, got {num_entries}")
        for name, value in (
            ("sample_probability", sample_probability),
            ("replace_probability", replace_probability),
        ):
            if not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        self.num_entries = num_entries
        self.sample_probability = sample_probability
        self.replace_probability = replace_probability
        self._rng = SplitMix64(seed)
        self.counts: Dict[int, int] = {}

    def _chance(self, probability: float) -> bool:
        return self._rng.next_bits(30) / float(1 << 30) < probability

    def observe(self, row_id: int) -> bool:
        count = self.counts.get(row_id)
        if count is not None:
            count += 1
            if count >= self.threshold:
                del self.counts[row_id]
                return True
            self.counts[row_id] = count
            return False
        if not self._chance(self.sample_probability):
            return False
        if len(self.counts) < self.num_entries:
            self.counts[row_id] = 1
            return self.threshold == 1
        if self._chance(self.replace_probability):
            victim = min(self.counts, key=self.counts.get)
            del self.counts[victim]
            self.counts[row_id] = 1
            return self.threshold == 1
        return False

    def reset(self) -> None:
        self.counts.clear()


@dataclass(frozen=True)
class EscapeReport:
    """Escape measurement for one tracker under one attack shape."""

    tracker: str
    aggressors: int
    trials: int
    escaped: int

    @property
    def escape_probability(self) -> float:
        total = self.aggressors * self.trials
        return self.escaped / total if total else 0.0


def measure_escape_probability(
    tracker_factory,
    *,
    aggressors: int = 16,
    activations_per_aggressor: int = 256,
    decoy_rows: int = 64,
    trials: int = 50,
    seed: int = 0xE5CA,
) -> EscapeReport:
    """Fraction of threshold-reaching aggressors a tracker never flags.

    Each trial interleaves ``aggressors`` rows (each activated well past
    the tracker threshold) with decoy traffic -- the TRRespass shape that
    defeats small trackers.  An aggressor 'escapes' if the tracker never
    triggered on it during the trial.
    """
    rng = SplitMix64(seed)
    escaped_total = 0
    name = None
    for trial in range(trials):
        tracker = tracker_factory()
        if name is None:
            name = type(tracker).__name__
        triggered: set = set()
        schedule: List[int] = []
        for round_index in range(activations_per_aggressor):
            for aggressor in range(aggressors):
                schedule.append(aggressor)
                # One decoy between aggressor activations.
                schedule.append(aggressors + int(rng.next_below(decoy_rows)))
        for row in schedule:
            if tracker.observe(row) and row < aggressors:
                triggered.add(row)
        escaped_total += aggressors - len(triggered)
    return EscapeReport(
        tracker=name or "tracker",
        aggressors=aggressors,
        trials=trials,
        escaped=escaped_total,
    )


def compare_trackers(
    threshold: int, factories: Sequence, labels: Sequence[str], **kwargs
) -> List[EscapeReport]:
    """Escape reports for several trackers under the same attack shape."""
    if len(factories) != len(labels):
        raise ValueError("factories and labels must align")
    reports = []
    for factory, label in zip(factories, labels):
        with TRACER.span("mitigation.escape", tracker=label):
            report = measure_escape_probability(factory, **kwargs)
        reports.append(
            EscapeReport(
                tracker=label,
                aggressors=report.aggressors,
                trials=report.trials,
                escaped=report.escaped,
            )
        )
    return reports


__all__ = [
    "InDRAMSamplingTracker",
    "EscapeReport",
    "measure_escape_probability",
    "compare_trackers",
]
