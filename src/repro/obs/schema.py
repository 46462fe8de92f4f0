"""Telemetry schema: the metric-name catalog and validators.

Every metric the instrumented stack may emit is declared here with its
kind and allowed label keys; ``scripts/validate_telemetry.py`` (wired
into ``ci_tier1.sh``) fails a run that emits an unknown metric name, an
undeclared label key, a kind mismatch, or that is *missing* a required
metric -- so instrumentation and catalog cannot silently drift apart.

Two determinism families are distinguished (see docs/OBSERVABILITY.md):

* **semantic** -- derived from per-cell simulation results; totals are
  identical between a serial and a process-pool run of the same grid
  (``campaign.*``, ``mitigation.*``, ``resilience.*``);
* **operational** -- depend on process topology and cache locality
  (``cache.*``, ``sim.*``, ``span.*``, ``parallel.*``, ``trace.*``,
  ``runner.*``); they describe *how* the run executed, not what it
  computed.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Union

from repro.obs.metrics import parse_series_key

#: Label key the registry substitutes past the cardinality cap; always
#: legal on any metric.
OVERFLOW_LABEL = "overflow"

#: kind is "counter" | "gauge" | "histogram"; labels are the allowed keys.
METRICS: Dict[str, dict] = {
    # -- stats cache (operational) -------------------------------------
    "cache.requests": {"kind": "counter", "labels": {"result"}},
    "cache.evictions": {"kind": "counter", "labels": set()},
    "cache.disk_bytes_written": {"kind": "counter", "labels": set()},
    "cache.disk_bytes_read": {"kind": "counter", "labels": set()},
    "cache.entries": {"kind": "gauge", "labels": set()},
    "cache.corrupt": {"kind": "counter", "labels": set()},
    # -- resilient executor (semantic) ---------------------------------
    "resilience.retries": {"kind": "counter", "labels": set()},
    "resilience.infra_retries": {"kind": "counter", "labels": set()},
    "resilience.backoff_seconds": {"kind": "counter", "labels": set()},
    "resilience.faults": {"kind": "counter", "labels": {"class"}},
    "resilience.cells": {"kind": "counter", "labels": {"status"}},
    "resilience.journal.truncated": {"kind": "counter", "labels": set()},
    # -- campaign cells (semantic) -------------------------------------
    "campaign.cells": {"kind": "counter", "labels": {"status"}},
    "campaign.activations": {"kind": "counter", "labels": set()},
    "campaign.mitigations": {"kind": "counter", "labels": {"scheme"}},
    "campaign.remap_swaps": {"kind": "counter", "labels": set()},
    # -- mitigation model (semantic) -----------------------------------
    "mitigation.invocations": {"kind": "counter", "labels": {"scheme"}},
    "mitigation.throttled_activations": {"kind": "counter", "labels": {"scheme"}},
    # -- simulator / analyzer (operational) ----------------------------
    "sim.windows": {"kind": "counter", "labels": {"mode"}},
    "sim.lines": {"kind": "counter", "labels": set()},
    "sim.activations": {"kind": "counter", "labels": set()},
    "trace.generated": {"kind": "counter", "labels": {"workload"}},
    # -- process pool (operational) ------------------------------------
    "parallel.workers": {"kind": "gauge", "labels": set()},
    "parallel.queue_depth": {"kind": "gauge", "labels": set()},
    "parallel.completions": {"kind": "counter", "labels": set()},
    "parallel.worker_heartbeat": {"kind": "gauge", "labels": {"worker"}},
    # -- playbook compiler / sweep fuzzer (operational) ----------------
    "playbook.compiled": {"kind": "counter", "labels": {"pattern"}},
    "fuzz.cells": {"kind": "counter", "labels": {"result"}},
    "fuzz.probes": {"kind": "counter", "labels": set()},
    # -- experiment runner (operational) -------------------------------
    "runner.experiments": {"kind": "counter", "labels": {"status"}},
    # -- tracer aggregates (operational) -------------------------------
    "span.count": {"kind": "counter", "labels": {"span", "status"}},
    "span.seconds": {"kind": "histogram", "labels": {"span"}},
}

#: Metric names whose totals must be identical between serial and
#: process-pool runs of the same grid (same seed).
SEMANTIC_PREFIXES = ("campaign.", "mitigation.", "resilience.")

#: Metrics a telemetry-enabled campaign run must have emitted -- CI's
#: "did the instrumentation actually fire" floor.
REQUIRED_CAMPAIGN_METRICS = (
    "cache.requests",
    "campaign.cells",
    "mitigation.invocations",
    "resilience.cells",
    "sim.windows",
    "span.count",
    "span.seconds",
)

#: Span names the tracer may emit (the hierarchy is documented in
#: docs/OBSERVABILITY.md).
SPAN_NAMES = {
    "campaign.run",
    "campaign.cell",
    "runner.experiment",
    "sim.window",
    "sim.translate",
    "sim.analyze",
    "sim.mitigation",
    "sim.event_model",
    "mitigation.escape",
    "analysis.line_table",
    "trace.gen",
    "trace.fingerprint",
    "fuzz.sweep",
    "fuzz.bisect",
}

#: ``profile-<span>-<pid>.collapsed`` (see :mod:`repro.obs.profile`).
_PROFILE_NAME = re.compile(r"profile-(.+)-(\d+)\.collapsed")

#: Required top-level keys of a run manifest.
MANIFEST_REQUIRED_KEYS = (
    "schema_version",
    "command",
    "run_id",
    "argv",
    "started_at",
    "finished_at",
    "duration_s",
    "platform",
    "packages",
    "config",
    "metrics",
)


# ---------------------------------------------------------------------------
def validate_snapshot(
    snapshot: dict, *, required: Iterable[str] = ()
) -> List[str]:
    """Check a metrics snapshot against the catalog; returns error strings.

    Flags unknown metric names, label keys not declared for the metric,
    kind mismatches, and required metrics that never fired.
    """
    errors: List[str] = []
    seen: Set[str] = set()
    for kind, section in (
        ("counter", snapshot.get("counters", {})),
        ("gauge", snapshot.get("gauges", {})),
        ("histogram", snapshot.get("histograms", {})),
    ):
        for key in section:
            name, labels = parse_series_key(key)
            seen.add(name)
            spec = METRICS.get(name)
            if spec is None:
                errors.append(f"unknown metric name '{name}' (series '{key}')")
                continue
            if spec["kind"] != kind:
                errors.append(
                    f"metric '{name}' is declared {spec['kind']} but appeared as {kind}"
                )
            allowed = spec["labels"] | {OVERFLOW_LABEL}
            for label_key in labels:
                if label_key not in allowed:
                    errors.append(
                        f"metric '{name}' has undeclared label key '{label_key}'"
                    )
    for name in required:
        if name not in METRICS:
            errors.append(f"required metric '{name}' is not in the catalog")
        elif name not in seen:
            errors.append(f"required metric '{name}' was never emitted")
    return errors


def validate_manifest(data: dict) -> List[str]:
    """Check one parsed ``manifest.json``; returns error strings."""
    errors: List[str] = []
    for key in MANIFEST_REQUIRED_KEYS:
        if key not in data:
            errors.append(f"manifest missing required key '{key}'")
    version = data.get("schema_version")
    if version is not None and version != 1:
        errors.append(f"unsupported manifest schema_version {version}")
    if data.get("finished_at") is None:
        errors.append("manifest was never finalized (finished_at is null)")
    duration = data.get("duration_s")
    if duration is not None and duration < 0:
        errors.append(f"manifest duration_s is negative ({duration})")
    metrics = data.get("metrics")
    if isinstance(metrics, dict):
        errors.extend(validate_snapshot(metrics))
    return errors


def validate_events_lines(lines: Iterable[str], *, source: str = "events") -> List[str]:
    """Check a JSONL event stream (spans + logs); returns error strings.

    One events file belongs to exactly one (run, process): events are
    stamped with the run id that keyed the filename, so two run ids in
    one file mean interleaved unrelated streams (the historic
    pid-collision bug) and fail validation.
    """
    errors: List[str] = []
    runs_seen: Set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            errors.append(f"{source}:{lineno}: not valid JSON")
            continue
        run = event.get("run")
        if run is not None:
            run = str(run)
            if runs_seen and run not in runs_seen:
                errors.append(
                    f"{source}:{lineno}: mixed run ids in one events file"
                    f" ({', '.join(sorted(runs_seen | {run}))})"
                )
            runs_seen.add(run)
        kind = event.get("type")
        if kind == "span":
            for key in ("name", "path", "duration_s", "status", "ts"):
                if key not in event:
                    errors.append(f"{source}:{lineno}: span event missing '{key}'")
            name = event.get("name")
            if name is not None and name not in SPAN_NAMES:
                errors.append(f"{source}:{lineno}: unknown span name '{name}'")
            if event.get("duration_s", 0) < 0:
                errors.append(f"{source}:{lineno}: negative span duration")
        elif kind == "log":
            for key in ("ts", "level", "logger", "event"):
                if key not in event:
                    errors.append(f"{source}:{lineno}: log event missing '{key}'")
        else:
            errors.append(f"{source}:{lineno}: unknown event type {kind!r}")
    return errors


def validate_telemetry_dir(
    directory: Union[str, Path],
    *,
    required: Optional[Iterable[str]] = REQUIRED_CAMPAIGN_METRICS,
) -> List[str]:
    """Validate a whole telemetry directory; returns error strings.

    Expects ``manifest.json`` and ``metrics.jsonl`` plus zero or more
    ``events-*.jsonl`` files (one per (run, process) that emitted
    events) and ``profile-<span>-<pid>.collapsed`` files (one per
    sampled span name per process; the span must be in
    :data:`SPAN_NAMES`).
    """
    from repro.obs.metrics import snapshot_from_jsonl

    directory = Path(directory)
    errors: List[str] = []
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        errors.append(f"missing {manifest_path.name}")
    else:
        try:
            errors.extend(validate_manifest(json.loads(manifest_path.read_text())))
        except (json.JSONDecodeError, OSError) as error:
            errors.append(f"{manifest_path.name}: unreadable ({error})")
    metrics_path = directory / "metrics.jsonl"
    if not metrics_path.exists():
        errors.append(f"missing {metrics_path.name}")
    else:
        try:
            snapshot = snapshot_from_jsonl(metrics_path)
        except (ValueError, KeyError, json.JSONDecodeError) as error:
            errors.append(f"{metrics_path.name}: malformed ({error})")
        else:
            errors.extend(validate_snapshot(snapshot, required=tuple(required or ())))
    for events_path in sorted(directory.glob("events-*.jsonl")):
        errors.extend(
            validate_events_lines(
                events_path.read_text().splitlines(), source=events_path.name
            )
        )
    for profile_path in sorted(directory.glob("profile-*.collapsed")):
        match = _PROFILE_NAME.fullmatch(profile_path.name)
        if match is None or match.group(1) not in SPAN_NAMES:
            errors.append(f"{profile_path.name}: not profile-<declared span>-<pid>.collapsed")
        for lineno, line in enumerate(profile_path.read_text().splitlines(), start=1):
            stack, _, count = line.rpartition(" ")
            if not stack or not count.isdigit():
                errors.append(f"{profile_path.name}:{lineno}: not a 'stack count' line")
    return errors


__all__ = [
    "MANIFEST_REQUIRED_KEYS",
    "METRICS",
    "OVERFLOW_LABEL",
    "REQUIRED_CAMPAIGN_METRICS",
    "SEMANTIC_PREFIXES",
    "SPAN_NAMES",
    "validate_events_lines",
    "validate_manifest",
    "validate_snapshot",
    "validate_telemetry_dir",
]
