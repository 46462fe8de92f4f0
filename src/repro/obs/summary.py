"""Human-readable telemetry summaries (``report --telemetry DIR``).

Turns a telemetry directory's manifest + metrics snapshot into the
terse operational overview an engineer actually wants after a run:
where the time went (span table), whether the caches worked (hit
rates), whether the run struggled (faults, degraded cells),
and the paper-facing mitigation counters.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.manifest import RunManifest
from repro.obs.metrics import parse_series_key, snapshot_from_jsonl


def _counters_by_name(snapshot: dict) -> Dict[str, Dict[str, float]]:
    """``{metric name: {series key: value}}`` for all counters."""
    grouped: Dict[str, Dict[str, float]] = {}
    for key, value in snapshot.get("counters", {}).items():
        name, labels = parse_series_key(key)
        label = ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"
        grouped.setdefault(name, {})[label] = value
    return grouped


def span_totals(snapshot: dict) -> Dict[str, Dict[str, float]]:
    """``{"span.count": {span: n}, "span.seconds": {span: s}}`` over all statuses."""
    totals: Dict[str, Dict[str, float]] = {"span.count": {}, "span.seconds": {}}
    for key, value in snapshot.get("counters", {}).items():
        name, labels = parse_series_key(key)
        if name in totals and "span" in labels:
            by_span = totals[name]
            by_span[labels["span"]] = by_span.get(labels["span"], 0) + value
    return totals


def _span_table(snapshot: dict) -> List[str]:
    """One row per span name: ``span.count`` and ``span.seconds``."""
    totals = span_totals(snapshot)
    rows = []
    for span, total in totals["span.seconds"].items():
        count = int(totals["span.count"].get(span, 0))
        rows.append((total, span, count, total / count if count else 0.0))
    if not rows:
        return ["  (no spans recorded)"]
    rows.sort(reverse=True)
    lines = [f"  {'span':<20} {'count':>8} {'total s':>10} {'mean s':>10}"]
    for total, span, count, mean in rows:
        lines.append(f"  {span:<20} {count:>8} {total:>10.3f} {mean:>10.4f}")
    return lines


def summarize_snapshot(snapshot: dict, *, manifest: Optional[RunManifest] = None) -> str:
    """Render one metrics snapshot (optionally with its manifest)."""
    lines: List[str] = []
    if manifest is not None:
        lines.append(f"run {manifest.run_id}  ({manifest.command})")
        duration = (
            f"{manifest.duration_s:.1f}s" if manifest.duration_s is not None else "?"
        )
        lines.append(
            f"  started {manifest.started_at}  duration {duration}"
            f"  git {manifest.git_sha or 'n/a'}"
        )
        packages = ", ".join(f"{k} {v}" for k, v in sorted(manifest.packages.items()))
        if packages:
            lines.append(f"  {packages}")
        lines.append("")
    counters = _counters_by_name(snapshot)

    def total(name: str) -> float:
        return sum(counters.get(name, {}).values())

    cells = counters.get("campaign.cells", {})
    if cells:
        packed = "  ".join(f"{label}={int(v)}" for label, v in sorted(cells.items()))
        lines.append(f"campaign cells: {packed}")
    experiments = counters.get("runner.experiments", {})
    if experiments:
        packed = "  ".join(
            f"{label}={int(v)}" for label, v in sorted(experiments.items())
        )
        lines.append(f"experiments: {packed}")
    hits = counters.get("cache.requests", {})
    if hits:
        requests = sum(hits.values())
        in_memory = hits.get("result=hit", 0)
        disk = hits.get("result=disk_hit", 0)
        rate = (in_memory + disk) / requests if requests else 0.0
        lines.append(
            f"stats cache: {int(requests)} requests, hit rate {rate:.1%}"
            f" (memory {int(in_memory)}, disk {int(disk)},"
            f" misses {int(hits.get('result=miss', 0))})"
        )
    faults = counters.get("resilience.faults", {})
    if faults:
        packed = "  ".join(f"{label}={int(v)}" for label, v in sorted(faults.items()))
        lines.append(f"resilience faults: {packed}")
    mitigations = counters.get("mitigation.invocations", {})
    if mitigations:
        packed = "  ".join(
            f"{label.removeprefix('scheme=')}={int(v)}"
            for label, v in sorted(mitigations.items())
        )
        lines.append(f"mitigation invocations: {packed}")
    swaps = total("campaign.remap_swaps")
    if swaps:
        lines.append(f"rubix-d remap swaps: {int(swaps)}")
    sim_lines = total("sim.lines")
    window_s = counters.get("span.seconds", {}).get("span=sim.window", 0)
    if sim_lines and window_s > 0:
        lines.append(
            f"analyzer: {int(total('sim.windows'))} windows, {int(sim_lines):,} lines"
            f" ({sim_lines / window_s / 1e6:.1f} Mlines/s analyzed)"
        )
    lines.append("")
    lines.append("where the time went:")
    lines.extend(_span_table(snapshot))
    return "\n".join(lines)


def summarize_dir(directory: Union[str, Path]) -> str:
    """Summarize a telemetry directory (manifest.json + metrics.jsonl).

    Raises:
        FileNotFoundError: ``metrics.jsonl`` is absent.
    """
    directory = Path(directory)
    metrics_path = directory / "metrics.jsonl"
    if not metrics_path.exists():
        raise FileNotFoundError(f"no metrics.jsonl in {directory}")
    snapshot = snapshot_from_jsonl(metrics_path)
    manifest = None
    manifest_path = directory / "manifest.json"
    if manifest_path.exists():
        try:
            manifest = RunManifest.load(manifest_path)
        except ValueError:
            manifest = None
    return summarize_snapshot(snapshot, manifest=manifest)


__all__ = ["span_totals", "summarize_dir", "summarize_snapshot"]
