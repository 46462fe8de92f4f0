"""Human-readable telemetry summaries (``report --telemetry DIR``).

Turns a telemetry directory's manifest + metrics snapshot into the
terse operational overview an engineer actually wants after a run:
where the time went (span table), whether the caches worked (hit
rates), whether the run struggled (retries, faults, degraded cells),
and the paper-facing mitigation counters.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.manifest import RunManifest
from repro.obs.metrics import parse_series_key, series_key, snapshot_from_jsonl


def _counters_by_name(snapshot: dict) -> Dict[str, Dict[str, float]]:
    """``{metric name: {series key: value}}`` for all counters."""
    grouped: Dict[str, Dict[str, float]] = {}
    for key, value in snapshot.get("counters", {}).items():
        name, labels = parse_series_key(key)
        label = ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"
        grouped.setdefault(name, {})[label] = value
    return grouped


def _span_table(snapshot: dict) -> List[str]:
    rows = []
    for key, data in snapshot.get("histograms", {}).items():
        name, labels = parse_series_key(key)
        if name != "span.seconds" or "span" not in labels:
            continue
        count = data["count"]
        total = data["sum"]
        mean = total / count if count else 0.0
        rows.append((total, labels["span"], count, mean))
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
    retries = total("resilience.retries")
    faults = counters.get("resilience.faults", {})
    if retries or faults:
        packed = (
            "  ".join(f"{label}={int(v)}" for label, v in sorted(faults.items()))
            or "none"
        )
        lines.append(
            f"resilience: {int(retries)} retries,"
            f" {total('resilience.backoff_seconds'):.2f}s backoff, faults: {packed}"
        )
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
    window_hist = snapshot.get("histograms", {}).get(
        series_key("span.seconds", {"span": "sim.window"})
    )
    if sim_lines and window_hist and window_hist["sum"] > 0:
        lines.append(
            f"analyzer: {int(total('sim.windows'))} windows, {int(sim_lines):,} lines"
            f" ({sim_lines / window_hist['sum'] / 1e6:.1f} Mlines/s analyzed)"
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


__all__ = ["summarize_dir", "summarize_snapshot"]
