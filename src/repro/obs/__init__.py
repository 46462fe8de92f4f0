"""Campaign telemetry layer: metrics, spans, structured logs, manifests.

Spans and log records share one per-process event stream, the only
machine log a run keeps.

Quickstart::

    from repro import obs

    obs.configure(enabled=True, telemetry_dir="runs/today")
    manifest = obs.RunManifest.create("my-campaign", config={"scale": 0.2})

    with obs.TRACER.span("campaign.run"):
        records = campaign.run(workers=4)

    obs.write_telemetry(manifest=manifest)   # manifest.json, metrics.jsonl, ...
    print(obs.summarize_dir(obs.telemetry_dir()))

Everything is disabled by default and costs one boolean check per
instrumented call site; see docs/OBSERVABILITY.md for the metric
catalog, span hierarchy, and artifact formats.

The names below are served on first access (PEP 562), so a process
that only records telemetry never imports the schema catalog or the
summary renderer.
"""

import importlib

_MODULES = {
    "repro.obs.logs": ("NORMAL", "QUIET", "StructuredLogger"),
    "repro.obs.manifest": ("MANIFEST_SCHEMA_VERSION", "RunManifest", "git_sha"),
    "repro.obs.metrics": (
        "MAX_SERIES_PER_METRIC",
        "MetricsRegistry",
        "diff_snapshots",
        "filter_snapshot",
        "parse_series_key",
        "series_key",
        "snapshot_from_jsonl",
        "snapshot_to_jsonl",
    ),
    "repro.obs.runtime": (
        "LOGS",
        "METRICS",
        "TRACER",
        "apply_config",
        "configure",
        "enabled",
        "export_config",
        "get_logger",
        "reset",
        "run_id",
        "telemetry_dir",
        "write_telemetry",
    ),
    "repro.obs.schema": (
        "REQUIRED_CAMPAIGN_METRICS",
        "SEMANTIC_PREFIXES",
        "validate_manifest",
        "validate_snapshot",
        "validate_telemetry_dir",
    ),
    "repro.obs.summary": ("summarize_dir", "summarize_snapshot"),
    "repro.obs.tracing": ("SpanRecord", "Tracer"),
}
_SURFACE = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_SURFACE)


def __getattr__(name):
    module = _SURFACE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
