"""Campaign telemetry layer: metrics, spans, structured logs, manifests.

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

Beyond the post-run artifacts, :data:`PROFILER` samples collapsed
stacks around the hot kernels when ``REPRO_PROFILE`` is set.
"""

from repro.obs.logs import NORMAL, QUIET, VERBOSE, StructuredLogger
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, RunManifest, git_sha
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    MAX_SERIES_PER_METRIC,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    filter_snapshot,
    parse_series_key,
    series_key,
    snapshot_from_jsonl,
    snapshot_to_jsonl,
    snapshot_to_prometheus,
)
from repro.obs.profile import PROFILER, SamplingProfiler, profiling_enabled
from repro.obs.runtime import (
    LOGS,
    METRICS,
    RUN_ID_ENV,
    TELEMETRY_DIR_ENV,
    TELEMETRY_ENV,
    TRACER,
    apply_config,
    configure,
    enabled,
    export_config,
    get_logger,
    heartbeat,
    reset,
    run_id,
    telemetry_dir,
    write_telemetry,
)
from repro.obs.schema import (
    REQUIRED_CAMPAIGN_METRICS,
    SEMANTIC_PREFIXES,
    validate_manifest,
    validate_snapshot,
    validate_telemetry_dir,
)
from repro.obs.summary import summarize_dir, summarize_snapshot
from repro.obs.tracing import SpanRecord, Tracer

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "Histogram",
    "LOGS",
    "MANIFEST_SCHEMA_VERSION",
    "MAX_SERIES_PER_METRIC",
    "METRICS",
    "MetricsRegistry",
    "NORMAL",
    "PROFILER",
    "QUIET",
    "REQUIRED_CAMPAIGN_METRICS",
    "RUN_ID_ENV",
    "RunManifest",
    "SEMANTIC_PREFIXES",
    "SamplingProfiler",
    "SpanRecord",
    "StructuredLogger",
    "TELEMETRY_DIR_ENV",
    "TELEMETRY_ENV",
    "TRACER",
    "Tracer",
    "VERBOSE",
    "apply_config",
    "configure",
    "diff_snapshots",
    "enabled",
    "export_config",
    "filter_snapshot",
    "get_logger",
    "git_sha",
    "heartbeat",
    "parse_series_key",
    "profiling_enabled",
    "reset",
    "run_id",
    "series_key",
    "snapshot_from_jsonl",
    "snapshot_to_jsonl",
    "snapshot_to_prometheus",
    "summarize_dir",
    "summarize_snapshot",
    "telemetry_dir",
    "validate_manifest",
    "validate_snapshot",
    "validate_telemetry_dir",
]
