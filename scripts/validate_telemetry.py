#!/usr/bin/env python3
"""Validate a telemetry directory against the metric/manifest schema.

CI runs this after a telemetry-enabled ``scripts/parallel_smoke.py``:
the manifest must be complete and finalized, every emitted metric name,
label key, and kind must match the catalog in ``repro.obs.schema``, the
required campaign metrics must actually have fired, every span
event must use a declared span name, and every
``profile-<span>-<pid>.collapsed`` file must name a declared span and
hold only ``stack count`` lines.  Instrumentation and catalog
therefore cannot drift apart silently.

Usage:  python scripts/validate_telemetry.py DIR [--no-required]
Exit status 0 when the directory validates, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.schema import REQUIRED_CAMPAIGN_METRICS, validate_telemetry_dir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", help="telemetry directory to validate")
    parser.add_argument(
        "--no-required",
        action="store_true",
        help="skip the required-campaign-metrics check (schema check only)",
    )
    args = parser.parse_args(argv)
    required = () if args.no_required else REQUIRED_CAMPAIGN_METRICS
    errors = validate_telemetry_dir(args.directory, required=required)
    if errors:
        for error in errors:
            print(f"FAIL: {error}", file=sys.stderr)
        return 1
    print(f"OK: telemetry in {args.directory} validates against the schema")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
