#!/usr/bin/env bash
# Tier-1 verification with hang protection.
#
# Stage 1 runs the repo's tier-1 test command (see ROADMAP.md), which
# includes the import-graph guards of tests/unit/test_import_graph.py
# (among them: every name in repro.errors.__all__ is used by another
# module under src/repro, so a dead error type fails CI; and every
# private function, method or class under src/repro is named somewhere
# else under src/repro, so dead code or a test-only oracle left in src/
# fails CI -- oracles live in tests/oracles); stage 2
# smoke-tests the parallel campaign engine (tiny grid, workers=2,
# crash + journal-resume check -- scripts/parallel_smoke.py); stage 3
# runs the `serve` subcommand on a tiny campaign spec over the process
# pool (--workers 2, with a checkpoint journal, --stats-cache and
# --telemetry-dir), validates the emitted manifest, metric snapshot and
# per-process event streams against the schema catalog
# (scripts/validate_telemetry.py), so instrumentation and catalog
# cannot drift apart, then renders the run with `report --telemetry`
# and fails unless its span table has a sim.window row (the workers'
# windows, merged back) and a campaign.run row (the pool run's own span
# in the parent), then reruns the same spec with --workers 1 against the
# same journal and fails unless it logs "0 computed" (a pool-written
# journal replayed by the in-process source of Campaign.run's one
# loop); stage 3b runs every examples/*.py script and fails on
# a non-zero exit, so the documented entry points keep working (about
# 20 s, most of it attack_analysis.py's detailed-model replay);
# stage 4 gates the published numbers byte for byte (runs the full
# paper suite serially via scripts/run_paper_suite.py with
# --telemetry-dir and diffs its output against results_paper_suite.txt,
# ignoring only the "[... finished in Ns]" timing lines, then prints the
# suite.done record of its event stream -- wall time, peak RSS and the
# megabytes its stats and trace caches hold -- as an advisory, and
# validates the suite's telemetry, span names and metrics included,
# against the schema catalog with validate_telemetry.py --no-required);
# stage 5 runs the repository
# benchmark's correctness gate (bench/run.py --quick --seconds 0: every
# workload's digests must equal bench/expected.json and no cell may
# fail -- timings are printed but not gated), then prints an advisory
# cold-start line: a fresh interpreter imports repro.experiments.campaign
# and reports the import seconds and the number of repro modules loaded
# (not gated; tests/unit/test_import_graph.py bounds the module count),
# an advisory trace set-up line: the seconds to generate one seed's 18
# scale-0.05 SPEC traces and write them with save_trace_raw, which is
# what the mitigation-grid benchmark's set-up repeats per seed (not
# gated), an advisory window-working-set line: the traced (tracemalloc)
# peak of one uncached 1M-line Rubix-S GS1 window in bytes per line (not
# gated; tests/unit/test_window_working_set.py bounds it), next to it an
# advisory file-window line for what tracemalloc cannot see: the VmHWM
# growth and the resident MB of the .rtr file's own mapping after one
# uncached Coffee Lake window over the saved scale-0.05 lbm trace (not
# gated; tests/unit/test_window_page_release.py bounds the resident
# pages), and an
# advisory `src/repro lines=N` line: the Python source lines under
# src/repro, so a change's net source delta is the difference between
# two CI logs (not gated).
# All run under a hard wall-clock ceiling, so a wedged simulation fails
# CI instead of stalling it.  Per-test timeouts come from [tool.pytest.ini_options]
# in pyproject.toml (pytest-timeout, or the conftest SIGALRM fallback);
# this wrapper bounds each whole stage.
#
# Usage: scripts/ci_tier1.sh [extra pytest args...]
#   CI_TIER1_TIMEOUT=seconds   pytest stage budget (default 1800)
#   CI_SMOKE_TIMEOUT=seconds   parallel smoke budget (default 300,
#                              also used by the serve stage and by
#                              each example script)
#   CI_BENCH_TIMEOUT=seconds   repository benchmark gate budget
#                              (default 300)
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET="${CI_TIER1_TIMEOUT:-1800}"
SMOKE_BUDGET="${CI_SMOKE_TIMEOUT:-300}"
BENCH_BUDGET="${CI_BENCH_TIMEOUT:-300}"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

run_bounded() {
    local budget="$1"
    shift
    if command -v timeout >/dev/null 2>&1; then
        timeout --kill-after=30 "$budget" "$@"
    else
        "$@"
    fi
}

run_bounded "$BUDGET" python -m pytest -x -q "$@"
run_bounded "$SMOKE_BUDGET" python scripts/parallel_smoke.py

# Stage 3: serve smoke -- one tiny spec on a two-worker pool with a
# journal, a disk stats cache (the pool workers write and read its
# histogram entries) and telemetry; every artifact is validated against
# the schema and the run is summarized.
SERVE_DIR="$(mktemp -d -t rubix-serve-XXXXXX)"
trap 'rm -rf "$SERVE_DIR"' EXIT
cat > "$SERVE_DIR/spec.json" <<'SPEC'
{"workloads": ["xz", "lbm"], "mappings": ["coffeelake", "rubix-s"],
 "schemes": ["blockhammer"], "thresholds": [128], "scale": 0.05}
SPEC
run_bounded "$SMOKE_BUDGET" python -m repro.experiments serve "$SERVE_DIR/spec.json" \
    --workers 2 --journal "$SERVE_DIR/journal.jsonl" \
    --stats-cache "$SERVE_DIR/stats" --telemetry-dir "$SERVE_DIR/telemetry"
run_bounded 60 python scripts/validate_telemetry.py "$SERVE_DIR/telemetry"
# The summary's span table is built from the span.count and
# span.seconds counters: the analyzed windows the workers merge back
# and the parent's own span for the pool run must both show in it.
REPORT="$(run_bounded 60 python -m repro.experiments report --telemetry "$SERVE_DIR/telemetry")"
for span in sim.window campaign.run; do
    if ! grep -qE "^  ${span//./\\.} +[0-9]+ " <<<"$REPORT"; then
        echo "$REPORT" >&2
        echo "FAIL: telemetry report has no $span row in its span table" >&2
        exit 1
    fi
done
# The pool's journal, resumed in process: every cell is replayed.
RERUN="$(run_bounded "$SMOKE_BUDGET" python -m repro.experiments serve "$SERVE_DIR/spec.json" \
    --workers 1 --journal "$SERVE_DIR/journal.jsonl")"
if ! grep -q ", 0 computed" <<<"$RERUN"; then
    echo "$RERUN" >&2
    echo "FAIL: a --workers 1 rerun over the pool's journal recomputed cells" >&2
    exit 1
fi

# Stage 3b: every example script runs to a zero exit.
for example in examples/*.py; do
    run_bounded "$SMOKE_BUDGET" python "$example" >/dev/null
    echo "example ok: $example"
done

# Stage 4: paper-suite golden -- every published number must match
# results_paper_suite.txt byte for byte.  Only the per-experiment and
# whole-suite "[... finished in Ns]" timing lines may differ.  A change
# that moves a printed number must regenerate the golden and explain the
# moved row in EXPERIMENTS.md.  The serial suite takes 52-82 s on a
# 2-vCPU VM, traced or not; the 180 s ceiling leaves room for a slower
# runner.  Its closing suite.done record (wall time, peak RSS, and the
# megabytes the stats and trace caches hold) is read from the event
# stream and printed after the diff: advisory, not gated.  The suite's
# telemetry then must validate against the schema catalog; the campaign
# metrics a serve run must fire are not required of it.
SUITE_OUT="$(mktemp -t rubix-paper-suite-XXXXXX)"
SUITE_TELEMETRY="$(mktemp -d -t rubix-paper-suite-telemetry-XXXXXX)"
trap 'rm -rf "$SERVE_DIR" "$SUITE_OUT" "$SUITE_TELEMETRY"' EXIT
run_bounded 180 python scripts/run_paper_suite.py "$SUITE_OUT" --quiet \
    --telemetry-dir "$SUITE_TELEMETRY"
drop_timings() { grep -vE '^\[.* finished in [0-9.]+s\]$' "$1"; }
if ! diff <(drop_timings results_paper_suite.txt) <(drop_timings "$SUITE_OUT"); then
    echo "FAIL: paper-suite output differs from results_paper_suite.txt" >&2
    exit 1
fi
python - "$SUITE_TELEMETRY" <<'PY'
import json, sys
from pathlib import Path
for path in sorted(Path(sys.argv[1]).glob("events-*.jsonl")):
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.get("event") == "suite.done":
            print(
                f"paper suite: elapsed_s={record['elapsed_s']} peak_rss_mb={record['peak_rss_mb']}"
                f" stats_cache_mb={record['stats_cache_mb']} trace_cache_mb={record['trace_cache_mb']}"
            )
PY
run_bounded 60 python scripts/validate_telemetry.py "$SUITE_TELEMETRY" --no-required

# Stage 5: repository benchmark correctness gate -- the four seeded
# workloads at quick scale, fewest passes; exits non-zero on any digest
# mismatch against bench/expected.json or any failed cell.
run_bounded "$BENCH_BUDGET" python3 bench/run.py --quick --seconds 0

# Advisory: cold start of the campaign path in a fresh interpreter --
# the import seconds and the repro modules it loads; not gated.
python -c '
import sys, time
started = time.perf_counter()
import repro.experiments.campaign
elapsed_s = time.perf_counter() - started
modules = sum(1 for name in sys.modules if name.split(".")[0] == "repro")
print(f"cold import: import_s={elapsed_s:.3f} repro_modules={modules}")
'

# Advisory: trace set-up -- generate one seed's 18 scale-0.05 SPEC traces
# and write each as a .rtr file (generation, fingerprint, write); not gated.
TRACE_DIR="$(mktemp -d -t rubix-trace-setup-XXXXXX)"
trap 'rm -rf "$SERVE_DIR" "$SUITE_OUT" "$SUITE_TELEMETRY" "$TRACE_DIR"' EXIT
python - "$TRACE_DIR" <<'PY'
import sys, time
from pathlib import Path
from repro.workloads.spec import spec_names, spec_trace
from repro.workloads.trace_io import save_trace_raw
folder = Path(sys.argv[1])
started = time.perf_counter()
for name in spec_names():
    save_trace_raw(spec_trace(name, scale=0.05, seed=2024), folder / name)
print(f"trace set-up: traces={len(spec_names())} seconds={time.perf_counter() - started:.3f}")
PY

# Advisory: the working set of one analysis window -- the traced peak of
# an uncached 1M-line Rubix-S GS1 window, in bytes per line; not gated.
python -c '
import tracemalloc
import numpy as np
from repro.core.rubix_s import RubixSMapping
from repro.perf.simulator import Simulator
from repro.workloads.trace import Trace
sim = Simulator()
lines = np.random.default_rng(0x5E7).integers(0, sim.config.total_lines, size=1_000_000)
trace = Trace("working-set", lines, instructions=lines.size)
mapping = RubixSMapping(sim.config, gang_size=1)
tracemalloc.start()
sim.window_stats(trace, mapping, use_cache=False)
print(f"window working set: B/line={tracemalloc.get_traced_memory()[1] / lines.size:.1f}")
'

# Advisory: file pages of a memory-mapped window, which tracemalloc (the
# line above) cannot see -- one uncached Coffee Lake window over the
# saved scale-0.05 lbm .rtr trace in a fresh interpreter: its VmHWM
# growth and how much of the file's own mapping stays resident
# afterwards (tests/unit/test_window_page_release.py bounds it); not gated.
python - "$TRACE_DIR/lbm.rtr" <<'PY'
import sys
from repro.mapping.intel import CoffeeLakeMapping
from repro.perf.simulator import Simulator
from repro.workloads.trace_io import load_trace
def hwm_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
def mapping_rss_kb(address):
    inside = False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            head = line.split(maxsplit=1)[0]
            if not head.endswith(":"):
                start, _, end = head.partition("-")
                inside = int(start, 16) <= address < int(end, 16)
            elif inside and head == "Rss:":
                return int(line.split()[1])
trace = load_trace(sys.argv[1])
sim = Simulator()
before = hwm_kb()
sim.window_stats(trace, CoffeeLakeMapping(sim.config), use_cache=False)
growth = hwm_kb() - before
resident = mapping_rss_kb(trace.lines.__array_interface__["data"][0])
print(
    f"file window: lines={len(trace)} vmhwm_growth_mb={growth / 1024:.1f}"
    f" rtr_resident_mb={resident / 1024:.1f} file_mb={trace.lines.nbytes / 2**20:.1f}"
)
PY

# Advisory: the Python source lines under src/repro; not gated.
echo "src/repro lines=$(( $(find src/repro -name '*.py' -exec cat {} + | wc -l) ))"
