#!/usr/bin/env bash
# Tier-1 verification with hang protection.
#
# Stage 1 runs the repo's tier-1 test command (see ROADMAP.md); stage 2
# smoke-tests the parallel campaign engine (tiny grid, workers=2,
# crash + journal-resume check -- scripts/parallel_smoke.py); stage 3
# runs the hot-path kernel benchmark in --quick mode, which asserts the
# optimized kernels stay bit-identical to their in-tree references (an
# equivalence check only -- no timing gate), followed by an *advisory*
# bench-history regression gate (scripts/bench_regress.py, >15% per
# kernel); stage 4 re-runs the parallel smoke with telemetry and the
# sampling profiler enabled (REPRO_PROFILE=1) and validates the emitted
# manifest, metric snapshots, event streams and per-process
# profile-<span>-<pid>.collapsed files against the schema catalog
# (scripts/validate_telemetry.py), so instrumentation and catalog
# cannot drift apart; stage 5 runs the `serve` subcommand on a tiny
# campaign spec over the process pool (--workers 2, with a checkpoint
# journal, --stats-cache and --telemetry-dir) and validates its
# telemetry the same way, so `serve` artifacts stay schema-checked;
# stage 6 smoke-tests the playbook sweep fuzzer (seeded tiny sweep + bisection,
# exact re-run reproducibility, Rubix-S blind-vs-informed contrast --
# scripts/fuzz_smoke.py), schema-validating its telemetry too; stage 7
# gates the published numbers byte for byte (runs the full paper suite
# serially via scripts/run_paper_suite.py and diffs its output against
# results_paper_suite.txt, ignoring only the "[... finished in Ns]"
# timing lines); stage 8 runs the repository benchmark's correctness
# gate (bench/run.py --quick --seconds 0: every workload's digests must
# equal bench/expected.json and no cell may fail -- timings are printed
# but not gated).  All run under a hard wall-clock ceiling, so a
# wedged simulation fails CI instead of stalling it.  Per-test timeouts
# come from [tool.pytest.ini_options] in pyproject.toml (pytest-timeout,
# or the conftest SIGALRM fallback); this wrapper bounds each whole
# stage.
#
# Usage: scripts/ci_tier1.sh [extra pytest args...]
#   CI_TIER1_TIMEOUT=seconds   pytest stage budget (default 1800)
#   CI_SMOKE_TIMEOUT=seconds   parallel smoke budget (default 300,
#                              also used by the telemetry stage)
#   CI_BENCH_TIMEOUT=seconds   hot-path equivalence and repository
#                              benchmark gate budget (default 300)
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
run_bounded "$BENCH_BUDGET" python scripts/bench_hotpath.py --quick --out -

# Advisory regression gate over the committed bench history: compares
# the newest entry against the best comparable prior entry per kernel
# (>15% slower fails).  Advisory here because CI timing is noisy; run
# scripts/bench_regress.py directly as a hard gate for perf work.
run_bounded 60 python scripts/bench_regress.py \
    || echo "WARN: bench_regress reported a >15% kernel regression (advisory)"

# Stage 4: telemetry round-trip -- run the same smoke with telemetry
# and the profiler enabled (the pool workers write their own profiles),
# then validate every emitted artifact against the schema.
TELEMETRY_DIR="$(mktemp -d -t rubix-telemetry-XXXXXX)"
trap 'rm -rf "$TELEMETRY_DIR"' EXIT
run_bounded "$SMOKE_BUDGET" env REPRO_TELEMETRY_DIR="$TELEMETRY_DIR" REPRO_PROFILE=1 \
    python scripts/parallel_smoke.py
run_bounded 60 python scripts/validate_telemetry.py "$TELEMETRY_DIR"

# Stage 5: serve smoke -- one tiny spec on a two-worker pool with a
# journal, a disk stats cache (the pool workers write and read its
# packed entries) and telemetry; the artifacts are validated like
# stage 4.
SERVE_DIR="$(mktemp -d -t rubix-serve-XXXXXX)"
trap 'rm -rf "$TELEMETRY_DIR" "$SERVE_DIR"' EXIT
cat > "$SERVE_DIR/spec.json" <<'SPEC'
{"workloads": ["xz", "lbm"], "mappings": ["coffeelake", "rubix-s"],
 "schemes": ["blockhammer"], "thresholds": [128], "scale": 0.05}
SPEC
run_bounded "$SMOKE_BUDGET" python -m repro.experiments serve "$SERVE_DIR/spec.json" \
    --workers 2 --journal "$SERVE_DIR/journal.jsonl" \
    --stats-cache "$SERVE_DIR/stats" --telemetry-dir "$SERVE_DIR/telemetry"
run_bounded 60 python scripts/validate_telemetry.py "$SERVE_DIR/telemetry"

# Stage 6: sweep-fuzzer smoke -- deterministic playbook sweep, known
# minimal pattern, exact re-run reproducibility.  scheme="none" means
# the mitigation metrics legitimately never fire, so the telemetry gets
# the schema-only check.
FUZZ_TELEMETRY_DIR="$(mktemp -d -t rubix-fuzz-telemetry-XXXXXX)"
trap 'rm -rf "$TELEMETRY_DIR" "$SERVE_DIR" "$FUZZ_TELEMETRY_DIR"' EXIT
run_bounded "$SMOKE_BUDGET" env REPRO_TELEMETRY_DIR="$FUZZ_TELEMETRY_DIR" \
    python scripts/fuzz_smoke.py
run_bounded 60 python scripts/validate_telemetry.py "$FUZZ_TELEMETRY_DIR" --no-required

# Stage 7: paper-suite golden -- every published number must match
# results_paper_suite.txt byte for byte.  Only the per-experiment and
# whole-suite "[... finished in Ns]" timing lines may differ.  A change
# that moves a printed number must regenerate the golden and explain the
# moved row in EXPERIMENTS.md.  The serial suite takes 66-76 s on a
# 2-vCPU VM; the 180 s ceiling leaves room for a slower runner.
SUITE_OUT="$(mktemp -t rubix-paper-suite-XXXXXX)"
trap 'rm -rf "$TELEMETRY_DIR" "$SERVE_DIR" "$FUZZ_TELEMETRY_DIR" "$SUITE_OUT"' EXIT
run_bounded 180 python scripts/run_paper_suite.py "$SUITE_OUT" --quiet
drop_timings() { grep -vE '^\[.* finished in [0-9.]+s\]$' "$1"; }
if ! diff <(drop_timings results_paper_suite.txt) <(drop_timings "$SUITE_OUT"); then
    echo "FAIL: paper-suite output differs from results_paper_suite.txt" >&2
    exit 1
fi

# Stage 8: repository benchmark correctness gate -- the four seeded
# workloads at quick scale, fewest passes; exits non-zero on any digest
# mismatch against bench/expected.json or any failed cell.
run_bounded "$BENCH_BUDGET" python3 bench/run.py --quick --seconds 0
