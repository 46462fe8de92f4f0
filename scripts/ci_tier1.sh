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
# kernel); stage 4 re-runs the parallel smoke with telemetry enabled
# and validates the emitted manifest + metric snapshots against the
# schema catalog
# (scripts/validate_telemetry.py), so instrumentation and catalog
# cannot drift apart; stage 5 smoke-tests the fault-tolerant campaign
# service (two overlapping tenants, seeded chaos killing workers,
# exactly-once journal, resume -- scripts/service_smoke.py) with
# telemetry enabled and validates its artifacts the same way; stage 6
# smoke-tests the playbook sweep fuzzer (seeded tiny sweep + bisection,
# exact re-run reproducibility, Rubix-S blind-vs-informed contrast --
# scripts/fuzz_smoke.py), schema-validating its telemetry too; stage 7
# smoke-tests the distributed service; stage 8 runs the repository
# benchmark's correctness gate (bench/run.py --quick --seconds 0: every
# workload's digests must equal bench/expected.json and no cell may
# fail -- timings are printed but not gated).  All run
# under a hard wall-clock ceiling, so a
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
# enabled, then validate every emitted artifact against the schema.
TELEMETRY_DIR="$(mktemp -d -t rubix-telemetry-XXXXXX)"
trap 'rm -rf "$TELEMETRY_DIR"' EXIT
run_bounded "$SMOKE_BUDGET" env REPRO_TELEMETRY_DIR="$TELEMETRY_DIR" \
    python scripts/parallel_smoke.py
run_bounded 60 python scripts/validate_telemetry.py "$TELEMETRY_DIR"

# Stage 5: campaign-service smoke -- overlapping tenants under seeded
# chaos (worker kills, duplicated completions), exactly-once journal,
# chaos-free resume; telemetry validated like stage 4.
SERVICE_TELEMETRY_DIR="$(mktemp -d -t rubix-service-telemetry-XXXXXX)"
trap 'rm -rf "$TELEMETRY_DIR" "$SERVICE_TELEMETRY_DIR"' EXIT
run_bounded "$SMOKE_BUDGET" env REPRO_TELEMETRY_DIR="$SERVICE_TELEMETRY_DIR" \
    python scripts/service_smoke.py
run_bounded 60 python scripts/validate_telemetry.py "$SERVICE_TELEMETRY_DIR"

# Stage 6: sweep-fuzzer smoke -- deterministic playbook sweep, known
# minimal pattern, exact re-run reproducibility.  scheme="none" means
# the mitigation metrics legitimately never fire, so the telemetry gets
# the schema-only check.
FUZZ_TELEMETRY_DIR="$(mktemp -d -t rubix-fuzz-telemetry-XXXXXX)"
trap 'rm -rf "$TELEMETRY_DIR" "$SERVICE_TELEMETRY_DIR" "$FUZZ_TELEMETRY_DIR"' EXIT
run_bounded "$SMOKE_BUDGET" env REPRO_TELEMETRY_DIR="$FUZZ_TELEMETRY_DIR" \
    python scripts/fuzz_smoke.py
run_bounded 60 python scripts/validate_telemetry.py "$FUZZ_TELEMETRY_DIR" --no-required

# Stage 7: distributed-service smoke -- scheduler on an ephemeral
# loopback port, three spawned socket workers, seeded wire chaos
# (dropped/corrupt/torn frames, severed connections), exactly-once
# journal with forced re-dispatch, and the zero-worker degraded-mode
# fallback (scripts/distributed_smoke.py); telemetry validated like
# stage 4 -- the service.transport.* metrics ride along.
DIST_TELEMETRY_DIR="$(mktemp -d -t rubix-dist-telemetry-XXXXXX)"
trap 'rm -rf "$TELEMETRY_DIR" "$SERVICE_TELEMETRY_DIR" "$FUZZ_TELEMETRY_DIR" "$DIST_TELEMETRY_DIR"' EXIT
run_bounded "$SMOKE_BUDGET" env REPRO_TELEMETRY_DIR="$DIST_TELEMETRY_DIR" \
    python scripts/distributed_smoke.py
# --traces: every process in the distributed run exits cleanly, so the
# assembled span trees must be complete -- one root per trace, every
# parent span present (the smoke also hits /metrics//healthz//status
# mid-run and asserts the scheduler+workers share one rooted trace).
run_bounded 60 python scripts/validate_telemetry.py "$DIST_TELEMETRY_DIR" --traces

# Stage 8: repository benchmark correctness gate -- the four seeded
# workloads at quick scale, fewest passes; exits non-zero on any digest
# mismatch against bench/expected.json or any failed cell.
run_bounded "$BENCH_BUDGET" python3 bench/run.py --quick --seconds 0
