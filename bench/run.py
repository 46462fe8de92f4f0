#!/usr/bin/env python3
"""Run the repository benchmark: four seeded workloads, end to end or per layer.

Usage::

    python3 bench/run.py [--seed N] [--quick] [--trace 0|1] [--out FILE]
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload of BENCHMARK.json runs, each in a
fresh process (so in-process trace and statistics caches start empty).
A workload run sets up, then repeats timed passes over its cells for
``--seconds`` (at least ``min_passes`` of them), then checks the
simulated statistics: every pass of one input must agree, independent
checks must hold, and at the default seed the digests must equal
``bench/expected.json``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is non-zero unless the statistics are correct and no cell failed.

``--trace 0`` reports the end-to-end metrics (set-up time and peak
memory, measured with tracing off).  ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics, pass and cell times
among them, writing ``bench/out/spans-<workload>.jsonl`` and
``bench/out/layers-<workload>.txt``.
"""

from __future__ import annotations

import os

# Before numpy or the program is imported: no developer stats cache,
# telemetry, profiler or kernel override, and no extra BLAS threads.
for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

from benchstats import ROOT, load_benchmark, metric_units, percentile  # noqa: E402

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
DEFAULT_SEED = 2024
#: Set-ups a run makes; ``setup_s`` takes their median.
SETUP_REPEATS = 5
#: Cell latencies a run collects at least: p90 needs ten samples beyond it.
MIN_CELL_SAMPLES = 100
#: Ceiling for one workload subprocess when all workloads run.
WORKLOAD_TIMEOUT_S = 900
#: ``mallopt`` parameter number and glibc's initial value for it.
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 128 * 1024


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="timed phase (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="6 traces at scale 0.02")
    parser.add_argument("--out", help="append each run's entry to this results file")
    return parser.parse_args(argv)


def pin_mmap_threshold() -> None:
    """Stop glibc from raising its mmap threshold as large blocks are freed.

    By default the threshold grows after the first large free, so later
    large arrays come from the heap, and how fragmented the heap is moves
    a pass's peak RSS by up to 10%.  With the threshold fixed, every large
    array is mapped and unmapped, and the peak follows the memory the
    pass holds.  Pool workers forked afterwards inherit the setting.  It
    also slows the passes, so only untraced runs, which report no pass
    times, call it.
    """
    libc = ctypes.CDLL("libc.so.6")
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    if libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) != 1:
        raise OSError("mallopt(M_MMAP_THRESHOLD) failed")


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current RSS (Linux 4.0 and later)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb(include_children: bool) -> float:
    """VmHWM of this process since the last reset, in MB.

    With ``include_children``, the larger of that and the peak of the
    largest child reaped so far (pool workers).
    """
    with open("/proc/self/status") as handle:
        kb = next(int(line.split()[1]) for line in handle if line.startswith("VmHWM:"))
    if include_children:
        import resource

        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


@contextmanager
def scratch_dir(prefix: str):
    """A fresh directory under bench/out, removed afterwards."""
    OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def set_up(args, scratch: Path):
    """Import the program, then build the workload and run its set-up.

    The set-up runs :data:`SETUP_REPEATS` times, each time from a new
    workload object in an emptied directory.  Returns the last workload
    and the set-up seconds: the import time plus the median set-up.
    """
    started = time.perf_counter()
    import workloads

    imported = time.perf_counter() - started
    folder, samples = scratch / "setup", []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(folder, ignore_errors=True)
        started = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed, args.quick, folder)
        workload.setup()
        samples.append(time.perf_counter() - started)
    return workload, imported + statistics.median(samples)


def timed_passes(workload, seconds: float, recorder=None):
    """Passes for ``seconds`` (and at least enough of them to be checked).

    With a recorder, every second pass is traced.  Returns the passes;
    keyed by whether the pass was traced, their wall times and cell
    latencies; and the peak RSS of the first pass, which is never traced.
    """
    passes, walls, cell_s = [], {False: [], True: []}, {False: [], True: []}
    started = time.perf_counter()
    reset_peak_rss()
    while (len(passes) < workload.min_passes
           or len(cell_s[False]) < MIN_CELL_SAMPLES
           or time.perf_counter() - started < seconds):
        traced = recorder is not None and len(passes) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            result = recorder.traced_pass(workload.run_pass, len(passes))
            for key, value in result.layer_values.items():
                recorder.counts[key] += value
        else:
            result = workload.run_pass(len(passes))
        walls[traced].append(time.perf_counter() - t0)
        if not passes:
            peak = peak_rss_mb(workload.uses_pool)
        cell_s[traced] += result.cell_s
        passes.append(result)
    return passes, walls, cell_s, peak


def check_outputs(args, workload, passes) -> "tuple[dict, list]":
    """Digest per input, plus every error found in the outputs."""
    from workloads import digest

    digests, errors = {}, []
    for result in passes:
        key = str(result.key)
        value = digest(result.rows)
        if digests.setdefault(key, value) != value:
            errors.append(f"input {key}: passes disagree ({digests[key]} != {value})")
    if not any(result.failed for result in passes):
        errors += workload.verify(passes)
    if args.seed == DEFAULT_SEED:
        path = BENCH / "expected.json"
        with open(path) as handle:
            expected = json.load(handle)["quick" if args.quick else "full"].get(args.workload)
        if expected != digests:
            errors.append(f"digests {digests} differ from {path}: {expected}")
    return digests, errors


def run_workload(args, seconds: float) -> int:
    benchmark = load_benchmark()
    recorder = None
    if args.trace:
        from layers import Recorder, format_table

        recorder = Recorder()
    with scratch_dir(f"{args.workload}-") as scratch:
        workload, setup_s = set_up(args, scratch)
        if not args.trace:
            pin_mmap_threshold()
        passes, walls, cell_s, peak = timed_passes(workload, seconds, recorder)
        digests, errors = check_outputs(args, workload, passes)

    # Latencies and wall times come from untraced passes only.
    values = {
        "wall_s": statistics.median(walls[False]),
        "cell_p50_ms": 1e3 * percentile(cell_s[False], 50),
        "cell_p90_ms": 1e3 * percentile(cell_s[False], 90),
    }
    print(f"{args.workload}: {len(passes)} passes, {len(cell_s[False])} untraced cell"
          f" latencies")
    if args.trace:
        values.update(recorder.layer_values(len(walls[True])))
        values["trace_overhead_frac"] = (
            statistics.median(walls[True]) / values["wall_s"] - 1.0
        )
        table = format_table(values)
        recorder.write_spans(OUT / f"spans-{args.workload}.jsonl")
        (OUT / f"layers-{args.workload}.txt").write_text(table + "\n")
        print(table)
        units = metric_units(benchmark, "per_layer")
    else:
        values.update({"setup_s": setup_s, "peak_rss_mb": peak})
        units = metric_units(benchmark, "end_to_end")
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for key, value in digests.items():
        print(f"digest {args.workload} {key} {value}")
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    failed = sum(result.failed for result in passes)
    correct = not errors and failed == 0
    result = {
        "correct": correct,
        "attempted": sum(result.attempted for result in passes),
        "failed": failed,
        "metrics": metrics,
    }
    if args.out:
        append_run(args.out, {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "quick": args.quick, "seconds": seconds, "digests": digests, "result": result,
        })
    print(json.dumps(result))
    return 0 if correct else 1


def append_run(path: str, entry: dict) -> None:
    """Add one run entry to the ``{"runs": [...]}`` results file at ``path``."""
    runs = []
    if os.path.exists(path):
        with open(path) as handle:
            runs = json.load(handle)["runs"]
    runs.append(entry)
    with open(path, "w") as handle:
        json.dump({"runs": runs}, handle, indent=1)


def run_all(args, seconds: float) -> int:
    """Every workload in its own process; prints a summary table."""
    status, rows = 0, []
    for entry in load_benchmark()["workloads"]:
        command = [sys.executable, __file__, "--workload", entry["name"],
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
        if args.quick:
            command.append("--quick")
        if args.out:
            command += ["--out", args.out]
        try:
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=WORKLOAD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            status = status or 1
            rows.append((entry["name"], "timed out", {}))
            continue
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        # A workload that raised exits 1 too, but without the result line.
        try:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            rows.append((entry["name"], "crashed", {}))
            continue
        rows.append((entry["name"], "ok" if result["correct"] else "INCORRECT",
                     result["metrics"]))
    print()
    for name, verdict, metrics in rows:
        shown = "  ".join(f"{key}={m['value']:.4g}{m['unit']}" for key, m in metrics.items())
        print(f"{name:<16} {verdict:<9} {shown}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program is missing: no {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    names = [entry["name"] for entry in load_benchmark()["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: {names}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    seconds = args.seconds if args.seconds is not None else load_benchmark()["run_seconds"]
    if args.workload:
        return run_workload(args, seconds)
    return run_all(args, seconds)


if __name__ == "__main__":
    sys.exit(main())
