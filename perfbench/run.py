#!/usr/bin/env python3
"""pofda benchmark: time the package's main workloads and check their output.

    python3 perfbench/run.py --workload tables_serial --seed 13 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
Working files go to `.bench_out/` in the checkout.

Workloads (see workloads.py for why each one is there):
  tables_serial      the 4 x 12 table grid, serial: 480 replications simulated in set-up,
                     scored, trimmed, aggregated and written per call
  depth_large        poifd_all for all three depths + trimming, n = 10^4, T = 200
  consistency_probe  convergence_probe's queries (poifd_of, population depth) on samples
                     of sizes 50 .. 10^4, T = 101, drawn in set-up

With --trace 0 the run is split over three worker processes, one after
another. Each sets the workload up and repeats the timed call while a
typical call still ends within its third of --seconds (at least once);
the first also runs the workload's final output check, once per run.
The end-to-end metrics are printed: setup_s (worker start to its first
timed call, the median of the three), items_per_s (items completed per
second of timed calls), cpu_s_per_item (CPU of the workers during the
calls, per item), peak_rss_mb (the largest worker) and error_rate
(failed / attempted items). Throughput is a total over the calls, not a
median: on a shared 2-core host call times drift in phases of tens of
seconds, and each process runs at its own speed, so one long process
gives a less steady figure than three shorter ones spread over the run.

With --trace 1 the call runs once untraced, then once rebuilt from public
pofda calls with a span around each call, and the per-layer metrics are
printed: ms per call (self time), each layer's share of the traced wall
time, counts read from public outputs, rusage ratios and micro-kernels.
A per-layer metric the workload does not reach reads 0. The tables
workload also runs jobs=2 once there, checks its bytes against the
serial bytes and reports harness.parallel_efficiency. Spans are written
to .bench_out/trace-<workload>-seed<seed>.jsonl.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload all     # every workload, one after another
    python3 perfbench/run.py --self-test        # smoke run of every workload, in seconds

No BLAS thread variable is set here: the table bytes depend on the
BLAS thread count, so the run records the setting instead.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ["tables_serial", "depth_large", "consistency_probe"]
WORKERS = 3
BLAS_VARS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS"]

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "cpu_s_per_item": "s",
    "peak_rss_mb": "MB",
}
# Spans whose self time per call is reported as "<span>.ms".
SPAN_METRICS = [
    "simulate.sample_gp",
    "simulate.contaminate",
    "simulate.observe",
    "core.build_sample",
    "poifd.pointwise_depth_field",
    "poifd.poifd_all",
    "poifd.poifd_of",
    "trimming.select_trim",
    "trimming.trimmed_mean",
    "trimming.ordinary_mean",
    "metrics.integrated_error",
    "harness.run_scenario",
    "consistency.population_coverage",
    "consistency.population_poifd",
]
MICRO_KERNELS = [
    "simulate.cov_factor.T200.ms",
    "simulate.cov_factor.T1000.ms",
    "poifd.depth_field.n80_T200.ms",
    "poifd.depth_field.n1000_T200.ms",
    "poifd.depth_field.n80_T2000.ms",
    "poifd.depth_field.n10000_T200.ms",
    "depths.depth_from_counts.ms",
]
LAYERS = ["simulate", "core", "poifd", "trimming", "metrics", "harness", "consistency"]
PER_LAYER = {
    **{f"{name}.ms": "ms" for name in SPAN_METRICS},
    **{name: "ms" for name in MICRO_KERNELS},
    **{f"{layer}.share": "%" for layer in LAYERS},
    "simulate.calls_per_cov": "count",
    "trimming.fallback_points": "count",
    "trimming.fallback_reps": "count",
    "metrics.points_used_ratio": "ratio",
    "harness.parallel_efficiency": "ratio",
    "harness.cpu_per_wall": "ratio",
    "harness.invol_ctx_switches": "count",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)  # worker index
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def import_workloads():
    """Import the workloads, and with them pofda, from the checkout's src/."""
    src = ROOT / "src"
    if not (src / "pofda" / "__init__.py").is_file():
        sys.exit(f"pofda sources not found under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import workloads

    return workloads


def rusage():
    """(CPU seconds, involuntary context switches) of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, me.ru_nivcsw + kids.ru_nivcsw


def peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var, "unset") for var in BLAS_VARS},
    }


def self_cmd(workload: str, seed: int, smoke: bool, *extra: str) -> list[str]:
    """Command line that runs this script on one workload in a child process."""
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), *extra] + (["--smoke"] if smoke else [])


def timed(fn, *args):
    """Run fn; return (output or None on an exception, wall s, CPU s, ctx switches)."""
    cpu0, ctx0 = rusage()
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception:
        traceback.print_exc()
        out = None
    wall = time.perf_counter() - t0
    cpu1, ctx1 = rusage()
    return out, wall, cpu1 - cpu0, ctx1 - ctx0


def checked(wl, out) -> int:
    return wl.items if out is None else wl.check(out)


def run_worker(wl, args, setup_s: float) -> dict:
    """One worker's share of an untraced run: timed calls for --seconds."""
    walls = []
    attempted = failed = cpu_total = 0
    start = time.perf_counter()
    # Start a call only if a typical call still ends within --seconds.
    while not walls or time.perf_counter() - start + statistics.median(walls) <= args.seconds:
        out, wall, cpu, _ = timed(wl.call)
        failed += checked(wl, out)
        attempted += wl.items
        walls.append(wall)
        cpu_total += cpu
    return {
        "setup_s": setup_s,
        "walls": walls,
        "attempted": attempted,
        "failed": min(failed + (wl.final_check() if args.worker == 0 else 0), attempted),
        "cpu_s": cpu_total,
        "peak_rss_mb": peak_rss_mb(),
        "digest": wl.reference,
        "notes": wl.notes,
    }


def run_untraced(args):
    """Split --seconds over WORKERS worker processes and total their calls."""
    runs = []
    for index in range(WORKERS):
        cmd = self_cmd(args.workload, args.seed, args.smoke, "--worker", str(index),
                       "--seconds", repr(args.seconds / WORKERS))
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        print(done.stderr, end="", file=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"worker exited with code {done.returncode}")
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    walls = [w for run in runs for w in run["walls"]]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    setups = [run["setup_s"] for run in runs]
    notes = list(dict.fromkeys(note for run in runs for note in run["notes"]))
    if len({run["digest"] for run in runs}) > 1:
        notes.append(f"workers' outputs differ: digests {[run['digest'] for run in runs]}")
        failed = attempted
    print(f"{args.workload}: {len(walls)} calls of {attempted // len(walls)} items over "
          f"{WORKERS} workers, {sum(walls):.2f} s timed; call wall min/median/max "
          f"{min(walls):.4f}/{statistics.median(walls):.4f}/{max(walls):.4f} s; "
          f"set-ups {[round(s, 4) for s in setups]} s")
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": (attempted - failed) / sum(walls),
        "cpu_s_per_item": sum(run["cpu_s"] for run in runs) / attempted,
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
    }
    return metrics, attempted, failed, notes


def run_traced(wl, tr, args):
    from tracing import micro_kernels

    out, wall, cpu, ctx = timed(wl.reference_call)
    failed = checked(wl, out)
    attempted = wl.items
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics["harness.cpu_per_wall"] = cpu / wall
    metrics["harness.invol_ctx_switches"] = ctx
    print(f"untraced call: {wall:.3f} s wall, {cpu:.3f} s CPU, {ctx} involuntary switches")

    if wl.name == "tables_serial":
        # The timed call must write the bytes reproduce_tables wrote.
        failed += checked(wl, timed(wl.call)[0])
        out2, wall2, cpu2, ctx2 = timed(wl.reproduce, 2)
        failed += checked(wl, out2)
        attempted += 2 * wl.items
        metrics["harness.parallel_efficiency"] = wall / (2 * wall2)
        print(f"jobs=2 call: {wall2:.3f} s wall, {cpu2:.3f} s CPU, {ctx2} involuntary switches; "
              "bytes checked against the serial call")

    mark = len(tr.spans)
    out3, traced_wall, _, _ = timed(wl.traced_call, tr)
    failed += checked(wl, out3)
    attempted += wl.items
    failed += wl.final_check()

    stats = tr.self_times()
    for name in SPAN_METRICS:
        calls, total = stats.get(name, (0, 0.0))
        metrics[f"{name}.ms"] = 1e3 * total / calls if calls else 0.0
    body = tr.self_times(mark)
    for layer in LAYERS:
        busy = sum(total for name, (_, total) in body.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.share"] = 100.0 * busy / traced_wall
    extra = tr.extra_seconds(mark)
    metrics["trace.overhead_s"] = traced_wall - extra - wall
    metrics["simulate.calls_per_cov"] = wl.calls_per_cov
    metrics.update(wl.counters)
    metrics.update(micro_kernels(args.seed, args.smoke))
    print(f"traced call: {traced_wall:.3f} s wall, of which {extra:.3f} s re-times nested "
          f"stages; tracing overhead {metrics['trace.overhead_s']:.3f} s")
    print(f"{'span':<36}{'calls':>8}{'self ms/call':>14}{'share %':>9}")
    for name, (calls, total) in sorted(stats.items()):
        share = 100.0 * body[name][1] / traced_wall if name in body else 0.0
        print(f"{name:<36}{calls:>8}{1e3 * total / calls:>14.4f}{share:>9.2f}")
    tr.write(WORKDIR / f"trace-{wl.name}-seed{args.seed}.jsonl")
    return metrics, attempted, min(failed, attempted)


def report(metrics: dict, units: dict, attempted: int, failed: int, notes) -> None:
    for note in notes:
        print(f"note: {note}")
    for name, unit in units.items():
        print(f"  {name:<36} {metrics[name]:>16.6g} {unit}")
    print(f"  {'error_rate':<36} {failed / attempted:>16.6g} failed/attempted "
          f"({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


def run_one(args) -> int:
    workloads = import_workloads()
    from tracing import NullTracer, Tracer

    WORKDIR.mkdir(exist_ok=True)
    tr = Tracer() if args.trace else NullTracer()
    if args.trace or args.worker is not None:
        wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, WORKDIR, tr)
        setup_s = time.perf_counter() - T0
    if args.worker is not None:
        print(json.dumps(run_worker(wl, args, setup_s)))
        return 0
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.trace:
        metrics, attempted, failed = run_traced(wl, tr, args)
        units, notes = PER_LAYER, wl.notes
    else:
        metrics, attempted, failed, notes = run_untraced(args)
        units = END_TO_END
    if any("digest" in note for note in notes):
        threads = ", ".join(f"{var}={env[var]}" for var in BLAS_VARS)
        notes.append(f"BLAS thread setting: {threads}, nproc={env['nproc']}")
    report(metrics, units, attempted, failed, notes)
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, so set-up and memory stay per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = self_cmd(name, args.seed, args.smoke, "--seconds", str(args.seconds),
                       "--trace", str(args.trace))
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def require(ok: bool, message) -> None:
    if not ok:
        raise SystemExit(f"self-test failed: {message}")


def self_test() -> int:
    """Smoke-run every workload in both modes and check what gets printed."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    require(declared == {0: END_TO_END, 1: PER_LAYER}, "BENCHMARK.json metrics differ from run.py")
    require([w["name"] for w in bench["workloads"]] == WORKLOAD_NAMES, "workload names differ")
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = self_cmd(name, 13, True, "--seconds", "0.5", "--trace", str(trace))
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            require(done.returncode == 0, done.stderr)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"}, result)
            require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines)
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            require(got == declared[trace], (name, trace, got))
            printed = {(ln.split()[0], ln.split()[-1]) for ln in lines[:-1] if ln.startswith("  ")}
            require(set(declared[trace].items()) <= printed, (name, trace, "metric not printed"))
            if trace == 0:
                require(("error_rate", "failed/attempted") in {(ln.split()[0], ln.split()[2]) for ln in lines if ln.startswith("  ")}, "error_rate not printed")
            print(f"self-test: {name} trace={trace} ok, {result['attempted']} items")

    workloads = import_workloads()
    WORKDIR.mkdir(exist_ok=True)
    wl = workloads.Tables(13, True, WORKDIR)
    out = wl.call()
    data = [(out / f).read_bytes() for f in workloads.TABLE_FILES]
    require(wl.check(out) == 0, wl.notes)
    # Flip the last byte of the first row of table2: still a valid row,
    # so only the comparison with the first call can catch it.
    cut = data[1].index(b"\n", data[1].index(b"\n") + 1) - 1
    data[1] = data[1][:cut] + bytes([data[1][cut] ^ 1]) + data[1][cut + 1:]
    failed = wl.check_bytes(data)
    require(failed / wl.items > 0, "a corrupted table byte went unnoticed")
    print(f"self-test: one corrupted byte gives error_rate {failed / wl.items:.4g} ({wl.notes[-1]})")
    print("self-test passed")
    return 0


def main() -> int:
    args = parse_args()
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
