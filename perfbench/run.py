#!/usr/bin/env python3
"""Benchmark for confpair: seeded workloads through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the repository root; it imports confpair from ./src and needs
numpy.  NAME is verify, normalize, duality or cli (see workloads.py); `all`
runs each in its own process and prints one table.  Every workload is a
closed loop with one client in one process.

--trace 0: the workload's fixed job (a list of operations) repeats until
--seconds have passed, at least three times.  Each operation is timed on
its own.  wall_s is the job's time as the sum of the operations' median
times; op_p50_ms is the median of the per-operation medians, and
op_tail_ms the highest of them with at least ten beyond it (the largest
when a job has ten operations or fewer).  Taking each operation's median
first keeps the percentile on the same operation however many repetitions
fit in the run.  setup_s is the median of SETUP_RUNS fresh interpreters,
spread over the run, each importing confpair (and numpy) and building the
inputs.  peak_rss_mb is the process's peak resident memory after the
timed loop.

The times are host-speed-scaled seconds.  A shared VM runs Python about
1.5x faster or slower from one stretch of seconds to the next, and this
moves CPU time as much as wall time, so raw times of the same code spread
past any useful bound.  So the harness reads a fixed pure-Python gauge
(hostspeed.calibrate, which no change to confpair can move) before each
operation that starts at least CAL_EVERY_S after the last reading, right
before and right after each operation that took LONG_OP_S or more in the
previous repetition, and once after the job.  Each operation's time is
multiplied by hostspeed.REF_S over the mean of the readings just before
and just after it; each set-up sample by REF_S over the mean of readings
its own process takes before and after the timed part.  The result is the
time on a host where the gauge reads REF_S.  The readings are not part of
any timed operation.  The raw medians and the gauge's median
(host.calib_s) are printed with the results; the JSON carries the scaled
figures.

--trace 1: each repetition runs the job once untraced and once with every
public confpair function wrapped in a span (tracing.py).  Counts come from
the first traced job and must repeat exactly in the others; times are
medians.  trace.overhead_s is traced minus untraced job time.

Outputs are checked after the timed region: the first repetition's by the
workload's oracle, every later one by equality with the first.  An
operation that fails either check counts in `failed`; error_rate is
failed / attempted.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import REF_S, calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORKLOADS = ("verify", "normalize", "duality", "cli")
MIN_REPS = 3
SETUP_RUNS = 11
CAL_EVERY_S = 0.1
LONG_OP_S = 0.01

SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[2])
from hostspeed import calibrate
cal0 = calibrate(3)
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import confpair, workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
elapsed = time.perf_counter() - t0
print(elapsed, (cal0 + calibrate(3)) / 2)
"""


def import_confpair():
    """Import confpair from ./src, refusing any other copy."""
    if not (SRC / "confpair" / "__init__.py").is_file():
        sys.exit(f"error: no confpair package under {SRC}; run from the repository root")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import confpair
    if SRC.resolve() not in Path(confpair.__file__).resolve().parents:
        sys.exit(f"error: imported confpair from {confpair.__file__}, not from {SRC}")


def setup_sample(name, seed):
    """Seconds a fresh interpreter takes to import confpair and build the
    inputs, and the gauge that interpreter read around it."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR), name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    elapsed, cal = proc.stdout.strip().splitlines()[-1].split()
    return float(elapsed), float(cal)


def run_job(ops, outputs, mismatches, calibs=None, long_ops=()):
    """Run every op once; return (per-op seconds, job CPU seconds, per-op
    scaled seconds).

    The first call fills `outputs`; later calls compare against it outside
    the timed region and count differences in `mismatches`.  When `calibs`
    is a list, the host gauge is read into it around the ops (see the
    module docstring), right before and right after each op whose index is
    in `long_ops`, and the third item holds the per-op seconds scaled to
    REF_S; otherwise it is None.
    """
    gc.collect()
    first = not outputs
    times, before = [], []
    last_cal = -float("inf")
    cpu0 = time.process_time()
    for i, op in enumerate(ops):
        if calibs is not None:
            if (i in long_ops or i - 1 in long_ops
                    or time.perf_counter() - last_cal >= CAL_EVERY_S):
                calibs.append(calibrate())
                last_cal = time.perf_counter()
            before.append(len(calibs) - 1)
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:  # a failing op is counted, not fatal
            out = traceback.format_exc()
        times.append(time.perf_counter() - t0)
        if first:
            outputs.append(out)
        elif out != outputs[i]:
            mismatches[i] += 1
    cpu = time.process_time() - cpu0
    if calibs is None:
        return times, cpu, None
    calibs.append(calibrate())
    return times, cpu, [dt * REF_S * 2 / (calibs[b] + calibs[b + 1])
                        for dt, b in zip(times, before)]


def check_outputs(ops, outputs):
    """Oracle verdict per op: None when right, else the reason."""
    verdicts = []
    for op, out in zip(ops, outputs):
        if isinstance(out, str) and out.startswith("Traceback"):
            verdicts.append(f"raised:\n{out}")
            continue
        try:
            verdicts.append(op.check(out))
        except Exception:  # an output the oracle cannot read is wrong
            verdicts.append(f"oracle raised:\n{traceback.format_exc()}")
    return verdicts


def count_failed(ops, outputs, mismatches, reps):
    verdicts = check_outputs(ops, outputs)
    for op, why in zip(ops, verdicts):
        if why:
            print(f"FAILED {op.label}: {why}", file=sys.stderr)
    return sum(reps if why else mismatches[i] for i, why in enumerate(verdicts))


def tail(values):
    """Highest value with at least ten values beyond it, and its percentile."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    idx = len(ordered) - 11
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def run_plain(ops, seconds, setup=None):
    """Timed loop.  `setup`, when given, is called SETUP_RUNS times spread
    over the run, so that its samples see the same machine as the job.
    Returns (metrics, samples, failed, raw figures).  Times in `metrics`
    are scaled to the reference host speed; `raw` holds the unscaled
    medians and the gauge's median."""
    outputs, mismatches = [], [0] * len(ops)
    per_op = [[] for _ in ops]
    raw_walls, setups, raw_setups, calibs = [], [], [], []
    long_ops = set()
    t_start = time.perf_counter()
    while True:
        while (setup and len(setups) < SETUP_RUNS
               and time.perf_counter() - t_start >= len(setups) * seconds / SETUP_RUNS):
            elapsed, cal = setup()
            raw_setups.append(elapsed)
            setups.append(elapsed * REF_S / cal)
        t_rep = time.perf_counter()
        raw, _, times = run_job(ops, outputs, mismatches, calibs, long_ops)
        long_ops = {i for i, dt in enumerate(raw) if dt >= LONG_OP_S}
        for i, dt in enumerate(times):
            per_op[i].append(dt)
        raw_walls.append(sum(raw))
        elapsed = time.perf_counter() - t_start
        if len(raw_walls) >= MIN_REPS and elapsed + (time.perf_counter() - t_rep) > seconds:
            break
    while setup and len(setups) < SETUP_RUNS:
        elapsed, cal = setup()
        raw_setups.append(elapsed)
        setups.append(elapsed * REF_S / cal)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reps = len(raw_walls)
    failed = count_failed(ops, outputs, mismatches, reps)
    op_medians = [statistics.median(t) for t in per_op]
    tail_s, tail_pct = tail(op_medians)
    samples = reps * len(ops)
    metrics = {
        "wall_s": (sum(op_medians), "s", f"sum of {len(ops)} per-op medians of {reps} jobs"),
        "op_p50_ms": (1000 * statistics.median(op_medians), "ms",
                      f"median of {len(ops)} per-op medians, {samples} samples"),
        "op_tail_ms": (1000 * tail_s, "ms",
                       f"p{tail_pct:.1f} of {len(ops)} per-op medians, {samples} samples"),
        "peak_rss_mb": (peak_rss_mb, "MB", "1 sample"),
    }
    raw_figures = {
        "raw wall_s": (statistics.median(raw_walls), "s", f"median of {reps} jobs, unscaled"),
        "host.calib_s": (statistics.median(calibs), "s", f"median of {len(calibs)} gauge readings"),
    }
    if setup:
        metrics["setup_s"] = (statistics.median(setups), "s",
                              f"median of {SETUP_RUNS} fresh processes")
        raw_figures["raw setup_s"] = (statistics.median(raw_setups), "s",
                                      f"median of {SETUP_RUNS} fresh processes, unscaled")
    return metrics, samples, failed, raw_figures


def run_traced(ops, seconds):
    from tracing import Tracer, layer_metrics

    outputs, mismatches = [], [0] * len(ops)
    walls, cpus, traced_walls, layers, calibs = [], [], [], [], []
    counts_differ = False
    t_start = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        calibs.append(calibrate())
        times, cpu, _ = run_job(ops, outputs, mismatches)
        walls.append(sum(times))
        cpus.append(cpu)
        tracer = Tracer()
        tracer.install()
        try:
            times, _, _ = run_job(ops, outputs, mismatches)
        finally:
            tracer.uninstall()
        traced_walls.append(sum(times))
        layers.append(layer_metrics(tracer))
        del tracer
        counts = {k: v for k, (v, unit) in layers[-1].items() if unit != "s"}
        if counts != {k: v for k, (v, unit) in layers[0].items() if unit != "s"}:
            counts_differ = True
            print("FAILED: traced counts differ between repetitions", file=sys.stderr)
        elapsed = time.perf_counter() - t_start
        if elapsed + (time.perf_counter() - t_rep) > seconds:
            break
    reps = len(walls)
    failed = count_failed(ops, outputs, mismatches, 2 * reps)
    metrics = {}
    for name, (value, unit) in layers[0].items():
        if unit == "s":
            value = statistics.median(layer[name][0] for layer in layers)
        metrics[name] = (value, unit, f"median of {reps} traced jobs" if unit == "s" else "exact")
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(walls),
                                   "s", f"medians of {reps} traced and {reps} untraced jobs")
    metrics["process.cpu_s"] = (statistics.median(cpus), "s", f"median of {reps} untraced jobs")
    metrics["host.calib_s"] = (statistics.median(calibs), "s", f"median of {reps} gauge readings")
    return metrics, 2 * reps * len(ops), failed, counts_differ


def src_loc():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "confpair").glob("*.py")))


def metadata(seed):
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "seed": seed, "src_loc": src_loc()}


def run_one(args):
    import_confpair()
    import workloads
    ops = workloads.build(args.workload, args.seed)
    if args.trace:
        metrics, attempted, failed, counts_differ = run_traced(ops, args.seconds)
    else:
        metrics, attempted, failed, raw_figures = run_plain(
            ops, args.seconds, lambda: setup_sample(args.workload, args.seed))
        counts_differ = False
    print(f"# {args.workload} trace={args.trace} {json.dumps(metadata(args.seed))}")
    for name, (value, unit, how) in metrics.items():
        print(f"  {name:38s} {value:14.6f} {unit:6s} {how}")
    print(f"  {'error_rate':38s} {failed / attempted:14.6f} {'ratio':6s} "
          f"{failed} failed of {attempted} attempted")
    if not args.trace:
        for name, (value, unit, how) in raw_figures.items():
            print(f"  {name:38s} {value:14.6f} {unit:6s} {how}")
    result = {
        "correct": failed == 0 and not counts_differ,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
