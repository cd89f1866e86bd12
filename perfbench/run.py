"""Benchmark of the mirroratoms engine: one closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout.  One client runs ops back to back for S seconds, checking
every output (see workloads.py).  ``--trace 0`` reports the end-to-end
metrics named in BENCHMARK.json; ``--trace 1`` runs the seed's first pass
alternately untraced and traced and reports the per-layer metrics.

The last stdout line is the result object; the line before it is a report
with the environment, sample counts, failures and the self-test.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import bench_env  # first: it pins the BLAS threads before numpy loads
import numpy as np

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
READY = "ready"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("maxc_scan", "curve_export", "oracle_battery",
                            "rate_map"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


class Tally:
    """Attempted and failed ops, latencies, and the first few errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.errors = []

    def record(self, seconds, errors):
        self.attempted += 1
        self.latencies.append(seconds)
        if errors:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("; ".join(errors))


def judge(wl, inp, out):
    """Errors of one op's output; an output that cannot be read is one."""
    try:
        return wl.verify(inp, wl.observe(out))
    except Exception as exc:  # the op counts as failed, the run goes on
        return [f"unreadable output: {exc!r}"]


def timed_op(wl, inp, tally, call=None):
    call = call or wl.run
    start = time.perf_counter()
    try:
        out = call(inp)
    except Exception as exc:  # a raising op is a failed op
        tally.record(time.perf_counter() - start, [f"raised {exc!r}"])
        return
    tally.record(time.perf_counter() - start, judge(wl, inp, out))


def self_test(wl, inp, out):
    """Feed perturbed copies of a correct output to the check.

    Returns {label: True when the op counted as failed}; the warm-up
    output itself must pass, under the label "unperturbed".
    """
    result = {"unperturbed": not wl.verify(inp, wl.observe(out))}
    for label, bad_inp, bad_obs in wl.perturbations(inp, out):
        result[label] = bool(wl.verify(bad_inp, bad_obs))
    return result


def setup(name, workdir):
    """Build the workload, run and check one warm-up op."""
    import workloads

    wl = workloads.make(name, workdir)
    out = wl.run(wl.warmup)
    return wl, self_test(wl, wl.warmup, out)


# The host is shared and its speed drifts by up to 1.6x within seconds and
# over tens of seconds.  A fixed slice of work in the style of the ops
# (interpreted float and complex arithmetic, 6x6 numpy products, small
# frozen objects) runs before every op and after the last; each op's time
# is scaled by CAL_REF_S / (mean of the slices on either side of it), i.e.
# reported at the host speed where one slice takes CAL_REF_S.  The slices
# are benchmark code, so a change to the program moves the scaled times as
# much as the raw ones.
CAL_REF_S = 2e-3
_CAL_STEPS = 700
_CAL_M = np.eye(6) * 0.5


@dataclass(frozen=True)
class _Sample:
    t: float
    z: complex


def calibration_slice():
    start = time.perf_counter()
    v = np.ones(6)
    acc = 0.0
    kept = []
    for i in range(_CAL_STEPS):
        v = _CAL_M @ v + 1.0
        acc += math.sqrt(float(v[0]) + i) - abs(cmath.exp(0.5j * i))
        kept.append(_Sample(acc, complex(acc, i)))
    return time.perf_counter() - start


def host_speed(slices=5):
    """Speed of the host now relative to the reference (1 = nominal)."""
    return CAL_REF_S * slices / sum(calibration_slice() for _ in range(slices))


def probe_setup_seconds(args):
    """Set-up time of fresh processes, start to first op ready, each scaled
    to reference host speed by slices run just before and after it."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        before = host_speed()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=bench_env.ROOT) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line != READY or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append((elapsed, 0.5 * (before + host_speed())))
    return samples


def hd_quantile(xs, q):
    """Harrell-Davis estimate of the q-quantile.

    A beta-weighted mean of all order statistics.  maxc_scan latencies are
    bimodal (points with and without the free-space companion), and its
    median falls in the gap between the modes, where a single order
    statistic jumps with each op's timing noise.
    """
    from scipy.special import betainc

    x = np.sort(xs)
    n = len(x)
    w = np.diff(betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n))
    return float(w @ x)


def latency_metrics(lat):
    p50, p90 = hd_quantile(lat, 0.5), hd_quantile(lat, 0.9)
    return {"ops_per_s": len(lat) / sum(lat), "op_ms_p50": p50 * 1e3,
            "op_ms_p90": p90 * 1e3}, sum(x > p90 for x in lat)


def run_pass(wl, inputs, tally, call=None):
    """Run one pass between calibration slices.

    Returns each op's time scaled to reference host speed, and the mean
    host speed over the pass.
    """
    done = len(tally.latencies)
    cals = []
    for inp in inputs:
        cals.append(calibration_slice())
        timed_op(wl, inp, tally, call)
    cals.append(calibration_slice())
    raw = tally.latencies[done:]
    scaled = [x * 2 * CAL_REF_S / (cals[k] + cals[k + 1])
              for k, x in enumerate(raw)]
    return scaled, CAL_REF_S * len(cals) / sum(cals)


def end_to_end(wl, args, tally):
    """Whole passes for ``args.seconds``; op times at reference host speed.

    Every pass has the same cost profile, so a cut pass would bias the
    mix; the loop stops at the first pass boundary after ``args.seconds``.
    """
    passes = wl.passes(args.seed)
    scaled = []
    speeds = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        lat, speed = run_pass(wl, next(passes), tally)
        scaled.extend(lat)
        speeds.append(speed)
    metrics, beyond = latency_metrics(scaled)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    raw_metrics, _ = latency_metrics(tally.latencies)
    info = {"passes": len(speeds), "ops_beyond_p90": beyond,
            "host_speed": {"min": min(speeds), "median":
                           statistics.median(speeds), "max": max(speeds)},
            "unscaled": raw_metrics, "loop_s": time.perf_counter() - start}
    return metrics, info


def traced(wl, args, tally):
    """The seed's first pass, untraced then traced, until ``args.seconds``.

    Counts are per op over whole traced passes of the same inputs, so they
    repeat exactly; times are scaled to reference host speed like the
    end-to-end ones.
    """
    import layertrace

    inputs = next(wl.passes(args.seed))
    tracer = layertrace.Tracer()
    busy = {"untraced": 0.0, "traced": 0.0}
    speeds = {"untraced": [], "traced": []}
    start = time.perf_counter()
    while not speeds["traced"] or time.perf_counter() - start < args.seconds:
        lat, speed = run_pass(wl, inputs, tally)
        busy["untraced"] += sum(lat)
        speeds["untraced"].append(speed)
        restore = layertrace.install(tracer)
        try:
            lat, speed = run_pass(wl, inputs, tally,
                                  lambda i: tracer.run_op(wl.run, i))
        finally:
            restore()
        busy["traced"] += sum(lat)
        speeds["traced"].append(speed)
    pairs = len(speeds["traced"])
    metrics = layertrace.layer_metrics(
        tracer, statistics.mean(speeds["traced"]))
    for mode, seconds in busy.items():
        metrics[f"trace.ops_per_s_{mode}"] = len(inputs) * pairs / seconds
    metrics["trace.overhead_frac"] = 1.0 - busy["untraced"] / busy["traced"]
    dump = (bench_env.BENCH_DIR / "out"
            / f"trace-{args.workload}-seed{args.seed}.json")
    tracer.dump(str(dump))
    info = {"pass_ops": len(inputs), "pairs": pairs,
            "host_speed": {m: statistics.mean(v) for m, v in speeds.items()},
            "loop_s": time.perf_counter() - start, "spans": str(dump)}
    return metrics, info


def declared_metrics(trace_on):
    with open(bench_env.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace_on else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    try:
        bench_env.use_checkout_program()
    except bench_env.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    out_dir = bench_env.BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=out_dir, prefix="run-")
    try:
        if args.setup_probe:
            setup(args.workload, workdir)
            print(READY, flush=True)
            return 0
        declared = declared_metrics(args.trace)
        probes = [] if args.trace else probe_setup_seconds(args)
        wl, selftest = setup(args.workload, workdir)
        tally = Tally()
        if args.trace:
            metrics, info = traced(wl, args, tally)
        else:
            metrics, info = end_to_end(wl, args, tally)
            metrics["setup_s"] = statistics.median(t * f for t, f in probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = set(declared) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    correct = tally.failed == 0 and all(selftest.values())
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": bench_env.environment(args.seed),
        "closed_loop_clients": 1,
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "errors": tally.errors, "selftest": selftest,
        "setup_probes_s_and_host_speed": probes,
        **info,
        "all_metrics": metrics,
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
