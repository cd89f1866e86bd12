"""Spans around the calls into the program's layers, recorded from outside.

The tracer replaces the module attributes that callers resolve at call
time (``co.assemble``, ``dy.propagate``, ``en.propagate`` ...) with
wrappers and puts the originals back afterwards; no file under ``src/``
knows about it.  A span is (name, start, end, parent index, op id).  A
layer's self time is its span's duration minus the time its child spans
cover, accumulated as spans close.

Two functions are called thousands of times per op (``electric_correlation``
about 11k times per oracle op, ``Trajectory.state_at`` inside event
refinement); they are leaves and are aggregated per (name, parent name)
instead of stored one span each, which keeps memory flat.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

from mirroratoms import cli
from mirroratoms import coefficients as co
from mirroratoms import correlations as fc
from mirroratoms import dynamics as dy
from mirroratoms import entanglement as en
from mirroratoms import sweeps as sw

OP = "op"
LAYERS = ("coefficients", "correlations", "dynamics", "entanglement",
          "sweeps", "cli")


class Tracer:
    def __init__(self):
        self.spans = []         # (name, start, end, parent, op)
        self._open = []         # [span index, child seconds, name]
        self.op = -1
        self.calls = defaultdict(int)
        self.total = defaultdict(float)     # inclusive seconds per name
        self.self_time = defaultdict(float)
        self.leaves = {}        # (name, parent name) -> [calls, seconds]
        self.counts = defaultdict(float)    # quantities seen at boundaries

    def span(self, name, fn, observe=None):
        clock = time.perf_counter
        spans, stack = self.spans, self._open

        def wrapped(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0, name]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                spans[frame[0]] = (name, start, end, parent, self.op)
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return wrapped

    def leaf(self, name, fn):
        clock = time.perf_counter
        stack, leaves = self._open, self.leaves

        def wrapped(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                parent = stack[-1] if stack else None
                key = (name, parent[2] if parent else None)
                agg = leaves.get(key)
                if agg is None:
                    agg = leaves[key] = [0, 0.0]
                agg[0] += 1
                agg[1] += dur
                if parent:
                    parent[1] += dur

        return wrapped

    def run_op(self, fn, *args):
        """Run one op under a root span named ``op``; ops are numbered."""
        self.op = self.calls[OP]
        return self.span(OP, fn)(*args)

    def leaf_calls(self, name, parent=None):
        return sum(c for (n, p), (c, _) in self.leaves.items()
                   if n == name and (parent is None or p == parent))

    def leaf_seconds(self, name):
        return sum(s for (n, _), (_, s) in self.leaves.items() if n == name)

    def dump(self, path):
        """Write spans and leaf aggregates as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": [list(s) for s in self.spans],
                       "leaves": [[n, p, c, s] for (n, p), (c, s)
                                  in sorted(self.leaves.items(), key=str)]},
                      fh)


def _count_propagate(counts, args, traj):
    counts["propagate.samples"] += len(traj.times)
    counts["propagate.expm"] += traj.method == "expm"


def _count_oracle(counts, args, res):
    counts["fourier_oracle.converged"] += bool(res.converged)


def _count_csv(counts, args, result):
    counts["write_csv.bytes"] += os.path.getsize(args[0])


def install(tracer):
    """Wrap the layer entry points; returns a function that restores them."""
    propagate = tracer.span("dynamics.propagate", dy.propagate,
                            _count_propagate)
    patches = [
        (co, "assemble", tracer.span("coefficients.assemble", co.assemble)),
        (dy, "build_generator",
         tracer.span("dynamics.build_generator", dy.build_generator)),
        (dy, "propagate", propagate),
        (en, "propagate", propagate),
        (dy.Trajectory, "state_at",
         tracer.leaf("dynamics.state_at", dy.Trajectory.state_at)),
        (en, "concurrence_curve",
         tracer.span("entanglement.concurrence_curve", en.concurrence_curve)),
        (en, "analyze_events",
         tracer.span("entanglement.analyze_events", en.analyze_events)),
        (sw, "run_sweep", tracer.span("sweeps.run_sweep", sw.run_sweep)),
        (fc, "fourier_oracle",
         tracer.span("correlations.fourier_oracle", fc.fourier_oracle,
                     _count_oracle)),
        (fc, "electric_correlation",
         tracer.leaf("correlations.electric_correlation",
                     fc.electric_correlation)),
        (cli, "main", tracer.span("cli.main", cli.main)),
        (cli, "write_csv",
         tracer.span("cli.write_csv", cli.write_csv, _count_csv)),
    ]
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
    for obj, attr, fn in patches:
        setattr(obj, attr, fn)

    def restore():
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)

    return restore


def _mean(total, n, scale=1.0):
    return total / n * scale if n else 0.0


def layer_metrics(tracer, speed=1.0):
    """Per-layer metrics of the traced ops, as {name: value}.

    Times are multiplied by ``speed``, the host's speed relative to the
    reference during the traced ops; counts and shares are not.
    """
    t = tracer
    us, ms = 1e6 * speed, 1e3 * speed
    ops = t.calls[OP]
    op_seconds = t.total[OP]
    layer_self = defaultdict(float)
    for name, s in t.self_time.items():
        layer_self[name.split(".")[0]] += s
    for (name, _), (_, s) in t.leaves.items():
        layer_self[name.split(".")[0]] += s

    prop_calls = t.calls["dynamics.propagate"]
    samples = t.counts["propagate.samples"]
    state_at = t.leaf_calls("dynamics.state_at")
    events = t.calls["entanglement.analyze_events"]
    oracle = t.calls["correlations.fourier_oracle"]
    corr = t.leaf_calls("correlations.electric_correlation")
    m = {
        "dynamics.propagate.calls": _mean(prop_calls, ops),
        "dynamics.propagate.samples": _mean(samples, ops),
        "dynamics.propagate.us_per_sample":
            _mean(t.self_time["dynamics.propagate"], samples, us),
        "dynamics.propagate.expm_frac":
            _mean(t.counts["propagate.expm"], prop_calls),
        "dynamics.state_at.calls": _mean(state_at, ops),
        "dynamics.state_at.us_mean":
            _mean(t.leaf_seconds("dynamics.state_at"), state_at, us),
        "dynamics.build_generator.us_mean":
            _mean(t.total["dynamics.build_generator"],
                  t.calls["dynamics.build_generator"], us),
        "entanglement.analyze_events.ms_self":
            _mean(t.self_time["entanglement.analyze_events"], events, ms),
        "entanglement.analyze_events.evals_per_call":
            _mean(t.leaf_calls("dynamics.state_at",
                               "entanglement.analyze_events"), events),
        "entanglement.concurrence_curve.ms_mean":
            _mean(t.total["entanglement.concurrence_curve"],
                  t.calls["entanglement.concurrence_curve"], ms),
        "cli.write_csv.ms_mean":
            _mean(t.total["cli.write_csv"], t.calls["cli.write_csv"], ms),
        "cli.write_csv.bytes_per_op": _mean(t.counts["write_csv.bytes"], ops),
        "coefficients.assemble.calls":
            _mean(t.calls["coefficients.assemble"], ops),
        "coefficients.assemble.us_mean":
            _mean(t.total["coefficients.assemble"],
                  t.calls["coefficients.assemble"], us),
        "correlations.fourier_oracle.ms_mean":
            _mean(t.total["correlations.fourier_oracle"], oracle, ms),
        "correlations.fourier_oracle.converged_frac":
            _mean(t.counts["fourier_oracle.converged"], oracle),
        "correlations.electric_correlation.calls_per_op": _mean(corr, ops),
        "correlations.electric_correlation.us_mean":
            _mean(t.leaf_seconds("correlations.electric_correlation"), corr,
                  us),
        "sweeps.run_sweep.ms_self":
            _mean(t.self_time["sweeps.run_sweep"], t.calls["sweeps.run_sweep"],
                  ms),
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = _mean(layer_self[layer], op_seconds)
    m["harness.share"] = _mean(t.self_time[OP], op_seconds)
    return m
