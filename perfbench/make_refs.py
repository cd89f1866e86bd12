"""Regenerate the reference tables in refs/ from the program in this checkout.

    python3 perfbench/make_refs.py

Each table freezes a workload's input pool together with the outputs the
program gives for it.  Run this only at a commit whose outputs are trusted:
the benchmark fails every op that drifts from these tables beyond the
tolerances in workloads.py.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time

import bench_env

bench_env.use_checkout_program()

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from mirroratoms import sweeps as sw  # noqa: E402

MAXC_PRESETS = tuple(f"fig{i}" for i in range(14, 22))
CURVE_PRESETS = tuple(f"fig{i}" for i in range(2, 14))
CURVE_HORIZON = 20.0
CURVE_SAMPLE_EVERY = 125        # 17 of the 2,001 rows
RATE_POOL_SEED = 20180725
RATE_LINES_PER_AXIS = 4
RATE_POINTS = 64
RATE_RANGES = {"a_over_omega": (0.0, 2.0), "omega_L": (0.15, 3.0),
               "y_over_L": (1e-2, 3.0)}


def _vec(v):
    return [float(x) for x in v]


def _timed(fn, *args):
    """(result, milliseconds); the cost ranks pool entries into passes."""
    start = time.perf_counter()
    out = fn(*args)
    return out, (time.perf_counter() - start) * 1e3


def _preset_points(names):
    presets = sw.figure_presets()
    for name in names:
        for spec in presets[name].specs:
            for value in spec.values:
                yield name, spec, value


def maxc_table():
    pool = []
    for name, spec, value in _preset_points(MAXC_PRESETS):
        b = spec.base
        entry = {
            "key": f"{name}/{spec.label}/{value!r}", "preset": name,
            "label": spec.label,
            "base": {"a_over_omega": b.a, "omega_L": b.L,
                     "y_over_L": b.y_over_L, "alignment": b.alignment,
                     "d1": _vec(b.d1), "d2": _vec(b.d2)},
            "axis": spec.axis, "value": value, "horizon": spec.horizon,
            "free": spec.include_free_space,
        }
        rebuilt = wl.maxc_spec(entry)
        want, got = spec.config_at(value), rebuilt.config_at(value)
        if (want.a, want.L, want.y) != (got.a, got.L, got.y):
            raise SystemExit(f"{entry['key']}: rebuilt config differs")
        result, entry["cost_ms"] = _timed(sw.run_sweep, rebuilt)
        row = result.rows[0]
        if row["error"]:
            raise SystemExit(f"{entry['key']}: {row['error']}")
        entry["ref"] = {k: row[k] for k in wl.MaxcScan.keys if k in row}
        pool.append(entry)
    return pool


def curve_table():
    pool = []
    with tempfile.TemporaryDirectory(dir=bench_env.BENCH_DIR) as tmp:
        path = f"{tmp}/trajectory.csv"
        for name, spec, value in _preset_points(CURVE_PRESETS):
            cfg = spec.config_at(value)
            entry = {
                "key": f"{name}/{spec.label}/{value!r}", "preset": name,
                "label": spec.label,
                "args": {"a": cfg.a, "omega_L": cfg.L,
                         "y_over_L": cfg.y_over_L, "alignment": cfg.alignment,
                         "d1": _vec(cfg.d1), "d2": _vec(cfg.d2),
                         "initial_state": spec.initial_state,
                         "horizon": CURVE_HORIZON},
            }
            (status, _), entry["cost_ms"] = _timed(wl.export_curve, entry,
                                                   path)
            if status != 0:
                raise SystemExit(f"{entry['key']}: exit {status}")
            _, rows = wl.read_curve_csv(path)
            entry["ref"] = {
                "n_rows": len(rows),
                "rows": {str(i): [float(x) for x in rows[i]]
                         for i in range(0, len(rows), CURVE_SAMPLE_EVERY)},
            }
            pool.append(entry)
    return pool


def rate_table():
    rng = np.random.default_rng(RATE_POOL_SEED)
    pool = []
    for alignment in ("parallel", "vertical"):
        for axis, (lo, hi) in RATE_RANGES.items():
            for k in range(RATE_LINES_PER_AXIS):
                d1, d2 = (rng.normal(size=3) for _ in range(2))
                fixed = {"a_over_omega": float(rng.uniform(0.0, 2.0)),
                         "omega_L": float(rng.uniform(0.15, 3.0)),
                         "y_over_L": float(np.exp(rng.uniform(
                             np.log(1e-2), np.log(3.0))))}
                del fixed[axis]
                grid = (np.geomspace if axis == "y_over_L" else np.linspace)
                entry = {
                    "key": f"{alignment}/{axis}/{k}", "alignment": alignment,
                    "axis": axis, "fixed": fixed,
                    "values": _vec(grid(lo, hi, RATE_POINTS)),
                    "d1": _vec(d1 / np.linalg.norm(d1)),
                    "d2": _vec(d2 / np.linalg.norm(d2)),
                }
                out = wl.rate_line(wl.line_configs(entry))
                entry["ref"] = {
                    "with": [_vec(cs.as_array()) for cs, _, _ in out],
                    "free": [_vec(cf.as_array()) for _, cf, _ in out],
                }
                pool.append(entry)
    return pool


TABLES = {"maxc_scan": maxc_table, "curve_export": curve_table,
          "rate_map": rate_table}


def main():
    wl.REFS.mkdir(exist_ok=True)
    for name in sorted(TABLES):
        pool = TABLES[name]()
        head = {"workload": name, "source_sha256": bench_env.source_digest()}
        path = wl.REFS / f"{name}.json"
        with open(path, "w") as fh:
            # one pool entry per line keeps regenerated tables diffable
            fh.write(json.dumps(head)[:-1] + ', "pool": [\n')
            fh.write(",\n".join(json.dumps(e) for e in pool))
            fh.write("\n]}\n")
        print(f"wrote {path} ({len(pool)} entries)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
