"""The four benchmark workloads: input pools, seeded passes, ops and checks.

Every workload is a closed loop with one client: the harness sends an op,
waits for it, checks its output, and only then sends the next.  An op's
inputs are built before it is timed, so the program receives only the
generated inputs.

Inputs of ``maxc_scan``, ``curve_export`` and ``rate_map`` come from pools
frozen in ``refs/<workload>.json`` together with the outputs the program
gave for them (``make_refs.py`` regenerates the tables).  The run seed
picks and orders pool entries.  ``oracle_battery`` draws its
configurations from the seed the way ``mirroratoms validate`` does and is
checked against the closed forms instead of a table.

Each workload exposes

    warmup          one fixed input, run once during set-up
    passes(seed)    endless iterator of input lists; a pass is a stratified
                    draw, so its cost varies little from seed to seed
    run(inp)        the op (the only timed call)
    observe(out)    plain data of what the check looks at
    verify(inp, obs)        list of error strings, empty when correct
    perturbations(inp, out) (label, inp, obs) triples of a corrupted output
                            and the input to check it against; the check
                            must fail every one
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from mirroratoms import cli
from mirroratoms import coefficients as co
from mirroratoms import correlations as fc
from mirroratoms import dynamics as dy
from mirroratoms import entanglement as en
from mirroratoms import sweeps as sw

REFS = Path(__file__).resolve().parent / "refs"

TIME_TOL = 10 * inspect.signature(
    en.analyze_events).parameters["refine_tol"].default
CONC_TOL = 1e-9
TRACE_TOL = 1e-12


def load_refs(name):
    with open(REFS / f"{name}.json") as fh:
        return json.load(fh)


def _close(got, want, tol):
    return got is not None and abs(got - want) <= tol


def _cost_ranked_passes(pool, size, rng):
    """Passes of ``size`` entries with the same cost profile; forever.

    The pool is sorted by each entry's cost at the table's commit
    (``cost_ms``) and split into ``size`` groups of neighbouring cost; a
    pass takes one entry from every group, uniformly, in shuffled order.
    Group sizes differ by at most one, so every entry is about equally
    likely, and a run's latency quantiles depend on the seed far less than
    under plain random draws.
    """
    ranked = sorted(pool, key=lambda e: e["cost_ms"])
    groups = [ranked[i * len(ranked) // size:(i + 1) * len(ranked) // size]
              for i in range(size)]
    while True:
        picks = [g[rng.integers(len(g))] for g in groups]
        yield [picks[i] for i in rng.permutation(size)]


# ---------------------------------------------------------------------------
# maxc_scan
# ---------------------------------------------------------------------------

def maxc_spec(entry):
    """Single-value SweepSpec of one fig14-fig21 grid point."""
    b = entry["base"]
    base = co.PhysicalConfig.from_ratios(
        b["a_over_omega"], b["omega_L"], b["y_over_L"], b["alignment"],
        d1=b["d1"], d2=b["d2"])
    return sw.SweepSpec(label=entry["label"], base=base, axis=entry["axis"],
                        values=(entry["value"],), initial_state="E",
                        horizon=entry["horizon"], outputs=("maxc",),
                        include_free_space=entry["free"])


class MaxcScan:
    """One max-C scan point (init E, horizon 40, 4,001 samples) per op."""

    name = "maxc_scan"
    keys = ("max_c", "max_c_time", "free_max_c", "free_max_c_time")
    pass_size = 16

    def __init__(self):
        self.pool = load_refs(self.name)["pool"]
        self.warmup = self._input(self.pool[0])

    def _input(self, entry):
        return entry, maxc_spec(entry)

    def passes(self, seed):
        rng = np.random.default_rng(seed)
        for picks in _cost_ranked_passes(self.pool, self.pass_size, rng):
            yield [self._input(e) for e in picks]

    def run(self, inp):
        return sw.run_sweep(inp[1])

    def observe(self, out):
        row = out.rows[0]
        obs = {k: row.get(k) for k in self.keys if k in row}
        obs["error"] = row["error"]
        return obs

    def verify(self, inp, obs):
        entry = inp[0]
        errors = []
        if obs["error"]:
            errors.append(f"point failed: {obs['error']}")
        prefixes = ("", "free_") if entry["free"] else ("",)
        for p in prefixes:
            c, t = obs.get(p + "max_c"), obs.get(p + "max_c_time")
            if c is None or t is None:
                errors.append(f"missing {p}max_c")
                continue
            if not (0.0 <= c <= 1.0 and 0.0 <= t <= entry["horizon"]):
                errors.append(f"{p}max_c {c} at {t} out of range")
            if not _close(c, entry["ref"][p + "max_c"], CONC_TOL):
                errors.append(f"{p}max_c {c!r} != {entry['ref'][p + 'max_c']!r}")
            if not _close(t, entry["ref"][p + "max_c_time"], TIME_TOL):
                errors.append(f"{p}max_c_time {t!r} != "
                              f"{entry['ref'][p + 'max_c_time']!r}")
        return errors

    def perturbations(self, inp, out):
        obs = self.observe(out)
        yield "max_c + 1e-6", inp, {**obs, "max_c": obs["max_c"] + 1e-6}
        yield ("max_c_time + 1e-4", inp,
               {**obs, "max_c_time": obs["max_c_time"] + 1e-4})
        yield "point error", inp, {**obs, "error": "injected"}


# ---------------------------------------------------------------------------
# curve_export
# ---------------------------------------------------------------------------

CURVE_HEADER = list(cli._TRAJ_HEADER) + ["free_concurrence"]


def curve_argv(entry, path):
    a = entry["args"]
    return ["evolve", "--a", repr(a["a"]), "--omega-l", repr(a["omega_L"]),
            "--y-over-l", repr(a["y_over_L"]), "--alignment", a["alignment"],
            "--d1", ",".join(repr(x) for x in a["d1"]),
            "--d2", ",".join(repr(x) for x in a["d2"]),
            "--initial-state", a["initial_state"],
            "--horizon", repr(a["horizon"]), "--free-space-companion",
            "--output", str(path)]


def export_curve(entry, path):
    """Run ``mirroratoms evolve`` in process; (exit status, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(curve_argv(entry, path))
    return status, buf.getvalue()


def read_curve_csv(path):
    """(header, rows) of a trajectory CSV; rows as a float array."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
    return header, rows.reshape(len(lines) - 1, len(header))


class CurveExport:
    """One in-process ``mirroratoms evolve`` with CSV output per op."""

    name = "curve_export"
    pass_size = 22

    def __init__(self, workdir):
        self.pool = load_refs(self.name)["pool"]
        self.path = Path(workdir) / "trajectory.csv"
        self.warmup = self.pool[0]

    def passes(self, seed):
        rng = np.random.default_rng(seed)
        yield from _cost_ranked_passes(self.pool, self.pass_size, rng)

    def run(self, entry):
        return export_curve(entry, self.path)

    def observe(self, out):
        status, stdout = out
        header, rows = read_curve_csv(self.path)
        return {"status": status, "stdout": stdout, "header": header,
                "rows": rows}

    def verify(self, entry, obs):
        ref = entry["ref"]
        errors = []
        if obs["status"] != 0:
            errors.append(f"exit status {obs['status']}")
        if obs["stdout"] != f"wrote {self.path}\n":
            errors.append(f"unexpected stdout {obs['stdout']!r}")
        if obs["header"] != CURVE_HEADER:
            errors.append(f"header {obs['header']}")
            return errors
        rows = obs["rows"]
        if len(rows) != ref["n_rows"]:
            errors.append(f"{len(rows)} rows, expected {ref['n_rows']}")
            return errors
        drift = np.max(np.abs(rows[:, 1:5].sum(axis=1) - 1.0))
        if not drift <= TRACE_TOL:
            errors.append(f"trace drift {drift:.3e}")
        conc = rows[:, 9:11]
        if not (np.all(conc >= 0.0) and np.all(conc <= 1.0 + TRACE_TOL)):
            errors.append("concurrence outside [0, 1]")
        for i, want in ref["rows"].items():
            got = rows[int(i)]
            want = np.asarray(want)
            dt = abs(got[0] - want[0])
            dv = np.max(np.abs(got[1:] - want[1:]))
            if not (dt <= TRACE_TOL and dv <= CONC_TOL):
                errors.append(f"row {i} differs (time {dt:.2e}, "
                              f"values {dv:.2e})")
        return errors

    def perturbations(self, entry, out):
        obs = self.observe(out)
        rows = obs["rows"]
        yield "dropped row", entry, {**obs, "rows": rows[:-1]}
        bumped = rows.copy()
        bumped[int(next(iter(entry["ref"]["rows"]))), 9] += 1e-6
        yield "concurrence + 1e-6", entry, {**obs, "rows": bumped}
        leaky = rows.copy()
        leaky[1, 1] += 1e-11
        yield ("trace + 1e-11 off the sampled rows", entry,
               {**obs, "rows": leaky})
        yield "exit status 2", entry, {**obs, "status": 2}


# ---------------------------------------------------------------------------
# oracle_battery
# ---------------------------------------------------------------------------

VALIDATE_SEED = 20180801    # `mirroratoms validate` default


@dataclass(frozen=True)
class OracleOp:
    config_index: int
    cfg: co.PhysicalConfig
    part: str
    pair: tuple
    m: int
    n: int
    closed: float


def validate_configs(seed):
    """Configurations in the order `mirroratoms validate --seed` draws them."""
    rng = np.random.default_rng(seed)
    i = 0
    while True:
        alignment = "parallel" if i % 2 == 0 else "vertical"
        yield i, co.PhysicalConfig.from_ratios(
            float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.1, 3.0)), alignment)
        i += 1


def oracle_components(index, cfg, omega0=1.0):
    """The tensor components `_oracle_report` checks, in its order."""
    pref = co.spectral_prefactor(omega0, cfg.a)
    pairs = [(1, 1), (1, 2)] if cfg.alignment == "parallel" \
        else [(1, 1), (2, 2), (1, 2)]
    ops = []
    for part, sign in (("free", 1.0), ("boundary", -1.0)):
        for pair in pairs:
            tens = co.spectral_tensor(cfg, pair, part).entries
            for m in range(1, 4):
                for n in range(1, 4):
                    closed = sign * pref * tens[m - 1, n - 1]
                    if closed == 0.0 and (m, n) not in ((1, 1), (2, 2)):
                        continue
                    ops.append(OracleOp(index, cfg, part, pair, m, n,
                                        float(closed)))
    return ops


class OracleBattery:
    """One ``fourier_oracle`` tensor component per op.

    Op k checks one component, picked uniformly, of the k-th configuration
    `mirroratoms validate --seed` would draw.  Spreading a run over many
    configurations keeps its mean cost steady from seed to seed; the full
    battery of one configuration costs 2-4 s depending on the draw.
    """

    name = "oracle_battery"
    pass_size = 30

    def __init__(self):
        self.settings = fc.QuadratureSettings()
        index, cfg = next(validate_configs(VALIDATE_SEED))
        self.warmup = oracle_components(index, cfg)[0]

    def passes(self, seed):
        configs = validate_configs(seed)
        pick = np.random.default_rng([seed, 1])
        while True:
            ops = []
            for _ in range(self.pass_size):
                components = oracle_components(*next(configs))
                ops.append(components[pick.integers(len(components))])
            yield ops

    def run(self, op):
        return fc.fourier_oracle(op.part, op.m, op.n, op.pair, op.cfg, 1.0,
                                 self.settings)

    def observe(self, out):
        return {"value": out.value, "converged": out.converged,
                "message": out.message}

    def verify(self, op, obs):
        errors = []
        if not obs["converged"]:
            errors.append(f"not converged: {obs['message']}")
        scale = max(abs(op.closed), 1e-5)
        rel = abs(obs["value"] - op.closed) / scale
        if not rel <= 0.01:
            errors.append(f"config {op.config_index} {op.part} {op.pair} "
                          f"[{op.m}{op.n}]: relative error {rel:.3e} > 1%")
        return errors

    def perturbations(self, op, out):
        obs = self.observe(out)
        scale = max(abs(op.closed), 1e-5)
        yield ("value + 2% of scale", op,
               {**obs, "value": obs["value"] + 0.02 * scale})
        yield "not converged", op, {**obs, "converged": False}


# ---------------------------------------------------------------------------
# rate_map
# ---------------------------------------------------------------------------

def line_configs(entry):
    """The PhysicalConfigs along one rate_map line."""
    fixed = entry["fixed"]
    cfgs = []
    for v in entry["values"]:
        r = {**fixed, entry["axis"]: v}
        cfgs.append(co.PhysicalConfig.from_ratios(
            r["a_over_omega"], r["omega_L"], r["y_over_L"], entry["alignment"],
            d1=entry["d1"], d2=entry["d2"]))
    return cfgs


def rate_line(cfgs):
    """The op body: both rate sets and the generator of every config."""
    out = []
    for cfg in cfgs:
        cs = co.assemble(cfg)
        cf = co.assemble(cfg, include_boundary=False)
        out.append((cs, cf, dy.build_generator(cs)))
    return out


class RateMap:
    """One seeded line of configurations along one axis per op."""

    name = "rate_map"

    def __init__(self):
        self.pool = load_refs(self.name)["pool"]
        self.warmup = self._input(self.pool[0])

    def _input(self, entry):
        return entry, line_configs(entry)

    def passes(self, seed):
        # the pool is small and mixed (both alignments, all three axes), so
        # a pass is all of it in a seeded order
        rng = np.random.default_rng(seed)
        inputs = [self._input(e) for e in self.pool]
        while True:
            yield [inputs[i] for i in rng.permutation(len(inputs))]

    def run(self, inp):
        return rate_line(inp[1])

    def observe(self, out):
        with_b = np.array([cs.as_array() for cs, _, _ in out])
        free = np.array([cf.as_array() for _, cf, _ in out])
        colsum = max(float(np.max(np.abs(g.block_pop[:4, :4].sum(axis=0))))
                     / max(float(np.max(np.abs(g.block_pop))), 1e-300)
                     for _, _, g in out)
        return {"with": with_b, "free": free, "colsum": colsum}

    def verify(self, inp, obs):
        entry, cfgs = inp
        errors = []
        for key in ("with", "free"):
            got = obs[key]
            want = np.asarray(entry["ref"][key])
            if got.shape != want.shape:
                errors.append(f"{key}: shape {got.shape}")
                continue
            dev = np.abs(got - want) - (1e-12 + 1e-10 * np.abs(want))
            if np.any(dev > 0):
                errors.append(f"{key} rates differ by up to "
                              f"{np.max(np.abs(got - want)):.3e}")
            th = np.array([co.tanh_pi_over_a(c.a) for c in cfgs])[:, None]
            if np.any(np.abs(got[:, 3:] - got[:, :3] * th)
                      > 1e-12 * np.abs(got[:, :3]) + 1e-300):
                errors.append(f"{key}: B_i != A_i tanh(pi/a)")
        if not obs["colsum"] <= 1e-12:
            errors.append(f"generator population columns sum to "
                          f"{obs['colsum']:.3e}")
        return errors

    def perturbations(self, inp, out):
        obs = self.observe(out)
        bumped = obs["with"].copy()
        bumped[3, 2] += 1e-6
        yield "A3 + 1e-6", inp, {**obs, "with": bumped}
        # the same shift in the reference, so that only B_i = A_i tanh(pi/a)
        # can catch it
        entry, cfgs = inp
        detailed = obs["free"].copy()
        detailed[-1, 4] += 1e-9
        ref_free = [list(r) for r in entry["ref"]["free"]]
        ref_free[-1][4] = float(detailed[-1, 4])
        shifted = {**entry, "ref": {**entry["ref"], "free": ref_free}}
        yield ("B2 off A2 tanh(pi/a)", (shifted, cfgs),
               {**obs, "free": detailed})
        cs, cf, g = out[-1]
        m = g.block_pop.copy()
        m[0, 1] += 1e-9 * np.max(np.abs(m))
        leaky = out[:-1] + [(cs, cf, dy.Generator(m, g.rate_ge))]
        yield "generator leaks trace", inp, self.observe(leaky)


def make(name, workdir):
    if name == "curve_export":
        return CurveExport(workdir)
    return {"maxc_scan": MaxcScan, "oracle_battery": OracleBattery,
            "rate_map": RateMap}[name]()


NAMES = ("maxc_scan", "curve_export", "oracle_battery", "rate_map")
