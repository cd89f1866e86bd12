"""Parameter sweeps and the figure-preset scenarios.

A sweep varies one physical axis (acceleration, separation, boundary
distance, or just time) over a grid; every grid point independently runs
assemble -> generator -> exact propagation -> concurrence analysis, in
input order.  A point that fails records its error in its row.  A point
whose outputs are max C alone refines only the maximum, not the zero
crossings it would not report.

The presets reproduce the published curve families: concurrence vs time
for several boundary distances or accelerations, and maximal-concurrence
scans over a/omega, omega*L and y/L, with optional free-space companion
columns for the dashed-line comparisons.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import coefficients as co
from . import dynamics as dy
from . import entanglement as en

AXES = ("acceleration", "separation", "boundary_distance", "time")

X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)
Z = (0.0, 0.0, 1.0)

_FROZEN_TOL = 1e-6


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a base configuration plus an axis and its grid values.

    axis semantics:
      acceleration       values are a/omega
      separation         values are omega*L; y scales to keep y/L fixed
      boundary_distance  values are y/L at fixed L
      time               values are sample times for a single configuration
    """

    label: str
    base: co.PhysicalConfig
    axis: str
    values: tuple
    initial_state: str | dy.XState = "S"
    horizon: float = 40.0
    sample_step: float = 1e-2
    outputs: tuple = ("maxc", "events")
    include_free_space: bool = False

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}")
        # as in scan_size: JSON true/false are ints, strings pass float()
        if not isinstance(self.include_free_space, bool):
            raise ValueError("include_free_space must be true or false")
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   for v in self.values):
            raise ValueError("values must be numbers")
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("values must be non-empty")
        if not all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "outputs", tuple(self.outputs))
        en.scan_size(self.horizon, self.sample_step)
        bad = set(self.outputs) - {"curve", "events", "maxc"}
        if bad:
            raise ValueError(f"unknown outputs {sorted(bad)}")
        self.initial()  # ValueError if it names no state

    def check_grid(self):
        """Raise ValueError unless every grid value names a valid point:
        a configuration, or on the time axis ascending non-negative times.

        run_sweep records a point that fails in its row; this check lets a
        caller refuse such a grid before running any point.
        """
        if self.axis == "time":
            dy.sample_times(self.values)
            return
        # a grid point's configuration is valid on an interval of the axis,
        # so the extreme values stand for all of them
        for value in (min(self.values), max(self.values)):
            try:
                self.config_at(value)
            except ValueError as exc:
                raise ValueError(f"{self.axis} value {value!r}: {exc}") \
                    from exc

    def config_at(self, value):
        """Configuration of the grid point at the given axis value."""
        base = self.base
        if self.axis == "acceleration":
            return base.with_(a=float(value))
        if self.axis == "separation":
            ratio = base.y / base.L
            return base.with_(L=float(value), y=ratio * float(value))
        if self.axis == "boundary_distance":
            return base.with_(y=float(value) * base.L)
        return base

    def initial(self):
        return dy.XState.resolve(self.initial_state)

    @property
    def span(self):
        """Proper time the sweep scans: the last sample time of a time axis,
        the horizon otherwise."""
        return max(self.values) if self.axis == "time" else self.horizon


@dataclass
class SweepResult:
    spec: SweepSpec
    rows: list
    curves: dict = field(default_factory=dict)


def _evaluate_point(spec, value):
    row = {
        "label": spec.label,
        "axis": spec.axis,
        "axis_value": value,
        "alignment": spec.base.alignment,
        "a_over_omega": spec.base.a,
        "omega_L": spec.base.L,
        "y_over_L": spec.base.y_over_L,
        "initial_state": spec.initial_state if isinstance(
            spec.initial_state, str) else "custom",
        "horizon": spec.span,
        "error": "",
    }
    curve = {}
    try:
        cfg = spec.config_at(value)
        row.update(alignment=cfg.alignment, a_over_omega=cfg.a,
                   omega_L=cfg.L, y_over_L=cfg.y_over_L)
        s0 = spec.initial()
        variants = [("", True)]
        if spec.include_free_space:
            variants.append(("free_", False))
        for prefix, with_boundary in variants:
            cs = co.assemble(cfg, include_boundary=with_boundary)
            # no appreciable decay over the whole scan: dynamics frozen
            # a Python float product overflows to inf without a warning
            frozen = (max(abs(cs.A1), abs(cs.A2), abs(cs.A3), abs(cs.B1),
                          abs(cs.B2), abs(cs.B3)) * spec.span < _FROZEN_TOL)
            gen = dy.build_generator(cs)
            if spec.axis == "time":
                times = np.asarray(spec.values, dtype=float)
                traj = dy.propagate(gen, s0, times)
            else:
                traj = en.scan_trajectory(gen, s0, spec.horizon,
                                          spec.sample_step)
            row[prefix + "frozen"] = frozen
            if "curve" in spec.outputs or spec.axis == "time":
                curve[prefix + "times"] = traj.times
                curve[prefix + "concurrence"] = en.concurrence_curve(traj)
            if "events" in spec.outputs:
                ev = en.analyze_events(traj)
                if "maxc" in spec.outputs:
                    row[prefix + "max_c"] = ev.max_c
                    row[prefix + "max_c_time"] = ev.max_c_time
                row[prefix + "n_deaths"] = len(ev.death_times)
                row[prefix + "n_births"] = len(ev.birth_times)
                row[prefix + "n_revivals"] = len(ev.revival_intervals)
                row[prefix + "first_death"] = (
                    ev.death_times[0] if ev.death_times else float("nan"))
                row[prefix + "first_birth"] = (
                    ev.birth_times[0] if ev.birth_times else float("nan"))
                row[prefix + "truncated"] = ev.truncated
            elif "maxc" in spec.outputs:
                max_c, max_c_time = en.max_concurrence(traj)
                row[prefix + "max_c"] = max_c
                row[prefix + "max_c_time"] = max_c_time
    except (ValueError, RuntimeError) as exc:
        row["error"] = str(exc)
    return row, curve


def run_sweep(spec):
    """Evaluate a sweep; per-point failures land in the row, not raised."""
    values = spec.values[:1] if spec.axis == "time" else spec.values
    results = [_evaluate_point(spec, value) for value in values]
    rows = [r for r, _ in results]
    curves = {i: c for i, (_, c) in enumerate(results) if c}
    return SweepResult(spec=spec, rows=rows, curves=curves)


@dataclass(frozen=True)
class FigurePreset:
    name: str
    description: str
    specs: tuple


def _preset_spec(label, alignment, d1, d2, axis, values, a=0.5,
                 omega_L=1.0, y_over_L=0.5, **fields):
    """A preset sweep about the base point (a/omega, omega L, y/L); the
    remaining :class:`SweepSpec` fields are passed through."""
    base = co.PhysicalConfig.from_ratios(a, omega_L, y_over_L, alignment,
                                         d1=d1, d2=d2)
    return SweepSpec(label=label, base=base, axis=axis, values=values,
                     **fields)


def _curve_spec(label, alignment, d1, d2, init, axis, values, **kw):
    return _preset_spec(label, alignment, d1, d2, axis, values,
                        initial_state=init, horizon=20.0,
                        outputs=("curve", "events", "maxc"), **kw)


def _maxc_spec(label, alignment, d1, d2, axis, values,
               include_free_space=True, **kw):
    return _preset_spec(label, alignment, d1, d2, axis, values,
                        initial_state="E", outputs=("maxc",),
                        include_free_space=include_free_space, **kw)


_A_GRID = tuple(np.round(np.linspace(0.05, 2.0, 27), 6))
_WL_GRID = tuple(np.round(np.linspace(0.15, 3.0, 28), 6))
_YL_GRID = tuple(np.round(np.geomspace(0.05, 3.0, 25), 6))


def figure_presets():
    """Named sweep presets mirroring the published figure families.

    Numbering follows the order of appearance of the figures (the geometry
    sketch is figure 1).  Dipole labels in the descriptions: x is the
    acceleration direction, y the boundary normal, z the in-plane
    separation direction.
    """
    yl_s = (0.1, 0.7, 1.2)
    yl_e = (0.3, 0.7, 1.2)
    acc = (0.0, 0.1, 0.5, 1.0)
    acc_close = (0.0, 0.5, 0.8, 1.2)

    presets = {}

    def add(name, description, *specs):
        presets[name] = FigurePreset(name=name, description=description,
                                     specs=tuple(specs))

    add("fig2", "C(tau), init S, both dipoles x, wL=1, a=1/2, three y/L",
        _curve_spec("parallel", "parallel", X, X, "S", "boundary_distance",
                    yl_s, a=0.5, omega_L=1.0, include_free_space=True),
        _curve_spec("vertical", "vertical", X, X, "S", "boundary_distance",
                    yl_s, a=0.5, omega_L=1.0, include_free_space=True))
    add("fig3", "C(tau), init S, both dipoles x, wL=1, y/L=1/2, four a",
        _curve_spec("parallel", "parallel", X, X, "S", "acceleration",
                    acc, omega_L=1.0, y_over_L=0.5),
        _curve_spec("vertical", "vertical", X, X, "S", "acceleration",
                    acc, omega_L=1.0, y_over_L=0.5))
    add("fig4", "C(tau), init S, both dipoles y, wL=1, a=1/2, three y/L",
        _curve_spec("parallel", "parallel", Y, Y, "S", "boundary_distance",
                    yl_s, a=0.5, omega_L=1.0, include_free_space=True),
        _curve_spec("vertical", "vertical", Y, Y, "S", "boundary_distance",
                    yl_s, a=0.5, omega_L=1.0, include_free_space=True))
    add("fig5", "C(tau), init S, dipoles x (nearer) and y, wL=1, y/L=1/2",
        _curve_spec("parallel", "parallel", X, Y, "S", "acceleration",
                    acc, omega_L=1.0, y_over_L=0.5),
        _curve_spec("vertical", "vertical", X, Y, "S", "acceleration",
                    acc, omega_L=1.0, y_over_L=0.5))
    # for cross-polarized pairs coupled through the antisymmetric tensor
    # components (xz, yz) the atom assignment matters relative to the phase
    # of |S>; these assignments reproduce the published curves (no revival
    # for the acceleration/separation pair, revival achievable for the
    # normal/separation pair)
    add("fig6", "C(tau), init S, parallel only, dipoles x/z and z/y",
        _curve_spec("xz", "parallel", X, Z, "S", "acceleration",
                    acc, omega_L=1.0, y_over_L=0.5),
        _curve_spec("zy", "parallel", Z, Y, "S", "acceleration",
                    acc, omega_L=1.0, y_over_L=0.5))
    add("fig7", "C(tau), init E, both dipoles x, wL=2/3, a=1/2, three y/L",
        _curve_spec("parallel", "parallel", X, X, "E", "boundary_distance",
                    yl_e, a=0.5, omega_L=2.0 / 3.0, include_free_space=True),
        _curve_spec("vertical", "vertical", X, X, "E", "boundary_distance",
                    yl_e, a=0.5, omega_L=2.0 / 3.0, include_free_space=True))
    add("fig8", "C(tau), init E, both dipoles x, wL=1, y/L=1/2, four a",
        _curve_spec("parallel", "parallel", X, X, "E", "acceleration",
                    acc, omega_L=1.0, y_over_L=0.5),
        _curve_spec("vertical", "vertical", X, X, "E", "acceleration",
                    acc, omega_L=1.0, y_over_L=0.5))
    add("fig9", "C(tau), init E, both dipoles y, wL=2/3, a=1/2, three y/L",
        _curve_spec("parallel", "parallel", Y, Y, "E", "boundary_distance",
                    yl_e, a=0.5, omega_L=2.0 / 3.0, include_free_space=True),
        _curve_spec("vertical", "vertical", Y, Y, "E", "boundary_distance",
                    yl_e, a=0.5, omega_L=2.0 / 3.0, include_free_space=True))
    add("fig10", "C(tau), init E, dipoles x and separation direction",
        _curve_spec("parallel", "parallel", X, Z, "E", "boundary_distance",
                    yl_e, a=0.5, omega_L=2.0 / 3.0, include_free_space=True),
        _curve_spec("vertical", "vertical", X, Y, "E", "boundary_distance",
                    yl_e, a=0.5, omega_L=2.0 / 3.0, include_free_space=True))
    add("fig11", "C(tau), init E, dipoles x (nearer) and y, wL=1, y/L=1/2",
        _curve_spec("parallel", "parallel", X, Y, "E", "acceleration",
                    acc, omega_L=1.0, y_over_L=0.5),
        _curve_spec("vertical", "vertical", X, Y, "E", "acceleration",
                    acc, omega_L=1.0, y_over_L=0.5))
    add("fig12", "C(tau) very close to a parallel boundary, both dipoles y",
        _curve_spec("init_S", "parallel", Y, Y, "S", "acceleration",
                    acc_close, omega_L=1.0, y_over_L=0.01),
        _curve_spec("init_E", "parallel", Y, Y, "E", "acceleration",
                    acc_close, omega_L=1.0, y_over_L=0.01))
    add("fig13", "C(tau) very close to a vertical boundary, both dipoles y",
        _curve_spec("init_S", "vertical", Y, Y, "S", "acceleration",
                    acc_close, omega_L=1.0, y_over_L=0.01),
        _curve_spec("init_E", "vertical", Y, Y, "E", "acceleration",
                    acc_close, omega_L=1.0, y_over_L=0.01))
    add("fig14", "max C vs a/omega, init E, wL=1, y/L=1/100, dipoles xx/yy",
        *[_maxc_spec(f"{al}_{dn}", al, d, d, "acceleration", _A_GRID,
                     omega_L=1.0, y_over_L=0.01)
          for al in ("parallel", "vertical")
          for dn, d in (("xx", X), ("yy", Y))])
    add("fig15", "max C vs omega L, init E, a=2/3, y/L=1/100, dipoles xx/yy",
        *[_maxc_spec(f"{al}_{dn}", al, d, d, "separation", _WL_GRID,
                     a=2.0 / 3.0, y_over_L=0.01)
          for al in ("parallel", "vertical")
          for dn, d in (("xx", X), ("yy", Y))])
    add("fig16", "max C vs a/omega, init E, wL=1/2, y/L=1/100, dipoles xy/xz",
        *[_maxc_spec(f"{al}_{dn}", al, X, d2, "acceleration", _A_GRID,
                     omega_L=0.5, y_over_L=0.01)
          for al in ("parallel", "vertical")
          for dn, d2 in (("xy", Y), ("xz", Z))])
    add("fig17", "max C vs omega L, init E, a=2/3, y/L=1/100, dipoles xy",
        *[_maxc_spec(al, al, X, Y, "separation", _WL_GRID,
                     a=2.0 / 3.0, y_over_L=0.01)
          for al in ("parallel", "vertical")])
    add("fig18", "max C vs omega L, init E, y/L=1/2, dipoles xx, three a",
        *[_maxc_spec(f"{al}_a{anm}", al, X, X, "separation", _WL_GRID,
                     a=av, y_over_L=0.5, include_free_space=False)
          for al in ("parallel", "vertical")
          for anm, av in (("0", 0.0), ("05", 0.5), ("1", 1.0))])
    add("fig19", "max C vs y/L, init E, wL=1, dipoles xx, three a",
        *[_maxc_spec(f"{al}_a{anm}", al, X, X, "boundary_distance", _YL_GRID,
                     a=av, omega_L=1.0, include_free_space=False)
          for al in ("parallel", "vertical")
          for anm, av in (("0", 0.0), ("05", 0.5), ("1", 1.0))])
    add("fig20", "max C vs omega L, init E, y/L=1/2, dipoles xy, three a",
        *[_maxc_spec(f"{al}_a{anm}", al, X, Y, "separation", _WL_GRID,
                     a=av, y_over_L=0.5, include_free_space=False)
          for al in ("parallel", "vertical")
          for anm, av in (("0", 0.0), ("05", 0.5), ("1", 1.0))])
    add("fig21", "max C vs y/L, init E, wL=1, dipoles xy, three a",
        *[_maxc_spec(f"{al}_a{anm}", al, X, Y, "boundary_distance", _YL_GRID,
                     a=av, omega_L=1.0, include_free_space=False)
          for al in ("parallel", "vertical")
          for anm, av in (("0", 0.0), ("05", 0.5), ("1", 1.0))])

    return presets


def refine_window_edge(spec, lo, hi, threshold=1e-6, axis_tol=1e-3):
    """Bisect a sweep axis to locate the edge of a max-C > threshold window.

    Assumes max C crosses the threshold exactly once in [lo, hi]; returns
    the crossing refined to ``axis_tol`` in the axis unit.
    """

    def above(v):
        res = run_sweep(replace(spec, values=(v,), outputs=("maxc",),
                                include_free_space=False))
        row = res.rows[0]
        if row["error"]:
            raise RuntimeError(f"sweep point failed: {row['error']}")
        return row["max_c"] > threshold

    hi_above = above(hi)
    lo_above = above(lo)
    if lo_above == hi_above:
        raise ValueError("no threshold crossing bracketed by [lo, hi]")
    while hi - lo > axis_tol:
        mid = 0.5 * (lo + hi)
        if above(mid) == lo_above:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
