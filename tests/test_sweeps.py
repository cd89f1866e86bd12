"""Sweep driver determinism, presets, and companion-column consistency."""

import hashlib
import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from mirroratoms import coefficients as co
from mirroratoms import dynamics as dy
from mirroratoms import entanglement as en
from mirroratoms import sweeps as sw
import shadow

X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)


def small_spec(**kw):
    base = co.PhysicalConfig.from_ratios(0.5, 1.0, 0.5, "vertical",
                                         d1=X, d2=X)
    defaults = dict(label="t", base=base, axis="boundary_distance",
                    values=(0.1, 0.7), initial_state="S", horizon=10.0,
                    sample_step=0.02, outputs=("maxc", "events"))
    defaults.update(kw)
    return sw.SweepSpec(**defaults)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(axis="frequency")
    with pytest.raises(ValueError):
        small_spec(values=())
    with pytest.raises(ValueError):
        small_spec(values=(np.inf,))
    with pytest.raises(ValueError):
        small_spec(outputs=("maxc", "plot"))
    with pytest.raises(ValueError):
        small_spec(horizon=-1.0)


def test_axis_semantics():
    spec = small_spec(axis="acceleration")
    assert spec.config_at(0.9).a == 0.9
    spec = small_spec(axis="separation")
    c = spec.config_at(2.0)
    assert c.L == 2.0
    assert abs(c.y_over_L - 0.5) < 1e-15  # ratio preserved
    spec = small_spec(axis="boundary_distance")
    assert abs(spec.config_at(0.25).y - 0.25) < 1e-15


def test_run_sweep_is_deterministic():
    spec = small_spec()
    first = sw.run_sweep(spec)
    second = sw.run_sweep(spec)
    assert first.rows == second.rows


def test_overflowing_point_records_a_rate_error():
    res = sw.run_sweep(small_spec(axis="acceleration", values=(0.5, 1e80)))
    ok, failed = res.rows
    assert ok["error"] == ""
    assert failed["error"].startswith(
        "closed-form rates overflow at a/omega = 1e+80, omega*L = 1.0, "
        "y/L = 0.5 (vertical alignment)")


def test_rows_carry_the_point_parameters():
    res = sw.run_sweep(small_spec())
    assert [r["axis_value"] for r in res.rows] == [0.1, 0.7]
    assert all(r["alignment"] == "vertical" for r in res.rows)
    assert all(r["error"] == "" for r in res.rows)
    assert res.rows[0]["max_c"] == pytest.approx(1.0, abs=1e-9)


def test_curve_output_and_free_space_companion():
    spec = small_spec(values=(1e3,), outputs=("curve", "maxc"),
                      include_free_space=True, horizon=5.0)
    res = sw.run_sweep(spec)
    row = res.rows[0]
    curve = res.curves[0]
    # right against the free-space companion at y/L = 1e3
    assert np.max(np.abs(curve["concurrence"]
                         - curve["free_concurrence"])) <= 1e-5
    assert abs(row["max_c"] - row["free_max_c"]) <= 1e-5


def test_point_failures_are_recorded_not_raised():
    spec = small_spec(axis="separation", values=(1.0, -2.0))
    res = sw.run_sweep(spec)
    assert res.rows[0]["error"] == ""
    assert "positive" in res.rows[1]["error"]


@pytest.mark.parametrize("axis, values, message", [
    ("separation", (1.0, -2.0), "separation value -2.0: separation L must"),
    ("boundary_distance", (0.1, 0.0, 0.7),
     "boundary_distance value 0.0: boundary distance y must"),
    ("acceleration", (0.5, -0.1), "acceleration value -0.1: acceleration"),
    ("time", (-1.0, 2.0), "times must be non-negative and ascending"),
    ("time", (0.0, 3.0, 1.0), "times must be non-negative and ascending"),
])
def test_check_grid_refuses_a_value_no_point_can_take(axis, values,
                                                      message):
    # the grid's extreme values stand for all of them; a time grid must be
    # one that propagate accepts
    with pytest.raises(ValueError, match=f"^{message}"):
        small_spec(axis=axis, values=values).check_grid()
    small_spec(axis=axis, values=(0.5, 1.0)).check_grid()


def test_every_preset_grid_passes_its_check():
    for preset in sw.figure_presets().values():
        for spec in preset.specs:
            spec.check_grid()


def test_frozen_point_is_flagged():
    base = co.PhysicalConfig.from_ratios(0.5, 1.0, 1e-4, "parallel",
                                         d1=X, d2=(0.0, 0.0, 1.0))
    spec = sw.SweepSpec(label="frozen", base=base, axis="acceleration",
                        values=(0.5,), initial_state="S", horizon=2.0,
                        outputs=("maxc",))
    res = sw.run_sweep(spec)
    assert res.rows[0]["frozen"]
    assert res.rows[0]["max_c"] == pytest.approx(1.0, abs=1e-9)


def test_time_axis_judges_frozen_over_the_span_it_scans():
    # the largest rate is 5e-9 gamma0: below the 1e-6 decay threshold over
    # the default horizon (40), above it over the sampled 1,000
    base = co.PhysicalConfig.from_ratios(0.5, 1.0, 1e-4, "parallel",
                                         d1=X, d2=(0.0, 0.0, 1.0))
    spec = sw.SweepSpec(label="t", base=base, axis="time",
                        values=(0.0, 1.0, 1000.0), initial_state="S",
                        outputs=("maxc",))
    (row,) = sw.run_sweep(spec).rows
    assert row["horizon"] == 1000.0
    assert not row["frozen"]


def test_time_axis_returns_a_curve():
    spec = small_spec(axis="time", values=(0.0, 0.5, 1.0),
                      outputs=("curve",))
    res = sw.run_sweep(spec)
    curve = res.curves[0]
    assert list(curve["times"]) == [0.0, 0.5, 1.0]
    assert curve["concurrence"][0] == pytest.approx(1.0)


# ---------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------

def test_presets_cover_the_figure_range():
    presets = sw.figure_presets()
    for k in range(2, 17):
        assert f"fig{k}" in presets
    assert len(presets) >= 15


def test_fig2_preset_parameters():
    p = sw.figure_presets()["fig2"]
    assert len(p.specs) == 2
    for spec in p.specs:
        assert spec.values == (0.1, 0.7, 1.2)
        assert spec.base.a == 0.5
        assert spec.base.L == 1.0
        assert spec.initial_state == "S"
        assert spec.include_free_space
    assert {s.base.alignment for s in p.specs} == {"parallel", "vertical"}


def test_fig7_preset_parameters():
    p = sw.figure_presets()["fig7"]
    for spec in p.specs:
        assert spec.values == (0.3, 0.7, 1.2)
        assert abs(spec.base.L - 2.0 / 3.0) < 1e-15
        assert spec.initial_state == "E"


def test_boundary_distance_scan_presets_exist():
    # a y/L sweep at omega L = 1 with a in {0, 1/2, 1} (maximal concurrence)
    presets = sw.figure_presets()
    p = presets["fig19"]
    accels = {s.base.a for s in p.specs}
    assert accels == {0.0, 0.5, 1.0}
    assert all(s.axis == "boundary_distance" for s in p.specs)
    assert all(s.base.L == 1.0 for s in p.specs)


def test_window_edge_refinement():
    base = co.PhysicalConfig.from_ratios(0.5, 1.0, 0.5, "parallel",
                                         d1=X, d2=Y)
    spec = sw.SweepSpec(label="edge", base=base, axis="acceleration",
                        values=(0.1,), initial_state="E", horizon=15.0,
                        outputs=("maxc",))
    # entanglement generation dies out at large a; bracket the edge
    edge = sw.refine_window_edge(spec, 0.5, 3.0, threshold=1e-4,
                                 axis_tol=1e-3)
    assert 0.5 < edge < 3.0
    lo = sw.run_sweep(sw.SweepSpec(label="e", base=base, axis="acceleration",
                                   values=(edge - 0.05,), initial_state="E",
                                   horizon=15.0, outputs=("maxc",)))
    hi = sw.run_sweep(sw.SweepSpec(label="e", base=base, axis="acceleration",
                                   values=(edge + 0.05,), initial_state="E",
                                   horizon=15.0, outputs=("maxc",)))
    assert (lo.rows[0]["max_c"] > 1e-4) != (hi.rows[0]["max_c"] > 1e-4)


# ---------------------------------------------------------------------
# points that output max C alone
# ---------------------------------------------------------------------

def _preset_point(preset, label, value, **fields):
    spec = next(s for s in sw.figure_presets()[preset].specs
                if s.label == label)
    return replace(spec, values=(value,), **fields)


def _state_at_calls(monkeypatch, spec):
    """The row of a one-point sweep and its state_at calls per trajectory."""
    calls = Counter()
    state_at = dy.Trajectory.state_at

    def counted(traj, tau):
        calls[id(traj)] += 1
        return state_at(traj, tau)

    monkeypatch.setattr(dy.Trajectory, "state_at", counted)
    (row,) = sw.run_sweep(spec).rows
    assert row["error"] == ""
    return row, sorted(calls.values())


def test_max_c_point_refines_no_crossing(monkeypatch):
    # fig16 vertical_xy at a = 1/2: one birth with the mirror, a death and
    # a birth in free space.  Golden-section search over two sample steps
    # to 1e-6 takes 24 evaluations; bisecting a crossing takes 14 more
    spec = _preset_point("fig16", "vertical_xy", 0.5)
    row, calls = _state_at_calls(monkeypatch, spec)
    _, with_events = _state_at_calls(
        monkeypatch, replace(spec, outputs=("maxc", "events")))
    assert len(calls) == 2 and max(calls) <= 25
    assert sum(calls) < sum(with_events)
    assert "n_births" not in row


@pytest.mark.parametrize("point", [
    ("fig16", "parallel_xy", 0.05),    # C flat to round-off at its maximum
    ("fig20", "parallel_a0", 0.15),    # a = 0: max C is round-off
    ("fig19", "vertical_a0", 0.05),    # refined on the expm tail
])
def test_max_c_alone_equals_max_c_with_events(point):
    spec = _preset_point(*point)
    alone = sw.run_sweep(spec).rows[0]
    with_events = sw.run_sweep(
        replace(spec, outputs=("maxc", "events"))).rows[0]
    keys = [p + k for p in ("", "free_") for k in ("max_c", "max_c_time")
            if p + k in with_events]
    assert alone["error"] == with_events["error"] == ""
    assert {k: alone[k].hex() for k in keys} == {
        k: with_events[k].hex() for k in keys}


def test_one_sample_max_c_point_needs_two_samples():
    spec = small_spec(axis="time", values=(1.0,), outputs=("maxc",))
    (row,) = sw.run_sweep(spec).rows
    assert row["error"] == "need at least two samples"


def test_refined_max_c_is_exact_at_its_time():
    # vertical, a = 0, y/L = 0.275: the grid leaves the eig route at its
    # first drifting time, and a refinement past that time must not go
    # back to eig values that drift by 1e-14
    spec = _preset_point("fig19", "vertical_a0", 0.275338)
    row = sw.run_sweep(spec).rows[0]
    assert row["error"] == ""
    gen = dy.build_generator(co.assemble(spec.config_at(spec.values[0])))
    exact = shadow.concurrence(gen, dy.XState.excited(), row["max_c_time"])
    assert abs(row["max_c"] - exact) <= 1e-15


# ---------------------------------------------------------------------
# max C against the 40-digit shadow where C is flat to round-off
# ---------------------------------------------------------------------

# Where C > 0, max C lies within delta = _MAXC_DELTA of the exact maximum
# C*, and its time within max(10 REFINE_TOL, sqrt(2 delta / |C''|)) of t*,
# since every time where C* - C <= delta may win; where the exact C is 0,
# max C <= delta.  delta is 18 ulps of 1: each K is a difference of roots of
# O(1) populations, and the rows lie within 1e-15 of the exact ones.  Each
# point's columns with C* > 0:
_SHADOW_MAXC = {
    ("fig14", "vertical_xx", 0.5): ("max_c", "free_max_c"),
    ("fig16", "parallel_xy", 0.05): ("max_c",),     # |C''| = 9.4e-9
    ("fig18", "parallel_a0", 0.15): (),             # a = 0
    ("fig20", "parallel_a0", 0.15): (),
}
_MAXC_DELTA = 4e-15


@pytest.mark.parametrize("point", sorted(_SHADOW_MAXC),
                         ids=lambda p: "-".join(map(str, p)))
def test_max_c_lies_within_its_contract_of_the_shadow(point):
    spec = _preset_point(*point)
    row = sw.run_sweep(spec).rows[0]
    assert row["error"] == ""
    s0 = dy.XState.preset(spec.initial_state)
    for key, boundary in (("max_c", True), ("free_max_c", False)):
        if key not in row:
            continue
        gen = dy.build_generator(co.assemble(spec.config_at(point[2]),
                                             include_boundary=boundary))
        max_c, max_c_time = row[key], row[key + "_time"]
        if key not in _SHADOW_MAXC[point]:
            assert shadow.concurrence(gen, s0, max_c_time) == 0
            assert max_c <= _MAXC_DELTA
            continue
        c_star, t_star, curvature = shadow.max_c(gen, s0, max_c_time)
        window = max(10 * en.REFINE_TOL,
                     math.sqrt(2 * _MAXC_DELTA / curvature))
        assert abs(max_c - c_star) <= _MAXC_DELTA, (max_c, c_star)
        assert abs(max_c_time - t_star) <= window, (max_c_time, t_star)


# ---------------------------------------------------------------------
# every field of every preset spec
# ---------------------------------------------------------------------

def _preset_records():
    records = []
    for name, preset in sw.figure_presets().items():
        for spec in preset.specs:
            base = spec.base
            records.append({
                "preset": name, "label": spec.label,
                "base": {"a": base.a, "L": base.L, "y": base.y,
                         "alignment": base.alignment,
                         "d1": base.d1.tolist(), "d2": base.d2.tolist(),
                         # every preset runs in units of Gamma0, and the
                         # pinned digest covers this entry
                         "gamma0": 1.0},
                "axis": spec.axis, "values": list(spec.values),
                "initial_state": spec.initial_state,
                "horizon": spec.horizon, "sample_step": spec.sample_step,
                "outputs": list(spec.outputs),
                "include_free_space": spec.include_free_space})
    return records


_PRESET_DIGEST = (
    "09c79bac1b09f91df9d30b98801a18453669f03cfd1bf585ac6cbd2f1d296917")


def test_preset_specs_are_pinned():
    # the digest of all 62 specs as the presets were first written; a
    # change to any figure's parameters must update it knowingly
    records = _preset_records()
    assert len(records) == 62
    digest = hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == _PRESET_DIGEST
