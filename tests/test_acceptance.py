"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 (the randomized oracle battery, 20 configurations) takes a
few seconds, like the rest.
"""

import numpy as np

from mirroratoms import coefficients as co
from mirroratoms import dynamics as dy
from mirroratoms import entanglement as en
from mirroratoms import sweeps as sw
from mirroratoms.cli import _oracle_report
from conftest import concurrence_oracle, random_unit_vector, random_x_state

X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)
Z = (0.0, 0.0, 1.0)


def _curve(cfg, init, times, include_boundary=True):
    cs = co.assemble(cfg, include_boundary=include_boundary)
    gen = dy.build_generator(cs)
    traj = dy.propagate(gen, dy.XState.preset(init), times)
    return en.concurrence_curve(traj), traj


def _representative_configs():
    """Configurations exercised by criteria 1-9, for the integrity sweep."""
    rng = np.random.default_rng(1)
    configs = [
        co.PhysicalConfig.from_ratios(0.5, 1.0, 1e3, "parallel",
                                      d1=X, d2=X),
        co.PhysicalConfig.from_ratios(0.5, 1.0, 1e-4, "parallel",
                                      d1=X, d2=Z),
        co.PhysicalConfig.from_ratios(0.5, 1.0, 1e-3, "parallel",
                                      d1=Y, d2=Y),
        co.PhysicalConfig.from_ratios(0.5, 1.0, 0.1, "vertical",
                                      d1=X, d2=X),
        co.PhysicalConfig.from_ratios(0.5, 1.0, 0.1, "parallel",
                                      d1=X, d2=X),
        co.PhysicalConfig.from_ratios(0.0, 1.0, 0.5, "parallel",
                                      d1=X, d2=Y),
        co.PhysicalConfig.from_ratios(0.5, 1.0, 0.5, "parallel",
                                      d1=X, d2=Y),
        co.PhysicalConfig.from_ratios(2.0 / 3.0, 1.0, 0.01, "parallel",
                                      d1=X, d2=Y),
    ]
    for _ in range(4):
        alignment = "parallel" if rng.uniform() < 0.5 else "vertical"
        configs.append(co.PhysicalConfig.from_ratios(
            rng.uniform(0.05, 2.0), rng.uniform(0.5, 2.0),
            rng.uniform(0.1, 2.0), alignment,
            d1=random_unit_vector(rng), d2=random_unit_vector(rng)))
    return configs


def test_criterion_1_detailed_balance(acceptance_report, rng):
    worst = 0.0
    for _ in range(100):
        alignment = "parallel" if rng.uniform() < 0.5 else "vertical"
        cfg = co.PhysicalConfig.from_ratios(
            rng.uniform(0.05, 2.0), rng.uniform(0.5, 2.0),
            rng.uniform(0.1, 3.0), alignment,
            d1=random_unit_vector(rng), d2=random_unit_vector(rng))
        cs = co.assemble(cfg)
        th = np.tanh(np.pi / cfg.a)
        for a_val, b_val in ((cs.A1, cs.B1), (cs.A2, cs.B2), (cs.A3, cs.B3)):
            worst = max(worst, abs(b_val - a_val * th)
                        / max(abs(a_val), 1e-12))
    cfg0 = co.PhysicalConfig.from_ratios(0.0, 1.0, 0.5, "vertical",
                                         d1=Y, d2=X)
    cs0 = co.assemble(cfg0)
    exact = (cs0.B1 == cs0.A1 and cs0.B2 == cs0.A2 and cs0.B3 == cs0.A3)
    acceptance_report(
        1, "detailed balance B_i = A_i tanh(pi w/a); B = A at a = 0",
        worst <= 1e-12 and exact, f"worst rel {worst:.2e}")


def test_criterion_2_free_space_recovery(acceptance_report):
    a, wl = 0.5, 1.0
    scale = 1.0 + a * a
    far_parallel = co.PhysicalConfig.from_ratios(a, wl, 1e3, "parallel")
    tensors = list(co.spectral_tensors(far_parallel, "boundary").values())
    far_vertical = co.PhysicalConfig.from_ratios(a, wl, 1e3, "vertical")
    tensors += co.spectral_tensors(far_vertical, "boundary").values()
    tensor_ok = max(np.max(np.abs(t)) for t in tensors) <= 1e-6 * scale

    times = np.linspace(0.0, 10.0, 201)
    worst = 0.0
    for alignment in ("parallel", "vertical"):
        cfg = co.PhysicalConfig.from_ratios(a, wl, 1e3, alignment,
                                            d1=X, d2=X)
        c_full, _ = _curve(cfg, "S", times)
        c_free, _ = _curve(cfg, "S", times, include_boundary=False)
        worst = max(worst, np.max(np.abs(c_full - c_free)))
    acceptance_report(
        2, "free-space recovery at y/L = 1e3 (tensors and trajectories)",
        tensor_ok and worst <= 1e-5,
        f"traj delta {worst:.2e}")


def test_criterion_3_frozen_dynamics(acceptance_report):
    cfg = co.PhysicalConfig.from_ratios(0.5, 1.0, 1e-4, "parallel",
                                        d1=X, d2=Z)
    cs = co.assemble(cfg)
    coeff_ok = np.max(np.abs(cs.as_array())) <= 1e-6
    times = np.linspace(0.0, 10.0, 201)
    curve, _ = _curve(cfg, "S", times)
    drift = np.max(np.abs(curve - curve[0]))
    acceptance_report(
        3, "tangential pair at the mirror freezes the dynamics",
        coeff_ok and drift <= 1e-6,
        f"max |coeff| {np.max(np.abs(cs.as_array())):.2e}, "
        f"C drift {drift:.2e}")


def test_criterion_4_factor_two_law(acceptance_report):
    cfg = co.PhysicalConfig.from_ratios(0.5, 1.0, 1e-3, "parallel",
                                        d1=Y, d2=Y)
    with_b = co.assemble(cfg).as_array()
    free = co.assemble(cfg, include_boundary=False).as_array()
    coeff_dev = np.max(np.abs(with_b - 2.0 * free) / np.abs(2.0 * free))

    times = np.linspace(0.0, 10.0, 201)
    gen_b = dy.build_generator(co.assemble(cfg))
    gen_f = dy.build_generator(co.assemble(cfg, include_boundary=False))
    c_b = en.concurrence_curve(
        dy.propagate(gen_b, dy.XState.symmetric(), times))
    c_f2 = en.concurrence_curve(
        dy.propagate(gen_f, dy.XState.symmetric(), 2.0 * times))
    curve_dev = np.max(np.abs(c_b - c_f2))
    acceptance_report(
        4, "normal dipoles at the mirror: rates double, C_b(t) = C_f(2t)",
        coeff_dev <= 1e-3 and curve_dev <= 1e-3,
        f"coeff dev {coeff_dev:.2e}, curve dev {curve_dev:.2e}")


def test_criterion_5_near_boundary_expansion(acceptance_report, rng):
    worst = 0.0
    for i in range(10):
        alignment = "parallel" if i % 2 == 0 else "vertical"
        cfg = co.PhysicalConfig.from_ratios(
            rng.uniform(0.1, 1.5), rng.uniform(0.5, 2.0), 1e-4, alignment,
            d1=random_unit_vector(rng), d2=random_unit_vector(rng))
        got = co.assemble(cfg).as_array()
        exp = co.near_boundary_expansion(cfg).as_array()
        worst = max(worst, np.max(np.abs(got - exp)) / np.max(np.abs(exp)))
    acceptance_report(
        5, "near-boundary power series matches assembly at y/L = 1e-4",
        worst <= 5e-3, f"worst rel {worst:.2e}")


def test_criterion_6_oracle_equivalence(acceptance_report):
    rng = np.random.default_rng(20180801)
    worst = 0.0
    failures = []
    for i in range(20):
        alignment = "parallel" if i % 2 == 0 else "vertical"
        cfg = co.PhysicalConfig.from_ratios(
            float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.1, 3.0)), alignment)
        status, report = _oracle_report(cfg)
        worst = max(worst, report["max_rel_error"])
        failures.extend(report["failures"])
    acceptance_report(
        6, "closed-form spectra match the quadrature oracle within 1%",
        worst <= 0.01 and not failures,
        f"worst rel {worst:.2e} over 20 configs")


def test_criterion_7_revival_phenomenology(acceptance_report):
    cfg = co.PhysicalConfig.from_ratios(0.5, 1.0, 0.1, "vertical",
                                        d1=X, d2=X)
    gen = dy.build_generator(co.assemble(cfg))
    ev = en.analyze_events(
        en.scan_trajectory(gen, dy.XState.symmetric(), 20.0))
    vertical_ok = len(ev.death_times) >= 1 and len(ev.revival_intervals) >= 1

    cfg_p = cfg.with_(alignment="parallel")
    gen_p = dy.build_generator(co.assemble(cfg_p))
    ev_p = en.analyze_events(
        en.scan_trajectory(gen_p, dy.XState.symmetric(), 20.0))
    acceptance_report(
        7, "vertical alignment revives entanglement, parallel does not",
        vertical_ok and not ev_p.revival_intervals,
        f"vertical deaths {len(ev.death_times)}, "
        f"revivals {len(ev.revival_intervals)}")


def test_criterion_8_inertial_separability(acceptance_report):
    cfg0 = co.PhysicalConfig.from_ratios(0.0, 1.0, 0.5, "parallel",
                                         d1=X, d2=Y)
    gen0 = dy.build_generator(co.assemble(cfg0))
    ev0 = en.analyze_events(
        en.scan_trajectory(gen0, dy.XState.excited(), 20.0))

    cfg5 = cfg0.with_(a=0.5)
    gen5 = dy.build_generator(co.assemble(cfg5))
    ev5 = en.analyze_events(
        en.scan_trajectory(gen5, dy.XState.excited(), 20.0))
    acceptance_report(
        8, "inertial cross-polarized atoms stay separable; accelerated "
           "ones entangle",
        ev0.max_c <= 1e-6 and len(ev5.birth_times) >= 1 and ev5.max_c > 0,
        f"a=0 max C {ev0.max_c:.2e}; a=1/2 max C {ev5.max_c:.3f}")


def test_criterion_9_boundary_entanglement_generation(acceptance_report):
    base = co.PhysicalConfig.from_ratios(2.0 / 3.0, 1.0, 0.01, "parallel",
                                         d1=X, d2=Y)
    grid = np.round(np.linspace(0.2, 2.6, 13), 6)
    spec = sw.SweepSpec(label="c9", base=base, axis="separation",
                        values=tuple(grid), initial_state="E", horizon=40.0,
                        outputs=("maxc",), include_free_space=True)
    res = sw.run_sweep(spec)
    max_with = max(r["max_c"] for r in res.rows)
    max_free = max(r["free_max_c"] for r in res.rows)
    acceptance_report(
        9, "boundary-enabled generation for x/y dipoles (none in free space)",
        max_with > 1e-4 and max_free <= 1e-6,
        f"with boundary {max_with:.3f}, free {max_free:.2e}")


def _rk4(m, v0, t_end, dt):
    """Classical RK4 for dv/dt = m v; m (k, 6, 6) and v0 (k, 6, 1) step k
    systems at once."""
    v = v0.copy()
    for _ in range(int(round(t_end / dt))):
        k1 = m @ v
        k2 = m @ (v + 0.5 * dt * k1)
        k3 = m @ (v + 0.5 * dt * k2)
        k4 = m @ (v + dt * k3)
        v = v + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


def test_criterion_10_dynamics_integrity(acceptance_report):
    worst_trace = 0.0
    worst_eig = 0.0
    worst_semi = 0.0
    times = np.linspace(0.0, 20.0, 101)
    pops, starts, ends = [], [], []
    for cfg in _representative_configs():
        cs = co.assemble(cfg)
        gen = dy.build_generator(cs)
        for init in (dy.XState.symmetric(), dy.XState.excited()):
            traj = dy.propagate(gen, init, times)
            for v, ge in zip(traj.vectors, traj.rho_ge):
                s = dy.XState.from_vector(v, rho_ge=ge)
                worst_trace = max(worst_trace,
                                  abs(s.pG + s.pE + s.pA + s.pS - 1.0))
                worst_eig = max(worst_eig, -s.min_eigenvalue())
            exact = traj.vectors[-1]
            pops.append(gen.block_pop)
            starts.append(init.vector())
            ends.append(exact)
            half = dy.propagate(gen, init, [10.0]).state_at(10.0)
            chained = dy.propagate(gen, half, [10.0]).vectors[0]
            worst_semi = max(worst_semi, np.max(np.abs(chained - exact)))
    stepped = _rk4(np.array(pops), np.array(starts)[..., None], 20.0, 1e-3)
    worst_rk4 = np.max(np.abs(np.array(ends) - stepped[..., 0]))
    ok = (worst_trace <= 1e-12 and worst_eig <= 1e-10
          and worst_rk4 <= 1e-8 and worst_semi <= 1e-10)
    acceptance_report(
        10, "trace, positivity, step-integrator and semigroup integrity",
        ok, f"trace {worst_trace:.1e}, eig {worst_eig:.1e}, "
            f"rk4 {worst_rk4:.1e}, semigroup {worst_semi:.1e}")


def test_criterion_11_concurrence_formula(acceptance_report, rng):
    worst = 0.0
    for _ in range(1000):
        s = random_x_state(rng)
        worst = max(worst, abs(en.concurrence_x(s)
                               - concurrence_oracle(s.density_matrix())))
    acceptance_report(
        11, "X-state concurrence equals the spin-flip oracle",
        worst <= 1e-12, f"worst delta {worst:.2e}")
