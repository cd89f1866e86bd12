"""Field correlation functions: symmetries, boundary conditions, and the
lock between the hand-derived kernel derivatives and numerical
differentiation."""

import cmath
import math

import numpy as np
import pytest

from mirroratoms.correlations import (
    FREE, BOUNDARY, CorrelationKernel, OracleConvergenceError,
    QuadratureSettings, TrajectoryParams, _adaptive_gk21, default_window,
    electric_correlation, fourier_oracle, pair_geometry,
)
from mirroratoms.coefficients import PhysicalConfig, spectral_prefactor

FOUR_PI_SQ = 4.0 * math.pi**2


# ---------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------

def test_orbit_is_hyperbola():
    traj = TrajectoryParams(a=0.7)
    for tau in (-2.0, 0.0, 0.3, 5.0):
        t, x = traj.lab_coords(tau)
        assert abs((x.real**2 - t.real**2) - 1.0 / 0.49) < 1e-12


def test_inertial_orbit_is_straight():
    traj = TrajectoryParams(a=0.0)
    t, x = traj.lab_coords(1.7)
    assert t == 1.7
    assert x == 0.0


def test_negative_acceleration_rejected():
    with pytest.raises(ValueError):
        TrajectoryParams(a=-0.1)


@pytest.mark.parametrize("a", [math.nan, math.inf])
def test_non_finite_acceleration_rejected(a):
    with pytest.raises(ValueError, match="acceleration must be finite"):
        TrajectoryParams(a=a)


# ---------------------------------------------------------------------
# electric_correlation
# ---------------------------------------------------------------------

def _kernel(kind=FREE, y=1.0, yp=1.0, dz=0.0, eps=1e-3):
    return CorrelationKernel(kind=kind, y=y, y_prime=yp, dz=dz, epsilon=eps)


def test_rejects_bad_axis_indices():
    k = _kernel()
    with pytest.raises(ValueError):
        electric_correlation(k, 0, 1, 0.1, 0.0, 0.5)
    with pytest.raises(ValueError):
        electric_correlation(k, 1, 4, 0.1, 0.0, 0.5)


def test_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError):
        CorrelationKernel(kind=FREE, y=1.0, y_prime=1.0, epsilon=0.0)
    with pytest.raises(ValueError):
        CorrelationKernel(kind=FREE, y=1.0, y_prime=1.0, epsilon=-1e-3)


@pytest.mark.parametrize("name", ["y", "y_prime", "dz", "dx", "epsilon"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_kernel_rejects_non_finite_inputs_by_name(name, value):
    args = {"kind": FREE, "y": 1.0, "y_prime": 1.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        CorrelationKernel(**args)


@pytest.mark.parametrize("a", [0.0, 0.7])
@pytest.mark.parametrize("kind", [FREE, BOUNDARY])
def test_correlation_broadcasts_over_proper_time(rng, kind, a):
    # the array path is the scalar path: every element of a 64-sample
    # evaluation equals the scalar call at that proper time
    k = _kernel(kind=kind, y=0.9, yp=1.2, dz=0.8, eps=2e-3)
    taus = rng.uniform(-3.0, 3.0, size=64)
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            values = electric_correlation(k, m, n, taus, 0.1, a)
            assert values.shape == taus.shape
            for tau, value in zip(taus, values):
                scalar = electric_correlation(k, m, n, float(tau), 0.1, a)
                assert abs(value - scalar) <= 1e-13 * max(abs(scalar), 1e-300)


@pytest.mark.parametrize("a", [0.0, 0.7])
@pytest.mark.parametrize("kind", [FREE, BOUNDARY])
def test_array_epsilon_equals_scalar_epsilon_calls(rng, kind, a):
    # the oracle evaluates every epsilon of its sequence in one call: each
    # row of an (rows, 1) epsilon column gives exactly the scalar-epsilon
    # values of that row
    eps = np.array([4e-3, 2e-3, 1e-3, 2e-3])[:, None]
    taus = rng.uniform(-3.0, 3.0, size=(4, 16))
    k = _kernel(kind=kind, y=0.9, yp=1.2, dz=0.8, eps=eps)
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            values = electric_correlation(k, m, n, taus, 0.0, a)
            for row, e in enumerate(eps[:, 0]):
                scalar = _kernel(kind=kind, y=0.9, yp=1.2, dz=0.8,
                                 eps=float(e))
                expected = electric_correlation(scalar, m, n, taus[row],
                                                0.0, a)
                assert np.array_equal(values[row], expected)


@pytest.mark.parametrize("bad,message", [
    (math.nan, "epsilon must be finite"), (math.inf, "epsilon must be finite"),
    (0.0, "epsilon must be positive"), (-1e-3, "epsilon must be positive"),
])
def test_kernel_rejects_a_bad_array_epsilon_entry_by_name(bad, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        _kernel(eps=np.array([4e-3, bad, 1e-3]))


def test_free_offdiagonal_vanishes_by_symmetry():
    # same trajectory, no transverse offsets: x-y and x-z mixing forbidden
    k = _kernel()
    for (m, n) in [(1, 2), (2, 1), (1, 3), (2, 3)]:
        val = electric_correlation(k, m, n, 0.7, 0.2, 0.5)
        assert abs(val) == 0.0


def test_stationarity_under_proper_time_shifts(rng):
    k = _kernel(kind=BOUNDARY, y=0.8, yp=1.1, dz=0.6)
    for _ in range(10):
        tau = rng.uniform(-1, 1)
        taup = rng.uniform(-1, 1)
        shift = rng.uniform(-3, 3)
        ref = electric_correlation(k, 1, 2, tau, taup, 0.9)
        moved = electric_correlation(k, 1, 2, tau + shift, taup + shift, 0.9)
        assert abs(moved - ref) <= 1e-10 * max(abs(ref), 1e-30)


def test_hermiticity_of_the_correlation_tensor(rng):
    # swapping the operator order swaps the field points too
    k = _kernel(kind=BOUNDARY, y=0.9, yp=1.3, dz=0.4)
    k_swapped = _kernel(kind=BOUNDARY, y=1.3, yp=0.9, dz=-0.4)
    for _ in range(6):
        tau, taup = rng.uniform(-1, 1, size=2)
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                left = electric_correlation(k, m, n, tau, taup, 0.6)
                right = electric_correlation(k_swapped, n, m, taup, tau, 0.6)
                assert abs(left - right.conjugate()) <= 1e-12 * max(
                    abs(left), 1e-30)


def test_inertial_free_same_point_matches_textbook():
    # 1/(pi^2 (dt - i eps)^4) times delta_mn
    eps = 1e-3
    k = _kernel(eps=eps)
    dt = 0.37
    expected = 1.0 / (math.pi**2 * (dt - 1j * eps) ** 4)
    for m in (1, 2, 3):
        val = electric_correlation(k, m, m, dt, 0.0, 0.0)
        assert abs(val - expected) <= 1e-12 * abs(expected)


def test_accelerated_free_same_point_is_isotropic():
    # a^4 / (16 pi^2 sinh^4(a dtau_c / 2)) for every diagonal component
    a, eps, dt = 0.8, 1e-3, 0.52
    k = _kernel(eps=eps)
    sigma = 0.5 * a * (dt - 1j * eps)
    expected = a**4 / (16.0 * math.pi**2 * cmath.sinh(sigma) ** 4)
    for m in (1, 2, 3):
        val = electric_correlation(k, m, m, dt, 0.0, a)
        assert abs(val - expected) <= 1e-12 * abs(expected)


# frozen from high-order central differences of the scalar kernel with
# Richardson extrapolation (regenerate with _correlation_numdiff below)
_NUMDIFF_BOUNDARY_DIAG = {
    1: 0.004357449568416031 - 2.1190473282586954e-06j,
    2: 0.0025199141739278147 - 6.050724889763815e-07j,
    3: 0.0026742906090270746 - 1.6930005012661637e-06j,
}


def test_boundary_diagonal_locked_to_numerical_differentiation():
    k = _kernel(kind=BOUNDARY, y=1.0, yp=1.0, dz=1.0, eps=1e-3)
    for m, expected in _NUMDIFF_BOUNDARY_DIAG.items():
        val = electric_correlation(k, m, m, 0.3, 0.0, 0.5)
        assert abs(val - expected) <= 1e-8 * abs(expected)


def _kernel_scalar(kind, c1, c2):
    t1, x1, y1, z1 = c1
    t2, x2, y2, z2 = c2
    wy = y1 - y2 if kind == FREE else y1 + y2
    s = (t1 - t2) ** 2 - (x1 - x2) ** 2 - wy**2 - (z1 - z2) ** 2
    return 1.0 / (FOUR_PI_SQ * s)


def _numdiff_hessian(kind, c1, c2, mu, rho, h):
    def shifted(c, i, d):
        c = list(c)
        c[i] = c[i] + d
        return tuple(c)

    def mixed(hh):
        pp = _kernel_scalar(kind, shifted(c1, mu, hh), shifted(c2, rho, hh))
        pm = _kernel_scalar(kind, shifted(c1, mu, hh), shifted(c2, rho, -hh))
        mp = _kernel_scalar(kind, shifted(c1, mu, -hh), shifted(c2, rho, hh))
        mm = _kernel_scalar(kind, shifted(c1, mu, -hh), shifted(c2, rho, -hh))
        return (pp - pm - mp + mm) / (4.0 * hh * hh)

    coarse, fine = mixed(h), mixed(0.5 * h)
    return (4.0 * fine - coarse) / 3.0


def _correlation_numdiff(kernel, m, n, tau, tau_p, a, h=1e-3):
    """Independent evaluation: numerical second derivatives of the scalar
    kernel contracted with the orbit tetrad."""
    g_free = (1.0, -1.0, -1.0, -1.0)
    g_bnd = (-1.0, 1.0, -1.0, 1.0)
    traj = TrajectoryParams(a)
    tau2 = tau_p + 1j * kernel.epsilon
    t1, x1 = traj.lab_coords(tau)
    t2, x2 = traj.lab_coords(tau2)
    c1 = (t1, x1, kernel.y, 0.0)
    c2 = (t2, x2 - kernel.dx, kernel.y_prime, -kernel.dz)
    g = g_free if kernel.kind == FREE else g_bnd
    hess = [[_numdiff_hessian(kernel.kind, c1, c2, mu, rho, h)
             for rho in range(4)] for mu in range(4)]
    f1, f2 = traj.frame(tau), traj.frame(tau2)
    u1, u2 = f1[0], f2[0]
    em, en = f1[m], f2[n]

    def gpair(p, q):
        return sum(g[i] * p[i] * q[i] for i in range(4))

    def dd(p, q):
        return sum(p[mu] * q[rho] * hess[mu][rho]
                   for mu in range(4) for rho in range(4))

    return (gpair(em, en) * dd(u1, u2) - gpair(em, u2) * dd(u1, en)
            - gpair(u1, en) * dd(em, u2) + gpair(u1, u2) * dd(em, en))


@pytest.mark.parametrize("kind,m,n", [
    (FREE, 1, 1), (FREE, 1, 3), (BOUNDARY, 2, 2), (BOUNDARY, 1, 2),
    (BOUNDARY, 2, 3),
])
def test_closed_form_derivatives_match_numdiff(kind, m, n):
    k = _kernel(kind=kind, y=0.9, yp=1.2, dz=0.8, eps=2e-3)
    closed = electric_correlation(k, m, n, 0.45, 0.1, 0.6)
    numeric = _correlation_numdiff(k, m, n, 0.45, 0.1, 0.6)
    assert abs(closed - numeric) <= 1e-6 * max(abs(closed), 1e-10)


def test_conductor_boundary_condition_near_the_mirror():
    """Tangential total correlation dies at the mirror; the normal one
    doubles."""
    a, eps, dt = 0.5, 1e-3, 0.41
    y = 1e-4
    free = _kernel(kind=FREE, y=y, yp=y, eps=eps)
    bnd = _kernel(kind=BOUNDARY, y=y, yp=y, eps=eps)
    for m in (1, 3):
        wf = electric_correlation(free, m, m, dt, 0.0, a)
        wb = electric_correlation(bnd, m, m, dt, 0.0, a)
        assert abs(wf + wb) <= 1e-6 * abs(wf)
    wf = electric_correlation(free, 2, 2, dt, 0.0, a)
    wb = electric_correlation(bnd, 2, 2, dt, 0.0, a)
    assert abs((wf + wb) - 2.0 * wf) <= 1e-6 * abs(wf)


# ---------------------------------------------------------------------
# fourier oracle
# ---------------------------------------------------------------------

def test_oracle_single_atom_diagonal_matches_closed_form():
    cfg = PhysicalConfig.from_ratios(0.5, 1.0, 0.7, "parallel")
    res = fourier_oracle(FREE, 2, 2, (1, 1), cfg, 1.0)
    expected = spectral_prefactor(1.0, 0.5) * (1.0 + 0.25)
    assert res.converged
    assert abs(res.value - expected) <= 0.01 * expected
    assert abs(res.imag) <= 1e-6 * expected


def test_oracle_far_mirror_offdiagonal_vanishes():
    cfg = PhysicalConfig.from_ratios(0.5, 1.0, 1e3, "parallel")
    res = fourier_oracle(BOUNDARY, 1, 2, (1, 1), cfg, 1.0)
    assert abs(res.value) <= 1e-6


def test_oracle_flags_window_truncation():
    cfg = PhysicalConfig.from_ratios(0.5, 1.0, 0.7, "parallel")
    settings = QuadratureSettings(window=3.0)
    res = fourier_oracle(FREE, 2, 2, (1, 1), cfg, 1.0, settings)
    assert not res.converged
    assert "tail" in res.message or "converge" in res.message
    with pytest.raises(OracleConvergenceError):
        res.require()


def test_quadrature_settings_validate():
    with pytest.raises(ValueError):
        QuadratureSettings(epsilons=(1e-3,))
    with pytest.raises(ValueError):
        QuadratureSettings(epsilons=(1e-3, 2e-3))
    with pytest.raises(ValueError):
        QuadratureSettings(epsilons=(2e-3, -1e-3))
    with pytest.raises(ValueError, match="epsilons must be finite"):
        QuadratureSettings(epsilons=(4e-3, math.nan, 1e-3))
    with pytest.raises(ValueError, match="epsilons must be finite"):
        QuadratureSettings(epsilons=(math.inf, 2e-3, 1e-3))
    for name in ("window", "quad_rel", "quad_abs", "limit", "rel_tol",
                 "abs_floor", "tail_tol"):
        for value in (0.0, -3.0, math.nan, math.inf):
            with pytest.raises(ValueError,
                               match=f"^{name} must be positive and finite"):
                QuadratureSettings(**{name: value})
    assert QuadratureSettings(window=None).window is None


# ---------------------------------------------------------------------
# adaptive G10/K21 integrator
# ---------------------------------------------------------------------

def _lorentzian_and_antiderivative(eps=1e-3, u0=0.1, omega=1.3):
    """exp(i w u) [eps/((u-u0)^2 + eps^2) + i w atan((u-u0)/eps)], a
    complex integrand with a peak of width eps, and its antiderivative
    exp(i w u) atan((u-u0)/eps)."""
    def f(u):
        peak = eps / ((u - u0) ** 2 + eps**2)
        return np.exp(1j * omega * u) * (peak + 1j * omega
                                         * np.arctan((u - u0) / eps))

    def antiderivative(u):
        return np.exp(1j * omega * u) * np.arctan((u - u0) / eps)

    return f, antiderivative


def test_integrator_reproduces_a_closed_form_peak_integral():
    f, big_f = _lorentzian_and_antiderivative()
    edges = [-3.0, -0.5, 0.7, 2.0]  # the peak at u = 0.1 sits in a panel
    settings = QuadratureSettings()
    [value], [error], warn = _adaptive_gk21(lambda u, group: f(u), [edges],
                                            settings)
    exact = big_f(edges[-1]) - big_f(edges[0])
    assert warn == ""
    assert abs(value - exact) <= error
    assert error <= 3 * max(settings.quad_abs, settings.quad_rel * abs(exact))


def test_grouped_integrator_equals_one_pass_per_group():
    # a panel's refinement reads only its own subintervals, so refining
    # groups together leaves each group's integral and error bit for bit
    widths = np.array([1e-3, 4e-3])
    groups = [[-3.0, 0.0, 0.2, 2.0], [-3.0, 0.1, 2.0]]

    def f(u, group):
        eps = widths[group][:, None]
        return eps / ((u - 0.1) ** 2 + eps**2) * np.exp(1.3j * u)

    settings = QuadratureSettings()
    values, errors, _ = _adaptive_gk21(f, groups, settings)
    for g, edges in enumerate(groups):
        [value], [error], _ = _adaptive_gk21(
            lambda u, group: f(u, group + g), [edges], settings)
        assert value == values[g] and error == errors[g]


def test_integrator_reports_the_subdivision_limit():
    f, _ = _lorentzian_and_antiderivative()
    calls = []

    def counted(u, group):
        calls.append(u)
        return f(u)

    [value], [error], warn = _adaptive_gk21(counted, [[-3.0, 0.0, 2.0]],
                                            QuadratureSettings(limit=3))
    assert warn == "The maximum number of subdivisions (3) has been achieved."
    # one initial call plus at most two rounds of bisection per panel
    assert len(calls) <= 3
    assert np.isfinite(value) and error > 0


def test_default_window_scales_with_acceleration():
    assert default_window(0.5) == 80.0
    assert default_window(0.0) == 40.0


def test_pair_geometry_conventions():
    cfg = PhysicalConfig.from_ratios(0.5, 2.0, 0.5, "parallel")
    assert pair_geometry(cfg, (1, 1)) == (1.0, 1.0, 0.0)
    assert pair_geometry(cfg, (1, 2)) == (1.0, 1.0, -2.0)
    cfg_v = cfg.with_(alignment="vertical")
    assert pair_geometry(cfg_v, (1, 2)) == (1.0, 3.0, 0.0)
    with pytest.raises(ValueError):
        pair_geometry(cfg, (0, 1))
