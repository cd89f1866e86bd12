"""Field correlation functions: symmetries, boundary conditions, the lock
between the hand-derived kernel derivatives and numerical differentiation,
the stationary form against the lab-frame reference, and the oracle's
trapezoid sum on its shifted contour."""

import cmath
import math
import sys
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirroratoms import correlations as fc
from mirroratoms.correlations import (
    FREE, BOUNDARY, CorrelationKernel, QuadratureSettings, _contour,
    _windowed_transform, default_window, electric_correlation,
    fourier_oracle, pair_geometry,
)
from mirroratoms.coefficients import PhysicalConfig, spectral_prefactor

FOUR_PI_SQ = 4.0 * math.pi**2


# ---------------------------------------------------------------------
# lab-frame reference: both field points on the lab hyperbola, their
# tetrads contracted term by term, the regulator on the second proper
# time.  lib is numpy, or mpmath for high-precision references.
# ---------------------------------------------------------------------

# polarization matrices of the photon kernel, index order (t, x, y, z):
# eta for the free part, -(eta + 2 n n) for the image part (n = y-normal)
_G_FREE = (1.0, -1.0, -1.0, -1.0)
_G_BND = (-1.0, 1.0, -1.0, 1.0)

# the tetrad is a boost in the (t, x) plane: u and e1 have only t and x
# components, e2 and e3 are the fixed y and z axes, so every contraction
# with a frame leg runs over that leg's support only
_SUPPORT = ((0, 1), (0, 1), (2,), (3,))


def lab_coords(a, tau, lib=np):
    """Lab (t, x) at proper time tau; tau may be complex or an array."""
    if a == 0.0:
        return tau, 0.0 * tau
    return lib.sinh(a * tau) / a, -lib.cosh(a * tau) / a


def frame(a, tau, lib=np):
    """Comoving tetrad (u, e1, e2, e3) as 4-tuples in (t, x, y, z).

    Components broadcast like tau; the constant ones are plain floats.
    """
    if a == 0.0:
        return ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))
    ch = lib.cosh(a * tau)
    sh = lib.sinh(a * tau)
    return ((ch, -sh, 0.0, 0.0), (-sh, ch, 0.0, 0.0),
            (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))


def lab_correlation(kernel, m, n, tau, tau_prime, a, lib=np):
    """electric_correlation from lab coordinates and tetrads at both points.

    The second proper time is evaluated at tau' + i epsilon.  s = wt^2 -
    wx^2 - ... cancels between lab coordinates of size cosh(a tau)/a, so
    in double precision this form loses about e^{a |tau - tau'|} ulps.
    """
    tau2 = tau_prime + 1j * kernel.epsilon

    t1, x1 = lab_coords(a, tau, lib)
    t2, x2 = lab_coords(a, tau2, lib)
    wt = t1 - t2
    wx = x1 - x2
    wz = kernel.dz

    if kernel.kind == FREE:
        wy = kernel.y - kernel.y_prime
        grad2 = (-2.0 * wt, 2.0 * wx, 2.0 * wy, 2.0 * wz)
        myy = 2.0
        gmat = _G_FREE
    else:
        wy = kernel.y + kernel.y_prime
        grad2 = (-2.0 * wt, 2.0 * wx, -2.0 * wy, 2.0 * wz)
        myy = -2.0
        gmat = _G_BND

    grad1 = (2.0 * wt, -2.0 * wx, -2.0 * wy, -2.0 * wz)
    mixed = (-2.0, 2.0, myy, 2.0)
    s = wt * wt - wx * wx - wy * wy - wz * wz
    inv2 = 1.0 / (s * s)
    inv3 = inv2 / s
    four_pi_sq = 4.0 * lib.pi**2

    frame1 = frame(a, tau, lib)
    frame2 = frame(a, tau2, lib)

    def leg(frame, k, grad):
        # (components, support, contraction with its point's gradient)
        vec = frame[k]
        return vec, _SUPPORT[k], sum(vec[i] * grad[i] for i in _SUPPORT[k])

    u1, em = leg(frame1, 0, grad1), leg(frame1, m, grad1)
    u2, en = leg(frame2, 0, grad2), leg(frame2, n, grad2)

    def form(diag, p, q):
        # sum_i diag_i p^i q^i over the components both legs carry
        return sum(p[0][i] * q[0][i] * diag[i] for i in p[1] if i in q[1])

    def d2(p, q):
        # p^mu q^rho d_mu d'_rho of the scalar kernel 1/(4 pi^2 s)
        return (-form(mixed, p, q) * inv2
                + 2.0 * p[2] * q[2] * inv3) / four_pi_sq

    return (form(gmat, em, en) * d2(u1, u2) - form(gmat, em, u2) * d2(u1, en)
            - form(gmat, u1, en) * d2(em, u2)
            + form(gmat, u1, u2) * d2(em, en))


def mp_correlation(kernel, m, n, u, a, dps=120):
    """lab_correlation at proper-time difference u in dps-digit arithmetic,
    of the double inputs exactly, rounded to a complex double."""
    with mpmath.workdps(dps):
        exact = SimpleNamespace(
            kind=kernel.kind, y=mpmath.mpf(kernel.y),
            y_prime=mpmath.mpf(kernel.y_prime), dz=mpmath.mpf(kernel.dz),
            epsilon=mpmath.mpf(kernel.epsilon))
        value = lab_correlation(exact, m, n, mpmath.mpf(u), mpmath.mpf(0),
                                mpmath.mpf(a), lib=mpmath)
        return complex(value)


# ---------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------

def test_orbit_is_hyperbola():
    for tau in (-2.0, 0.0, 0.3, 5.0):
        t, x = lab_coords(0.7, tau)
        assert abs((x.real**2 - t.real**2) - 1.0 / 0.49) < 1e-12


def test_inertial_orbit_is_straight():
    t, x = lab_coords(0.0, 1.7)
    assert t == 1.7
    assert x == 0.0


def test_negative_acceleration_rejected():
    with pytest.raises(ValueError, match="acceleration must be non-negative"):
        electric_correlation(_kernel(), 1, 1, 0.5, 0.0, -0.1)


@pytest.mark.parametrize("a", [math.nan, math.inf])
def test_non_finite_acceleration_rejected(a):
    with pytest.raises(ValueError, match="acceleration must be finite"):
        electric_correlation(_kernel(), 1, 1, 0.5, 0.0, a)


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
    with pytest.raises(ValueError, match="^epsilon must be positive"):
        CorrelationKernel(kind=FREE, y=1.0, y_prime=1.0, epsilon=0.0)
    with pytest.raises(ValueError, match="^epsilon must be positive"):
        CorrelationKernel(kind=FREE, y=1.0, y_prime=1.0, epsilon=-1e-3)


@pytest.mark.parametrize("name", ["y", "y_prime", "dz", "epsilon"])
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
    tau2 = tau_p + 1j * kernel.epsilon
    t1, x1 = lab_coords(a, tau)
    t2, x2 = lab_coords(a, tau2)
    c1 = (t1, x1, kernel.y, 0.0)
    c2 = (t2, x2, kernel.y_prime, -kernel.dz)
    g = _G_FREE if kernel.kind == FREE else _G_BND
    hess = [[_numdiff_hessian(kernel.kind, c1, c2, mu, rho, h)
             for rho in range(4)] for mu in range(4)]
    f1, f2 = frame(a, tau), frame(a, tau2)
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
# stationary form against the lab-frame reference
# ---------------------------------------------------------------------

DBL_EPS = sys.float_info.epsilon


def _light_cone_time(a, chord):
    """Delta tau at which the orbit crosses the light cone of the chord."""
    if chord == 0.0:
        return 0.0
    if a == 0.0:
        return chord
    return 2.0 / a * math.asinh(0.5 * a * chord)


def _lab_coordinate_size(a, chord):
    """Size of the lab coordinates where the orbit crosses the light cone
    of the chord: cosh(a u*)/a = (1 + (a chord)^2/2)/a on the hyperbola,
    the chord itself on the inertial line."""
    return (1.0 + 0.5 * (a * chord) ** 2) / a if a > 0 else chord


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from((FREE, BOUNDARY)),
       a=st.one_of(st.just(0.0), st.floats(1e-3, 3.0)),
       y=st.floats(0.05, 5.0), y_prime=st.floats(0.05, 5.0),
       dz=st.floats(-5.0, 5.0), eps=st.floats(1e-4, 1e-1),
       fractions=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8))
def test_stationary_form_equals_the_lab_frame_reference(kind, a, y, y_prime,
                                                        dz, eps, fractions):
    # every (m, n) at proper-time differences drawn within the window, but
    # |a u| <= 30: beyond that the reference's s = wt^2 - wx^2 - ... has
    # lost all its digits to the cancellation of its e^{a|u|} lab
    # coordinates.  The light-cone peaks are always evaluated; they set
    # the scale.
    k = CorrelationKernel(kind=kind, y=y, y_prime=y_prime, dz=dz,
                          epsilon=eps)
    reach = min(default_window(a), 30.0 / a) if a > 0 else default_window(a)
    peak = _light_cone_time(a, k.chord)
    u = np.array([f * reach for f in fractions]
                 + [peak, -peak, peak + eps, -peak - eps])
    pairs = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]
    new = [electric_correlation(k, m, n, u, 0.0, a) for m, n in pairs]
    lab = [lab_correlation(k, m, n, u, 0.0, a) for m, n in pairs]
    scale = max(np.max(np.abs(w)) for w in lab)
    # round-off of the reference: its interval cancels between lab
    # coordinates of size X, which at a peak, where |s| ~ 2 chord eps,
    # magnifies an ulp by about X / eps
    bound = 32 * DBL_EPS * (1.0 + _lab_coordinate_size(a, k.chord) / eps)
    for (m, n), w_new, w_lab in zip(pairs, new, lab):
        assert np.max(np.abs(w_new - w_lab)) <= bound * scale, (m, n)


def _peak_kernel():
    # the vertical configuration of the frozen oracle values, boundary
    # part of pair (2, 2): chord 3.9, light-cone crossing at a u = 2.6
    cfg = PhysicalConfig.from_ratios(0.9, 1.3, 0.5, "vertical")
    y1, y2, dz = pair_geometry(cfg, (2, 2))
    return cfg.a, CorrelationKernel(kind=BOUNDARY, y=y1, y_prime=y2, dz=dz,
                                    epsilon=1e-3)


def _relative_errors(k, m, n, u, a):
    exact = np.array([mp_correlation(k, m, n, float(x), a) for x in u])
    new = electric_correlation(k, m, n, u, 0.0, a)
    lab = lab_correlation(k, m, n, u, 0.0, a)
    return np.abs(new - exact) / np.abs(exact), np.abs(lab - exact) / np.abs(
        exact)


def test_stationary_form_at_a_light_cone_peak_against_mpmath():
    # 41 nodes across +-40 epsilon of the peak, against 120 digits.  W
    # goes as 1/s^3 with s = T^2 - chord^2, so near the peak one ulp of
    # T = 2 sinh(a Delta/2)/a moves W by about 6 ulp chord^2/|s|, in any
    # double-precision form: that is the floor.  Node by node the two
    # forms then differ by the luck of their roundings; the stationary
    # one stays within the floor and is better in the median.
    a, k = _peak_kernel()
    u = _light_cone_time(a, k.chord) + np.linspace(-40.0, 40.0, 41) * 1e-3
    new_err, lab_err = _relative_errors(k, 2, 1, u, a)
    t = 2.0 * np.sinh(0.5 * a * (u - 1j * k.epsilon)) / a
    floor = 16 * DBL_EPS * k.chord**2 / np.abs(t * t - k.chord**2)
    assert np.all(new_err <= np.maximum(lab_err, floor))
    assert np.median(new_err) <= np.median(lab_err)


def test_stationary_form_far_along_the_orbit_against_mpmath():
    # at a u = 30 the lab form is off by about 8e-4: its interval cancels
    # between lab coordinates of size e^{a u}/a
    a, k = _peak_kernel()
    u = np.array([5.0, 10.0, 20.0, 30.0]) / a
    new_err, lab_err = _relative_errors(k, 2, 1, u, a)
    assert np.all(new_err <= 8 * DBL_EPS)
    assert np.all(new_err <= lab_err)


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


def test_inertial_tail_bound_passes_a_vanishing_component_and_still_bounds():
    # fig18/fig20 vertical_a0 at omega L = 2.577778: the boundary (2, 2)
    # [22] component, 4.27e-5, passes through zero as omega L varies.  The
    # u^-4 envelope's decay length T / 3 put its tail at 4.7e-9, beyond
    # _TAIL_TOL times the value; the oscillation bounds it by 2 / |w|.  The
    # bound must still cover the truncation a window 8x wider removes.
    cfg = PhysicalConfig.from_ratios(0.0, 2.577778, 0.5, "vertical")
    res = fourier_oracle(BOUNDARY, 2, 2, (2, 2), cfg, 1.0)
    assert res.converged, res.message
    assert res.value == pytest.approx(4.266e-5, rel=1e-3)
    wide = QuadratureSettings(window=8.0 * res.window)
    for kind, pair, m in ((BOUNDARY, (2, 2), 2), (BOUNDARY, (1, 2), 1),
                          (FREE, (1, 2), 2), (FREE, (1, 1), 3)):
        res = fourier_oracle(kind, m, m, pair, cfg, 1.0)
        truncated = abs(res.value - fourier_oracle(kind, m, m, pair, cfg, 1.0,
                                                   wide).value)
        assert 0.0 < truncated <= res.tail, (kind, pair, m)


def test_quadrature_settings_validate():
    for value in (0.0, -3.0, math.nan, math.inf):
        with pytest.raises(ValueError,
                           match="^window must be positive and finite"):
            QuadratureSettings(window=value)
    assert QuadratureSettings(window=None).window is None


# ---------------------------------------------------------------------
# the trapezoid sum on the shifted contour
# ---------------------------------------------------------------------

def _thermal_kernel(kernel, m, n, tau, tau_prime, a):
    """1/sinh^2(a Delta/2): double poles at a Delta = 2 pi i n, like W."""
    return 1.0 / np.sinh(0.5 * a * ((tau - tau_prime)
                                    - 1j * kernel.epsilon)) ** 2


def _thermal_transform(omega, a):
    """Its transform, -8 pi w / (a^2 (1 - e^{-2 pi w/a})), from the
    residues at a Delta = 2 pi i n, for either sign of w."""
    return -8.0 * math.pi * omega / (a * a * -math.expm1(
        -2.0 * math.pi * omega / a))


@pytest.mark.parametrize("omega", [1.0, -1.0])
@pytest.mark.parametrize("a", [0.5, 1.5])
def test_trapezoid_sum_converges_geometrically_to_a_closed_form(
        monkeypatch, a, omega):
    # the integrand is analytic within d = 8 step of the line, so the
    # error goes like e^{-2 pi d/h} and each halving of h squares it:
    # about 3e-5, 3e-10 and round-off at h = d/2, d/4 and d/8.  The error
    # estimate, the difference from every other node, bounds the error
    monkeypatch.setattr(fc, "electric_correlation", _thermal_kernel)
    depth, step = _contour(a, omega)
    kernel = CorrelationKernel(FREE, 1.0, 1.0, epsilon=depth)
    exact = _thermal_transform(omega, a)
    errors = []
    for h in (4.0 * step, 2.0 * step, step):
        value, error, tail = _windowed_transform(
            kernel, 1, 1, a, omega, default_window(a), h)
        errors.append(abs(value - exact) / abs(exact))
        assert abs(value - exact) <= error + 4 * DBL_EPS * abs(exact)
        assert tail <= 1e-16 * abs(exact)
    assert 1e-6 < errors[0] < 1e-4
    assert errors[1] <= 1e-9
    assert errors[2] <= 8 * DBL_EPS


@pytest.mark.parametrize("omega", [1.0, -1.0])
def test_the_limit_does_not_depend_on_the_contour_depth(omega):
    # e^{w c} times the transform along Im Delta = -c is the same for every
    # c in the strip 0 < c < 2 pi/a.  The sum's round-off is magnified by
    # e^{|w| r}, r the distance from the edge the transform is not
    # suppressed at: the real axis for w > 0, -2 pi/a for w < 0
    a = 0.7
    strip = 2.0 * math.pi / a
    depths = (0.5, 1.5, 0.5 * strip, strip - 1.5, strip - 0.5)
    values = []
    for c in depths:
        kernel = CorrelationKernel(BOUNDARY, 1.3, 0.9, 0.4, epsilon=c)
        value, _, _ = _windowed_transform(kernel, 2, 1, a, omega,
                                          default_window(a),
                                          min(c, strip - c) / 8.0)
        values.append(value)
    reference = values[1] if omega > 0 else values[3]
    for c, value in zip(depths, values):
        reach = c if omega > 0 else strip - c
        bound = 1e-13 * math.exp(reach)
        assert abs(value - reference) <= bound * abs(reference), c


def test_default_window_scales_with_acceleration():
    assert default_window(0.5) == 80.0
    assert default_window(0.1) == 400.0
    assert default_window(1e-3) == 400.0
    assert default_window(0.0) == 400.0


def test_pair_geometry_conventions():
    cfg = PhysicalConfig.from_ratios(0.5, 2.0, 0.5, "parallel")
    assert pair_geometry(cfg, (1, 1)) == (1.0, 1.0, 0.0)
    assert pair_geometry(cfg, (1, 2)) == (1.0, 1.0, -2.0)
    cfg_v = cfg.with_(alignment="vertical")
    assert pair_geometry(cfg_v, (1, 2)) == (1.0, 3.0, 0.0)
    with pytest.raises(ValueError):
        pair_geometry(cfg, (0, 1))
