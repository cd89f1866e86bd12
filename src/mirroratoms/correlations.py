"""Electric-field two-point functions along uniformly accelerated orbits.

The atoms move on the hyperbola t = sinh(a tau)/a, x = -cosh(a tau)/a with
constant transverse coordinates (y, z); the comoving spatial frame vector
e1 points along +x at tau = 0, so the frame is right-handed and the
mixed-component sign conventions match the closed-form spectral tensors.
The vacuum two-point function of the electric field in the comoving frame
is obtained by contracting second derivatives of the scalar photon kernel
with the orbit tetrad; the mirror at y = 0 adds an image kernel with a
reflected polarization matrix.

The orbit is boost invariant, so the correlation depends on the proper
times only through Delta = (tau - tau') - i*epsilon (Takagi, Prog. Theor.
Phys. Suppl. 88, 1 (1986)).  It is evaluated with the second point at
proper time 0, where its tetrad is the identity, and the first at Delta;
the regulator epsilon puts the light-cone poles on the correct side of
the real axis.  The tetrad contractions are done in closed form, so no
two terms of size e^{a|tau - tau'|} cancel.  The correlation broadcasts
over arrays of proper times; a scalar proper time goes through the same
code.

:func:`fourier_oracle` turns these correlations into spectral values by
direct quadrature, taking the limit epsilon -> 0 exactly: W(Delta) is
analytic in the strip 0 < -Im Delta < 2 pi/a, so the transform along the
real axis equals e^{omega c} times the transform along Im Delta = -c for
any c in the strip.  On that line the integrand is smooth, and one
trapezoid sum on a uniform grid converges geometrically.  The oracle
exists purely to validate the closed forms in
:mod:`mirroratoms.coefficients` and shares no code with them; nothing in
the production path calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FREE = "free"
BOUNDARY = "boundary"
_KINDS = (FREE, BOUNDARY)

_PI_SQ = math.pi**2


@dataclass(frozen=True)
class CorrelationKernel:
    """Geometry and regulator of one two-point evaluation.

    kind      "free" or "boundary" (image) part of the photon kernel
    y, y_prime   heights of the two field points above the mirror
    dz        z offset z_1 - z_2 (constant along the orbit)
    epsilon   positive regulator, the imaginary part of -Delta
    """

    kind: str
    y: float
    y_prime: float
    dz: float = 0.0
    epsilon: float = 1e-3

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kernel kind must be one of {_KINDS}")
        for name in ("y", "y_prime", "dz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def chord(self):
        """Spatial distance between field point 1 and (image of) point 2."""
        wy = self.y - self.y_prime if self.kind == FREE else self.y + self.y_prime
        return math.sqrt(wy**2 + self.dz**2)


def electric_correlation(kernel, m, n, tau, tau_prime, a):
    """<0| E_m(x_1(tau)) E_n(x_2(tau')) |0> for one kernel part.

    m, n are frame axis indices in {1, 2, 3} = (x, y, z).  The value is the
    finite-epsilon regularized Wightman function at
    Delta = (tau - tau') - i epsilon; it is complex.  tau and tau' are real
    and may be arrays; the value broadcasts over them.

    With point 2 at proper time 0 and point 1 at Delta, let
    d = sinh(a Delta/2), T = 2 d/a (T = Delta at a = 0) and
    C = cosh(a Delta) = 1 + 2 d^2.  The separation is
    (wt, wx) = (T cosh(a Delta/2), -T d), so wt^2 - wx^2 = T^2 and the
    kernel interval is s = T^2 - wy^2 - wz^2.  The frame legs contract
    with the kernel gradient to u1.grad = 2 wt = 2 sinh(a Delta)/a and
    e1.grad = 2 wx = -4 d^2/a at point 1, to -2 wt and 2 wx at point 2,
    and to 2 p and 2 q for (e2, e3) at points 1 and 2, with
    p = (-wy, -wz), q = (k wy, wz) and k = +1 for the free part, -1 for
    the image part.  With cosh^2 - sinh^2 = 1 the sixteen tetrad terms
    collapse to W_mn = N_mn / (pi^2 s^3), where, for transverse m and n,

        N_11 = k (T^2 + wy^2 + wz^2)
        N_m1 = 2 k T d p_m        N_1n = 2 k T d q_n
        N_mn = 2 k C p_m q_n + [m = n] g_m (T^2 + C (wy^2 + wz^2))

    and g = (1, k) over (y, z).
    """
    if m not in (1, 2, 3) or n not in (1, 2, 3):
        raise ValueError("axis indices must be in {1, 2, 3}")
    if not math.isfinite(a):
        raise ValueError("acceleration must be finite")
    if a < 0:
        raise ValueError("acceleration must be non-negative")
    u = tau - tau_prime
    # where 2/a overflows (a below about 1.1e-308), a Delta/2 is far below
    # 1e-300 and the orbit is the inertial line to double precision
    if a == 0.0 or 2.0 / a == math.inf:
        d, cosh_boost = 0.0, 1.0
        chord_time = u - 1j * kernel.epsilon
    else:
        half = 0.5 * a * u
        phase = 0.5 * a * kernel.epsilon
        d = np.sinh(half) * np.cos(phase) - 1j * (np.cosh(half)
                                                   * np.sin(phase))
        cosh_boost = 1.0 + 2.0 * d * d
        chord_time = (2.0 / a) * d

    k = 1.0 if kernel.kind == FREE else -1.0
    wy = kernel.y - kernel.y_prime if k > 0 else kernel.y + kernel.y_prime
    wz = kernel.dz
    p, q = (-wy, -wz), (k * wy, wz)
    perp = wy * wy + wz * wz
    # s = T^2 - chord^2 as a product: near the light cone T - chord is
    # exact, so s carries the rounding of T but not that of T^2 or chord^2
    s = (chord_time - kernel.chord) * (chord_time + kernel.chord)
    if m == 1 and n == 1:
        num = k * (s + 2.0 * perp)
    elif n == 1:
        num = 2.0 * k * p[m - 2] * chord_time * d
    elif m == 1:
        num = 2.0 * k * q[n - 2] * chord_time * d
    else:
        num = 2.0 * k * p[m - 2] * q[n - 2] * cosh_boost
        if m == n:
            num += (1.0, k)[m - 2] * (s + perp * (1.0 + cosh_boost))
    return num / (_PI_SQ * (s * s * s))


def pair_geometry(config, pair):
    """(y, y', dz) of an atom pair for the configured alignment.

    Atom 1 is the nearer one in the vertical case; in the parallel case
    atom 2 sits at z = +L relative to atom 1.
    """
    alpha, beta = pair
    if alpha not in (1, 2) or beta not in (1, 2):
        raise ValueError("atom indices must be 1 or 2")
    if config.alignment == "parallel":
        z = {1: 0.0, 2: config.L}
        return config.y, config.y, z[alpha] - z[beta]
    heights = {1: config.y, 2: config.y + config.L}
    return heights[alpha], heights[beta], 0.0


# bounds on a converged value's error and tail, relative to max(|v|, floor)
_REL_TOL = 5e-3
_ABS_FLOOR = 1e-7
_TAIL_TOL = 1e-4


@dataclass(frozen=True)
class QuadratureSettings:
    """Integration window of the oracle.

    window overrides :func:`default_window`; the contour depth and the
    trapezoid step follow from the acceleration and the frequency and are
    not settings.
    """

    window: float | None = None

    def __post_init__(self):
        if not (self.window is None or 0.0 < self.window < math.inf):
            raise ValueError("window must be positive and finite")


@dataclass(frozen=True)
class OracleResult:
    value: float
    error: float
    imag: float
    tail: float
    window: float
    depth: float
    converged: bool
    message: str = ""


def default_window(a):
    """Integration half-window: 40/a, but at most 400 (the inertial line).

    Beyond a u ~ 1 the correlation decays like e^{-2 a |u|}, so 40/a
    leaves nothing; below a = 0.1 it decays like u^-4 out to u ~ 1/a, and
    the window stops at 400, where that tail is below 1e-8 of the value.
    """
    return 40.0 / max(a, 0.1)


# largest |omega| d, d being the contour's distance from the edge of the
# strip where the transform is not suppressed: the sum on the contour is
# the value times e^{-|omega| d}, so its round-off relative to the value
# grows by up to e^{1.5}
_MAX_PHASE = 1.5
# e^{-x} underflows to 0.0 beyond x = 745.2
_EXP_UNDERFLOW = 746.0
# deepest line of a strip without a lower edge: there the kernel's s^3 is
# about -c^6 = -1e300, still finite
_MAX_DEPTH = 1e50


def _contour(a, omega0):
    """Depth c of the line Im Delta = -c and the trapezoid step h on it.

    W(Delta) is singular only where the orbit meets a light cone, at
    a Delta / 2 = +-asinh(a chord / 2) + i pi n, so it is analytic in the
    strip 0 < -Im Delta < 2 pi / a: the orbit's thermal periodicity in
    imaginary proper time (any depth at a = 0).  The line keeps the
    distance d = min(pi / (2a), 1.5 / max(|omega0|, 1)) from the nearer
    edge of the strip: from the real axis for omega0 >= 0, from the edge
    at -2 pi / a, where the transform is Planck suppressed, for
    omega0 < 0.  The integrand is analytic within d of the line, so the
    trapezoid rule with h = d / 8 converges like e^{-2 pi d / h} =
    e^{-16 pi} (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)).

    Where the strip has no lower edge (a = 0, or 2 pi / a overflows), the
    transform at omega0 < 0 is exactly 0: the line descends to the depth
    746 / |omega0|, where the factor e^{omega0 c} of the sum underflows to
    0.0.  Below |omega0| = 7.46e-48 that depth would overflow the kernel,
    so the line stops at ``_MAX_DEPTH``; the sum there is the window's
    truncation residue, below 1e-198.
    """
    strip = 2.0 * math.pi / a if a > 0 else math.inf
    d = min(_MAX_PHASE / max(abs(omega0), 1.0), 0.25 * strip)
    if omega0 >= 0:
        c = d
    elif strip < math.inf:
        c = strip - d
    else:
        c = min(_EXP_UNDERFLOW / -omega0, _MAX_DEPTH)
    return c, d / 8.0


def _windowed_transform(kernel, m, n, a, omega0, window, step):
    """The epsilon -> 0 limit of the integral over [-T, T] of
    exp(i w u) W(u - i epsilon) du, from one trapezoid sum.

    The kernel's epsilon c puts the line of integration at Im Delta = -c,
    inside the strip where W is analytic (:func:`_contour`).  Moving the
    line there multiplies the transform by e^{-w c} and changes nothing
    else, so the limit is e^{w c} h sum_k exp(i w u_k) W(u_k - i c) over
    uniform nodes u_k of [-T, T], at most ``step`` apart.  Returns
    (value, error, tail): the error is the value's difference from the sum
    over every other node, which bounds the error of the full sum by far;
    the tail is the size of the integrand at the window's edges times the
    shorter of the envelope's decay length and 2 / |w|.  Integrating by
    parts, an envelope g whose modulus decays monotonically beyond T gives
    |int_T^inf e^{iwu} g du| <= (|g(T)| + int_T^inf |g'| du) / |w|
    = 2 |g(T)| / |w|, and likewise below -T.  At a = 0 the decay length
    T / 3 of the u^-4 envelope alone overstates an oscillating tail by
    |w| T / 6.  One integrand call.
    """
    half = 2 * math.ceil(window / (2.0 * step))
    h = window / half
    u = np.arange(-half, half + 1) * h
    f = electric_correlation(kernel, m, n, u, 0.0, a)
    f *= np.exp(1j * omega0 * u)
    lift = math.exp(omega0 * kernel.epsilon)
    even, odd = np.sum(f[::2]), np.sum(f[1::2])
    decay_len = min(1.0 / a if a > 0 else math.inf, window / 3.0,
                    2.0 / abs(omega0) if omega0 else math.inf)
    tail = (abs(f[0]) + abs(f[-1])) * decay_len
    return lift * h * (even + odd), lift * h * abs(odd - even), lift * tail


def fourier_oracle(kernel_kind, m, n, pair, config, omega0,
                   settings=None):
    """Spectral value of one correlation component by direct quadrature.

    Computes the epsilon -> 0 limit of
    integral d(dtau) exp(i omega0 dtau) <E_m E_n> for the requested kernel
    part and atom pair as one trapezoid sum on a shifted contour
    (:func:`_windowed_transform`).  Returns an :class:`OracleResult`;
    ``converged`` is False when the sum differs from the one over every
    other node, or the window tail is too large, beyond the module's
    tolerances.
    """
    settings = settings or QuadratureSettings()
    if kernel_kind not in _KINDS:
        raise ValueError(f"kernel kind must be one of {_KINDS}")
    y1, y2, dz = pair_geometry(config, pair)
    window = settings.window or default_window(config.a)
    depth, step = _contour(config.a, omega0)
    kernel = CorrelationKernel(kind=kernel_kind, y=y1, y_prime=y2, dz=dz,
                               epsilon=depth)
    value, error, tail = _windowed_transform(kernel, m, n, config.a, omega0,
                                             window, step)
    # written so that a nan anywhere fails them
    scale = max(abs(value), _ABS_FLOOR)
    message = ""
    if not error <= _REL_TOL * scale:
        message = "trapezoid sum did not converge"
    if not tail <= _TAIL_TOL * scale:
        message = "window truncation tail too large"
    return OracleResult(value=float(value.real), error=float(error),
                        imag=float(value.imag), tail=float(tail),
                        window=float(window), depth=depth,
                        converged=not message, message=message)
