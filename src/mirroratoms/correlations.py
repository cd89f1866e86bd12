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
over arrays of proper times and of regulators; a scalar proper time goes
through the same code.

:func:`fourier_oracle` turns these correlations into spectral values by
direct quadrature with an epsilon-sequence extrapolation.  Each epsilon
of the sequence gets one fixed mesh, graded geometrically toward the
light-cone peaks, and every panel of every mesh is integrated by a
Gauss-Kronrod G10/K21 rule (QUADPACK's ``qk21`` nodes and error estimate)
in one array call; the regulator may be an array that broadcasts with the
proper times.  The oracle exists purely to validate the closed forms in
:mod:`mirroratoms.coefficients` and shares no code with them; nothing in
the production path calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

FREE = "free"
BOUNDARY = "boundary"
_KINDS = (FREE, BOUNDARY)

_PI_SQ = math.pi**2


@dataclass(frozen=True)
class TrajectoryParams:
    """Uniformly accelerated orbit along x; a = 0 is the inertial line."""

    a: float

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValueError("acceleration must be finite")
        if self.a < 0:
            raise ValueError("acceleration must be non-negative")


@dataclass(frozen=True)
class CorrelationKernel:
    """Geometry and regulator of one two-point evaluation.

    kind      "free" or "boundary" (image) part of the photon kernel
    y, y_prime   heights of the two field points above the mirror
    dz        z offset z_1 - z_2 (constant along the orbit)
    epsilon   positive regulator, the imaginary part of -Delta; an array
              of regulators broadcasts with the proper times
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
        epsilon = np.asarray(self.epsilon)
        if not np.isfinite(epsilon).all():
            raise ValueError("epsilon must be finite")
        if (epsilon <= 0).any():
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
    and may be arrays; the value broadcasts over them and the kernel's
    epsilon.

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
    TrajectoryParams(a)
    u = tau - tau_prime
    if a == 0.0:
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


@dataclass(frozen=True)
class QuadratureSettings:
    """Window, tolerance and epsilon-extrapolation protocol of the oracle."""

    epsilons: tuple = (4e-3, 2e-3, 1e-3)
    window: float | None = None
    rel_tol: float = 5e-3
    abs_floor: float = 1e-7
    tail_tol: float = 1e-4

    def __post_init__(self):
        if len(self.epsilons) < 2:
            raise ValueError("need at least two epsilons to extrapolate")
        if not all(math.isfinite(e) for e in self.epsilons):
            raise ValueError("epsilons must be finite")
        if any(e <= 0 for e in self.epsilons):
            raise ValueError("epsilons must be positive")
        if list(self.epsilons) != sorted(self.epsilons, reverse=True):
            raise ValueError("epsilons must be strictly decreasing")
        named = ["rel_tol", "abs_floor", "tail_tol"] + (
            [] if self.window is None else ["window"])
        for name in named:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite")


class OracleConvergenceError(RuntimeError):
    """Raised when the epsilon extrapolation or window truncation fails."""


@dataclass(frozen=True)
class OracleResult:
    value: float
    error: float
    imag: float
    tail: float
    window: float
    epsilons: tuple
    converged: bool
    quad_error: float = 0.0
    message: str = ""

    def require(self):
        """Return the value, raising when the transform did not converge."""
        if not self.converged:
            raise OracleConvergenceError(self.message or "oracle failed")
        return self.value


def default_window(a):
    """Integration half-window: 40/a for accelerated orbits, 40 inertial."""
    return 40.0 / a if a > 0 else 40.0


def _light_cone_time(a, chord):
    """Delta tau at which the orbit crosses the light cone of the chord."""
    if chord == 0.0:
        return 0.0
    if a == 0.0:
        return chord
    return 2.0 / a * math.asinh(0.5 * a * chord)


def _graded_edges(window, peaks, eps):
    """Panel edges of [-window, window], graded geometrically to each peak.

    Each peak p adds the edges p and p +- eps 2^k (k = 0, 1, ...) that lie
    strictly inside the window.  A panel beside a peak is then about as
    wide as its distance from the pole eps off the real axis, so the K21
    rule converges at the same rate on every panel however close it is.
    """
    span = window + max(abs(p) for p in peaks)
    steps = eps * 2.0 ** np.arange(math.ceil(math.log2(span / eps)) + 1)
    inner = np.concatenate([p + np.concatenate([[0.0], steps, -steps])
                            for p in peaks])
    inner = inner[(-window < inner) & (inner < window)]
    return np.unique(np.concatenate([[-window, window], inner]))


# QUADPACK qk21 on [0, 1]: Kronrod abscissae (the 10-point Gauss ones at
# odd index), 21-point Kronrod weights and 10-point Gauss weights (zero at
# the Kronrod-only abscissae); mirrored below onto the 21 nodes of [-1, 1]
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208745552442, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
    0.0])
_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_KRONROD = np.concatenate([_WGK, _WGK[-2::-1]])
_GAUSS = np.concatenate([_WG, _WG[-2::-1]])


def _gk21(f, lo, hi, group):
    """K21 integral of f over each [lo, hi] and QUADPACK's error estimate.

    f is called once, on a (len(lo), 21) array of nodes and the group of
    each row.  The estimate is
    resasc * min(1, (200 |K - G| / resasc)^1.5), resasc being the K21
    integral of |f - mean f| (QUADPACK ``qk21``).
    """
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fx = f(centre[:, None] + half[:, None] * _NODES, group)
    kronrod = fx @ _KRONROD
    diff = np.abs(kronrod - fx @ _GAUSS)
    resasc = np.abs(fx - 0.5 * kronrod[:, None]) @ _KRONROD
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5)
    err = np.where(resasc > 0.0, scaled, diff)
    return kronrod * half, err * half


def _windowed_transform(kernel, m, n, a, omega0, window):
    """integral over [-T, T] of exp(i w u) W(u) du plus error estimates.

    kernel.epsilon is the epsilon sequence, a 1-D array.  The integrand is
    huge (but smooth at scale epsilon) where the orbit crosses the light
    cone of the chord, and near each crossing it behaves like
    (u - u* - i epsilon)^-3.  So each epsilon gets one mesh graded
    geometrically toward the crossings (:func:`_graded_edges`), on which a
    G10/K21 rule per panel integrates that pole to full accuracy in one
    fixed pass; the panels of every epsilon are evaluated in one integrand
    call.  Returns (values, quad_errors, roundoff_floors, tails), one entry
    per epsilon; the roundoff floor is the cancellation noise of the peak
    panels, which is the realistic accuracy limit there.  The summed K21
    estimate is reported as ``quad_error``, but it does not decide
    convergence: on these cancellation-dominated bumps it is far too
    pessimistic, and it measures only the quadrature of one finite-epsilon
    integrand, not the epsilon bias that dominates the oracle's error.
    The self-consistency of the epsilon sequence in :func:`fourier_oracle`
    measures that bias, and with the roundoff floor it decides.
    """
    eps = kernel.epsilon

    def w_of(u, rows):
        # rows: the (len(u), 1) column of each row's epsilon
        return electric_correlation(replace(kernel, epsilon=rows), m, n, u,
                                    0.0, a)

    ustar = _light_cone_time(a, kernel.chord)
    peaks = sorted({0.0, ustar, -ustar})
    meshes = [_graded_edges(window, peaks, e) for e in eps]
    group = np.repeat(np.arange(len(eps)), [len(e) - 1 for e in meshes])

    def integrand(u, group):
        return w_of(u, eps[group][:, None]) * np.exp(1j * omega0 * u)

    val, err = _gk21(integrand, np.concatenate([e[:-1] for e in meshes]),
                     np.concatenate([e[1:] for e in meshes]), group)
    totals = (np.bincount(group, val.real, len(eps))
              + 1j * np.bincount(group, val.imag, len(eps)))
    errs = np.bincount(group, err, len(eps))

    widths = np.maximum(40.0 * eps, 1e-5)
    inner = [p + 0.3 * eps for p in peaks if -window < p < window]
    edge = np.full_like(eps, window)
    w_abs = np.abs(w_of(np.stack(inner + [edge, -edge], axis=1),
                        eps[:, None]))
    roundoff = 1e-15 * np.sum(w_abs[:, :-2] * widths[:, None], axis=1)

    decay_len = 1.0 / a if a > 0 else window / 3.0
    tail = (w_abs[:, -2] + w_abs[:, -1]) * decay_len
    return totals, errs, roundoff, tail


def fourier_oracle(kernel_kind, m, n, pair, config, omega0,
                   settings=None):
    """Spectral value of one correlation component by direct quadrature.

    Computes integral d(dtau) exp(i omega0 dtau) <E_m E_n> for the requested
    kernel part and atom pair, for each epsilon in the settings, and
    extrapolates the sequence to epsilon -> 0 (Richardson, quadratic in
    epsilon).  Returns an :class:`OracleResult`; ``converged`` is False when
    the extrapolation disagrees beyond its own error estimate or the window
    tail is too large.
    """
    settings = settings or QuadratureSettings()
    if kernel_kind not in _KINDS:
        raise ValueError(f"kernel kind must be one of {_KINDS}")
    y1, y2, dz = pair_geometry(config, pair)
    window = settings.window or default_window(config.a)

    kernel = CorrelationKernel(kind=kernel_kind, y=y1, y_prime=y2, dz=dz,
                               epsilon=np.array(settings.epsilons, float))
    values, quad_errs, roundoffs, tails = _windowed_transform(
        kernel, m, n, config.a, omega0, window)
    quad_err = max(quad_errs)
    roundoff = max(roundoffs)
    tail = max(tails)

    extrap, extrap_err = _richardson(settings.epsilons, values)
    scale = max(abs(extrap), settings.abs_floor)
    # convergence is judged by the self-consistency of the epsilon sequence
    # (plus cancellation roundoff) and by the window tail, not by QUADPACK's
    # pessimistic per-panel estimates
    err = extrap_err + roundoff
    message = ""
    converged = True
    if err > settings.rel_tol * scale:
        converged = False
        message = "epsilon extrapolation did not converge"
    if tail > settings.tail_tol * scale:
        converged = False
        message = "window truncation tail too large"
    return OracleResult(value=float(extrap.real), error=float(err),
                        imag=float(extrap.imag), tail=float(tail),
                        window=float(window), epsilons=tuple(settings.epsilons),
                        converged=converged, quad_error=float(quad_err),
                        message=message)


def _richardson(epsilons, values):
    """Neville extrapolation of values(epsilon) to epsilon = 0."""
    eps = [float(e) for e in epsilons]
    tab = [complex(v) for v in values]
    n = len(tab)
    prev_last = tab[-1]
    for level in range(1, n):
        new = []
        for i in range(n - level):
            e_lo, e_hi = eps[i + level], eps[i]
            num = e_hi * tab[i + 1] - e_lo * tab[i]
            new.append(num / (e_hi - e_lo))
        tab = new
        last_seq = tab[-1]
        err = abs(last_seq - prev_last)
        prev_last = last_seq
    return tab[0], err
