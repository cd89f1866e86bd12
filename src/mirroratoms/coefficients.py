"""Closed-form dissipator coefficients for two accelerated atoms near a mirror.

Two two-level atoms ride the same uniformly accelerated orbit (acceleration
along x) in front of a perfectly reflecting plane at y = 0 and couple to the
electromagnetic vacuum through their electric dipoles.  The reduced dynamics
is governed by six real rates A1, A2, A3, B1, B2, B3.  Each rate is a dipole
contraction of a 3x3 spectral tensor built from a free-space part and a
boundary (image) part.

Everything is expressed in dimensionless internal units: the atomic
transition frequency is omega = 1 (so ``a`` means a/omega, lengths are
omega*length) and rates are in units of the free-space spontaneous emission
rate Gamma_0.

Axis convention: 1 = x (acceleration), 2 = y (boundary normal),
3 = z.  The atoms are separated along z in the parallel alignment and along
y in the vertical alignment.

The layer computes in Python floats from start to end.  Each tensor
builder returns a flat row-major 9-tuple, and one kernel part is the triple
(T11, T22 or None, T12) of them.  :func:`assemble` subtracts and contracts
those tuples in a fixed order, and only :func:`spectral_tensors` and
:func:`spectral_tensor` wrap them into (3, 3) arrays.  For axis-aligned
dipoles the contraction picks out one tensor entry exactly.
:func:`_f_parts` keeps its last 8 results, so the free-space rates that
follow a configuration's rates reuse its free cross tensor.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

PARALLEL = "parallel"
VERTICAL = "vertical"
ALIGNMENTS = (PARALLEL, VERTICAL)

_UNIT_TOL = 1e-12


def _as_unit_vector(d, name):
    v = np.asarray(d, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a real 3-vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= _UNIT_TOL:  # also rejects NaN components
        raise ValueError(f"{name} must be a unit vector (|{name}| = {norm!r})")
    return v


@dataclass(frozen=True)
class PhysicalConfig:
    """Dimensionless physical inputs of a two-atom run.

    a          proper acceleration in units of omega (a >= 0)
    L          interatomic separation in units 1/omega (L > 0)
    y          distance of the (nearer) atom to the boundary, units 1/omega
    alignment  "parallel" or "vertical" with respect to the boundary
    d1, d2     unit dipole orientation vectors of atoms 1 and 2
    """

    a: float
    L: float
    y: float
    alignment: str
    d1: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    d2: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))

    def __post_init__(self):
        for value, name in ((self.a, "acceleration"),
                            (self.L, "separation L"),
                            (self.y, "boundary distance y")):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.a < 0:
            raise ValueError("acceleration must be non-negative")
        if self.L <= 0:
            raise ValueError("separation L must be positive")
        if self.y <= 0:
            raise ValueError("boundary distance y must be positive")
        if self.alignment not in ALIGNMENTS:
            raise ValueError(f"alignment must be one of {ALIGNMENTS}")
        object.__setattr__(self, "d1", _as_unit_vector(self.d1, "d1"))
        object.__setattr__(self, "d2", _as_unit_vector(self.d2, "d2"))

    @classmethod
    def from_ratios(cls, a_over_omega, omega_L, y_over_L, alignment,
                    d1=(1.0, 0.0, 0.0), d2=(1.0, 0.0, 0.0)):
        """Build a config from the figure-axis ratios a/omega, omega*L, y/L."""
        L, y_over_L = float(omega_L), float(y_over_L)
        y = y_over_L * L
        if (0 < y_over_L < math.inf and 0 < L < math.inf
                and not 0 < y < math.inf):
            raise ValueError(
                f"boundary distance y = (y/L) * L = {y_over_L!r} * {L!r} "
                + ("underflows to 0" if y == 0 else "overflows"))
        return cls(a=float(a_over_omega), L=L, y=y,
                   alignment=alignment, d1=np.asarray(d1, dtype=float),
                   d2=np.asarray(d2, dtype=float))

    @property
    def y_over_L(self):
        return self.y / self.L

    def with_(self, **kw):
        return replace(self, **kw)


@dataclass(frozen=True)
class CoefficientSet:
    """The six rates driving the master equation, in units of Gamma_0."""

    A1: float
    A2: float
    A3: float
    B1: float
    B2: float
    B3: float

    def as_array(self):
        return np.array([self.A1, self.A2, self.A3, self.B1, self.B2, self.B3])


@dataclass(frozen=True)
class CorrelationTensor:
    """A 3x3 real spectral tensor."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (3, 3):
            raise ValueError("tensor entries must be 3x3")
        object.__setattr__(self, "entries", e)


# ---------------------------------------------------------------------------
# scalar building blocks (omega = 1)
# ---------------------------------------------------------------------------

# below this separation argument the closed-form braces cancel to O(s^3)
# and double precision loses too many digits; a Taylor series (truncation
# error below s^8 relative, i.e. ~1e-24 at the threshold) takes over
_SMALL_S = 1e-3


def _phase(a, s):
    """Orbit phase (2/a)*asinh(a*s/2); reduces to s for an inertial atom.

    Where 2/a overflows (a below 2/DBL_MAX, about 1.1e-308), a*s/2 is far
    below 1e-8 and the phase is s to double precision.
    """
    if a == 0.0:
        return s
    k = 2.0 / a
    if k == math.inf:
        return s
    return k * math.asinh(0.5 * a * s)


# assemble(config, False) right after assemble(config) finds the free cross
# tensor here.  a = +0.0 and -0.0 share a key and give the same bits (a only
# enters as a * a and a == 0.0); typed keys keep ints from a float's bits.
@functools.lru_cache(maxsize=8, typed=True)
def _f_parts(a, s):
    """Free-space cross tensor components (f11, f22, f33, f13) at chord s.

    f11 and f22 are transverse to the separation, f33 runs along it, and
    f13 is the xz mixing, odd in the separation and ~ a.  One orbit phase
    and one cos/sin/sqrt serve all four closed forms.
    """
    a2 = a * a
    if s < _SMALL_S:
        s2 = s * s
        c2 = a2 * (-0.8 * a2 - 1.0) - 0.2
        c4 = a2 * (a2 * (27.0 / 70.0 * a2 + 21.0 / 40.0) + 0.15) + 3.0 / 280.0
        c6 = (a2 * (a2 * (a2 * (-16.0 / 105.0 * a2 - 41.0 / 189.0)
                          - 13.0 / 180.0) - 1.0 / 126.0) - 1.0 / 3780.0)
        f11 = (1.0 + a2) + s2 * (c2 + s2 * (c4 + s2 * c6))
        c2 = a2 * (-0.3 * a2 - 0.5) - 0.2
        c4 = a2 * (a2 * (3.0 / 35.0 * a2 + 0.15) + 0.075) + 3.0 / 280.0
        c6 = (a2 * (a2 * (a2 * (-a2 / 42.0 - 317.0 / 7560.0) - 1.0 / 45.0)
                    - 11.0 / 2520.0) - 1.0 / 3780.0)
        f22 = (1.0 + a2) + s2 * (c2 + s2 * (c4 + s2 * c6))
        c2 = a2 * (-0.9 * a2 - 1.0) - 0.1
        c4 = a2 * (a2 * (3.0 / 7.0 * a2 + 0.55) + 0.125) + 1.0 / 280.0
        c6 = (a2 * (a2 * (a2 * (-a2 / 6.0 - 1733.0 / 7560.0) - 49.0 / 720.0)
                    - 1.0 / 180.0) - 1.0 / 15120.0)
        f33 = (1.0 + a2) + s2 * (c2 + s2 * (c4 + s2 * c6))
        if a == 0.0:
            return f11, f22, f33, 0.0
        c1 = -a * (1.0 + a2)
        c3 = a * (a2 * (0.6 * a2 + 0.75) + 0.15)
        c5 = a * (a2 * (a2 * (-9.0 / 35.0 * a2 - 0.35) - 0.1) - 1.0 / 140.0)
        return f11, f22, f33, s * (c1 + s2 * (c3 + s2 * c5))
    p = 4.0 + a2 * s * s
    th = _phase(a, s)
    c, sn = math.cos(th), math.sin(th)
    sq = math.sqrt(p)
    s3, p25 = s**3, p**2.5
    f11 = 12.0 / (s3 * p25) * (
        2.0 * s * sq * (1.0 + a2 * s * s) * c
        + (-4.0 - s * s * (2.0 * a2 + a2 * a2 * s * s - 4.0
                           - a2 * s * s)) * sn)
    f22 = 3.0 / (s3 * p**1.5) * (s * sq * (2.0 + a2 * s * s) * c
                                 + (-4.0 + s * s * p) * sn)
    f33 = 3.0 / (s3 * p25) * (
        (20.0 * a2 * s * s + 32.0 - a2 * s**4 * p) * sn
        - s * sq * (a2 * a2 * s**4 + 2.0 * a2 * s * s + 16.0) * c)
    if a == 0.0:
        return f11, f22, f33, 0.0
    f13 = -6.0 * a / (s**2 * p25) * (
        s * sq * (a2 * s * s - 2.0) * c
        + (4.0 + s * s * (4.0 + 4.0 * a2 + a2 * s * s)) * sn)
    return f11, f22, f33, f13


# Each tensor builder returns its 3x3 tensor as a flat row-major 9-tuple of
# floats; spectral_tensors turns one into an array with _matrix.

def _f_single(a):
    v = 1.0 + a * a
    return (v, 0.0, 0.0, 0.0, v, 0.0, 0.0, 0.0, v)


def _f_cross(a, L):
    f11, f22, f33, f13 = _f_parts(a, L)
    return (f11, 0.0, f13, 0.0, f22, 0.0, -f13, 0.0, f33)


def _h_self(a, y):
    # an atom and its own image at chord 2y: the free cross tensor on
    # permuted axes, with the normal-normal component flipped
    f11, f22, f33, f13 = _f_parts(a, 2.0 * y)
    return (f11, f13, 0.0, f13, -f33, 0.0, 0.0, 0.0, f22)


def _h_cross(a, y, L):
    r = math.hypot(L, 2.0 * y)
    p = 4.0 + a * a * r * r
    sq = math.sqrt(p)
    th = _phase(a, r)
    c, sn = math.cos(th), math.sin(th)
    y2, y4, y6 = y * y, y**4, y**6
    L2, L4, L6 = L * L, L**4, L**6
    a2, a4 = a * a, a**4
    r2 = r * r

    h11 = 12.0 / (r**3 * p**2.5) * (
        2.0 * r * sq * (1.0 + a2 * r2) * c
        + (-4.0 - r2 * (2.0 * a2 + a4 * r2 - 4.0 - a2 * r2)) * sn)

    q22 = 4.0 * L2 + a2 * L4 - 16.0 * a2 * y4
    h22 = 3.0 / (r**5 * p**2.5) * (
        -r * sq * ((2.0 + a2 * r2) * q22 - 64.0 * y2) * c
        - (64.0 * (2.0 + a2 * L2) * y2 + 320.0 * a2 * y4
           - 4.0 * L2 * (4.0 + a2 * L2) + r2 * p * q22) * sn)

    h33 = 3.0 / (r**5 * p**2.5) * (
        (20.0 * a2 * L4 + 32.0 * L2 * (1.0 + 2.0 * a2 * y2)
         - 64.0 * y2 * (1.0 + a2 * y2)
         + p * (16.0 * y2 - a2 * L4 + 16.0 * a2 * y4) * r2) * sn
        + r * sq * (-a4 * L6 - 2.0 * L4 * (a2 + 2.0 * a4 * y2)
                    + 16.0 * L2 * (a2 * y2 + a4 * y4 - 1.0)
                    + 32.0 * (y2 + 3.0 * a2 * y4 + 2.0 * a4 * y6)) * c)

    mix = (r * sq * (a2 * r2 - 2.0) * c
           + (4.0 + r2 * (4.0 + 4.0 * a2 + a2 * r2)) * sn)
    h12 = -12.0 * a * y / (r**3 * p**2.5) * mix
    h13 = -6.0 * a * L / (r**3 * p**2.5) * mix

    h23 = 12.0 * L * y / (r**5 * p**2.5) * (
        (2.0 + a2 * r2) * (r2 * p - 12.0) * sn
        + r * sq * (12.0 + 4.0 * a2 * r2 + a4 * r**4) * c)

    return (h11, h12, h13, h12, h22, h23, -h13, -h23, h33)


# exchanges the y and z axes of a flat tensor: entry (i, j) <- (P i, P j)
# with P = (0, 2, 1)
_swap_yz = operator.itemgetter(0, 2, 1, 6, 8, 7, 3, 5, 4)


def _matrix(t):
    return np.array(t).reshape(3, 3)


def _tensor_table(config, part):
    """The tensors of :func:`spectral_tensors` as flat row-major 9-tuples.

    Returns (T11, T22, T12), with T22 None where both atoms share T11.
    This is the only place that dispatches on the alignment.
    """
    a, y, L = config.a, config.y, config.L
    vertical = config.alignment == VERTICAL
    if part == "free":
        fs = _f_single(a)
        fc = _f_cross(a, L)
        if vertical:
            return fs, fs, _swap_yz(fc)
        return fs, None, fc
    if part != "boundary":
        raise ValueError("part must be 'free' or 'boundary'")
    if vertical:
        return _h_self(a, y), _h_self(a, y + L), _h_self(a, y + 0.5 * L)
    return _h_self(a, y), None, _h_cross(a, y, L)


def spectral_tensors(config, part):
    """Distinct 3x3 spectral tensors of one kernel part, keyed by atom pair.

    part is "free" or "boundary"; only that part is built.  Keys come in
    the order (1, 1), (2, 2), (1, 2).  In the parallel alignment both atoms
    sit at height y and share one self tensor, so there is no (2, 2) key
    and the cross image sits at chord sqrt(L^2 + 4 y^2).  In the vertical
    alignment the atoms sit at heights y and y + L, separated along y, and
    the cross image sits at the mean height.  The (2, 1) tensor is always
    the transpose of (1, 2).  Each tensor is a fresh float64 array built
    from the same scalar closed forms that :func:`assemble` contracts.
    """
    t11, t22, t12 = _tensor_table(config, part)
    tensors = {(1, 1): t11, (2, 2): t22, (1, 2): t12}
    return {pair: _matrix(t) for pair, t in tensors.items() if t is not None}


# ---------------------------------------------------------------------------
# thermal factors and assembly
# ---------------------------------------------------------------------------

def tanh_pi_over_a(a):
    if a == 0.0:
        return 1.0
    return math.tanh(math.pi / a)


def spectral_prefactor(omega0, a):
    """omega^3/(3 pi (1 - exp(-2 pi omega/a))) evaluated stably at +-omega.

    This is the overall scale of the Fourier-transformed field correlation;
    the a = 0 limit is omega^3/(3 pi) for positive frequency and 0 for
    negative frequency (no vacuum excitation of an inertial atom).
    """
    if omega0 == 0.0:
        raise ValueError("omega0 must be nonzero")
    if a == 0.0:
        return omega0**3 / (3.0 * math.pi) if omega0 > 0 else 0.0
    x = 2.0 * math.pi * abs(omega0) / a
    if omega0 > 0:
        return omega0**3 / (3.0 * math.pi * (1.0 - math.exp(-x)))
    return abs(omega0) ** 3 * math.exp(-x) / (3.0 * math.pi * (1.0 - math.exp(-x)))


def _pair_table(config, include_boundary):
    """(T_self1, T_self2, T_cross) as flat 9-tuples: free minus boundary."""
    t11, t22, t12 = _tensor_table(config, "free")
    if include_boundary:
        b11, b22, b12 = _tensor_table(config, "boundary")
        t11 = tuple(map(operator.sub, t11, b11))
        t12 = tuple(map(operator.sub, t12, b12))
        if t22 is not None:
            t22 = tuple(map(operator.sub, t22, b22))
    return t11, t22 or t11, t12


def _contract(u, t, v):
    """u . T . v for a flat row-major T, summed in a fixed order.

    The outer sum starts from +0.0, as a BLAS dot does, so an exact zero
    comes out as +0.0.  For axis-aligned u and v every product but one is
    zero and the result is the tensor entry itself.
    """
    u0, u1, u2 = u
    return (0.0 + (u0 * t[0] + u1 * t[3] + u2 * t[6]) * v[0]
            + (u0 * t[1] + u1 * t[4] + u2 * t[7]) * v[1]
            + (u0 * t[2] + u1 * t[5] + u2 * t[8]) * v[2])


class RateError(ValueError):
    """The closed forms give no finite rate set for a configuration."""


def _rate_error(config, problem):
    return RateError(
        f"closed-form rates {problem} at a/omega = {config.a!r}, "
        f"omega*L = {config.L!r}, y/L = {config.y_over_L!r} "
        f"({config.alignment} alignment)")


def assemble(config, include_boundary=True):
    """Six master-equation rates from the closed-form spectral tensors.

    A configuration whose closed forms overflow, divide by an underflowed
    power or end in a non-finite rate raises :class:`RateError`, which
    names the configuration.
    """
    th = tanh_pi_over_a(config.a)
    try:
        t1, t2, tc = _pair_table(config, include_boundary)
        d1, d2 = config.d1.tolist(), config.d2.tolist()
        scale = 0.25 * (1.0 / th)
        a1 = scale * _contract(d1, t1, d1)
        a2 = scale * _contract(d2, t2, d2)
        a3 = scale * _contract(d1, tc, d2)
    except (OverflowError, ValueError) as exc:
        # a chord that overflows to inf ends in math.cos(inf), a ValueError
        raise _rate_error(config, "overflow") from exc
    except ZeroDivisionError as exc:
        raise _rate_error(config, "divide by zero") from exc
    if not (math.isfinite(a1) and math.isfinite(a2) and math.isfinite(a3)):
        raise _rate_error(config, "are not finite")
    return CoefficientSet(a1, a2, a3, a1 * th, a2 * th, a3 * th)


def near_boundary_expansion(config):
    """Leading y/L -> 0 behaviour of the rates, one formula per alignment.

    These are independent power-series results used only to cross-validate
    :func:`assemble` very close to the mirror; they are not a production
    path.
    """
    a, L = config.a, config.L
    th = tanh_pi_over_a(a)
    coth = 1.0 / th
    d1, d2 = config.d1, config.d2
    a2, a4 = a * a, a**4
    L2, L3, L4, L6 = L * L, L**3, L**4, L**6

    if config.alignment == PARALLEL:
        a1 = 0.5 * coth * d1[1] * d1[1] * (a2 + 1.0)
        a2c = 0.5 * coth * d2[1] * d2[1] * (a2 + 1.0)
        p = 4.0 + a2 * L2
        thp = _phase(a, L)
        c, sn = math.cos(thp), math.sin(thp)
        a3 = (3.0 * coth / (2.0 * L3 * p**1.5) * d1[1] * d2[1]
              * (L * math.sqrt(p) * (2.0 + a2 * L2) * c
                 + (-4.0 + L2 * p) * sn))
        return CoefficientSet(a1, a2c, a3, a1 * th, a2c * th, a3 * th)

    # vertical alignment
    a1 = 0.5 * coth * d1[1] * d1[1] * (a2 + 1.0)

    q = 1.0 + a2 * L2
    phi = _phase(a, 2.0 * L)  # (2/a) asinh(a L)
    c, sn = math.cos(phi), math.sin(phi)
    dx, dy, dz = d2[0], d2[1], d2[2]
    cos_part = (dx * dx * (1.0 + 4.0 * a2 * L2)
                + dz * dz * (1.0 + 2.0 * a2 * L2) * q
                + dy * dy * (2.0 + a2 * L2 + 2.0 * a4 * L4)
                - 2.0 * dx * dy * a * L * (2.0 * a2 * L2 - 1.0))
    sin_part = (dx * dx * (1.0 + 2.0 * a2 * L2 + 4.0 * a4 * L4
                           - 4.0 * L2 - 4.0 * a2 * L4)
                + dz * dz * (1.0 - 4.0 * L2 - 4.0 * a2 * L4) * q
                + dy * dy * (2.0 + 5.0 * a2 * L2 - 4.0 * a2 * L4
                             - 4.0 * a4 * L6)
                + 2.0 * a * L * dx * dy * (1.0 + 4.0 * a2 * L2
                                           + 4.0 * L2 + 4.0 * a2 * L4))
    a2c = (-3.0 * coth / (64.0 * L3 * q**2.5)
           * (2.0 * L * math.sqrt(q) * cos_part * c - sin_part * sn)
           + 0.25 * coth * (a2 + 1.0))

    p = 4.0 + a2 * L2
    thp = _phase(a, L)
    c, sn = math.cos(thp), math.sin(thp)
    cos3 = (d1[1] * d2[1] * (16.0 + 2.0 * a2 * L2 + a4 * L4)
            - 2.0 * a * L * d1[1] * d2[0] * (a2 * L2 - 2.0))
    sin3 = (2.0 * a * L * d1[1] * d2[0] * (4.0 + 4.0 * L2 + 4.0 * a2 * L2
                                           + a2 * L4)
            + d1[1] * d2[1] * (32.0 + 20.0 * a2 * L2 - 4.0 * a2 * L4
                               - a4 * L6))
    a3 = (-3.0 * coth / (2.0 * L3 * p**2.5)
          * (L * math.sqrt(p) * cos3 * c - sin3 * sn))

    return CoefficientSet(a1, a2c, a3, a1 * th, a2c * th, a3 * th)


def spectral_tensor(config, pair, part):
    """Closed-form spectral tensor for one atom pair and kernel part.

    pair is (1, 1), (2, 2), (1, 2) or (2, 1); part is "free" or "boundary".
    The Fourier transform of the field correlation along the orbit is
    ``spectral_prefactor(omega0, a) * (free - boundary)``, so the boundary
    kernel alone transforms to minus the returned boundary tensor times the
    prefactor.
    """
    if part not in ("free", "boundary"):
        raise ValueError("part must be 'free' or 'boundary'")
    alpha, beta = pair
    if alpha not in (1, 2) or beta not in (1, 2):
        raise ValueError("atom indices must be 1 or 2")
    t11, t22, t12 = _tensor_table(config, part)
    if alpha == beta:
        return CorrelationTensor(_matrix(t11 if alpha == 1 else t22 or t11))
    m = _matrix(t12)
    return CorrelationTensor(m if alpha == 1 else m.T)
