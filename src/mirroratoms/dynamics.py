"""Exact propagation of the two-atom X-form master equation.

In the coupled basis {|G>, |A>, |S>, |E>} the populations, the A-S
coherence and the G-E coherence close on themselves.  The state is stored
as 6 real coordinates (pG, pE, pA, pS, Re rho_AS, Im rho_AS) plus the
complex rho_GE; hermiticity is built in, never checked after the fact.
The generator is a constant 6x6 real matrix plus a scalar decay rate for
rho_GE.  ``propagate`` fixes one route per trajectory.  The eig route, an
eigendecomposition of the block, serves when its eigenvector basis v is
well conditioned and holds the population sum within ``_TRACE_GUARD`` at
every nonzero grid time; its rows are one (6, 6) x (6, N) product.  Nearly
defective collective modes (small separations) leak trace on it, and then
every row comes from anchored scaling-and-squaring exponentials: every
64th row is expm(M t) v0, and each row between steps from the one before
with expm(M h) of its grid step h.  ``Trajectory.state_at`` reads the
route, so its value never depends on earlier calls: one matrix-vector
product on the eig route, or expm(M tau) v0 where that product's population
sum drifts beyond ``_TRACE_GUARD`` (the route was checked on the grid
only), expm(M tau) v0 on the expm route, never a row.
scipy is imported by the first exponential, so a process that stays on the
eig route never loads it: among the figure presets only fig13, fig14, fig18
and fig19 take the expm route.

A trajectory is array-backed: six contiguous (N,) series of coordinates,
read as rows through their (N, 6) transpose, and an (N,) complex array of
rho_GE, a scalar decay rho_GE(0) e^(rate_ge t).  From a zero start (every
preset) rho_GE is +0 at every time, and no exponential or |rho_GE| is
formed for it.  One pass over the rows (``_row_terms``) computes the
intermediates that both 2x2 blocks of an X state share: pG + pE, pA + pS,
K1's and K2's radicands, pG pE and |rho_GE|.  The row checks screen every
row from them at once, and the trajectory keeps them, so the concurrence
branches K1 and K2 (``entanglement``) are formed from the same arrays
without a second pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

_TRACE_TOL = 1e-12
_POS_TOL = 1e-10
_COND_LIMIT = 1e12
# population-sum drift that moves a trajectory off the eig route
_TRACE_GUARD = 1e-13
# slack of the vectorised min-eigenvalue screen in _validate_rows
_EIG_SCREEN_MARGIN = 1e-14
# the screen's eigenvalue floor is -_SCREEN_TOL
_SCREEN_TOL = _POS_TOL - _EIG_SCREEN_MARGIN
# state_at forms no exponent larger than this where it skips np.errstate:
# e^600 times the eig route's coefficients (|v^-1 v0| <= _COND_LIMIT |v0|)
# stays far below the float limit
_QUIET_EXPONENT = 600.0
# rows per expm anchor in _anchored_rows
_BLOCK = 64


def expm(a):
    """``scipy.linalg.expm``, imported on the first call: importing
    ``scipy.linalg`` costs about half of the command line's start-up."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


class PropagationError(ValueError):
    """A generator entry is not finite, or a propagated state fails the
    :class:`XState` checks: the rates or the arithmetic broke positivity."""


@dataclass(frozen=True)
class XState:
    """X-form two-qubit state in the coupled basis."""

    pG: float
    pE: float
    pA: float
    pS: float
    rho_as: complex = 0.0 + 0.0j
    rho_ge: complex = 0.0 + 0.0j

    def __post_init__(self):
        # every check is written so that NaN fails it
        p_g, p_e, p_a, p_s = self.pG, self.pE, self.pA, self.pS
        tr = p_g + p_e + p_a + p_s
        if not abs(tr - 1.0) <= _TRACE_TOL:
            raise ValueError(f"populations must sum to 1, got {tr!r}")
        if not (p_g >= -_POS_TOL and p_e >= -_POS_TOL
                and p_a >= -_POS_TOL and p_s >= -_POS_TOL):
            name = next(f for f in ("pG", "pE", "pA", "pS")
                        if not getattr(self, f) >= -_POS_TOL)
            raise ValueError(f"{name} is negative beyond tolerance")
        # min() in min_eigenvalue would drop a NaN block eigenvalue
        if not math.isfinite(abs(self.rho_as) + abs(self.rho_ge)):
            raise ValueError("coherences rho_AS and rho_GE must be finite")
        lam = self.min_eigenvalue()
        if not lam >= -_POS_TOL:
            raise ValueError(f"state not positive (min eigenvalue {lam})")

    def min_eigenvalue(self):
        """Smallest eigenvalue of the density matrix, in closed form.

        The X pattern splits the matrix into two 2x2 blocks, so no
        numerical eigensolver is needed.
        """
        p_g, p_e, p_a, p_s = self.pG, self.pE, self.pA, self.pS
        re_as, im_as = self.rho_as.real, self.rho_as.imag
        half_gap = 0.5 * (p_s - p_a)
        outer = (0.5 * (p_g + p_e)
                 - math.hypot(0.5 * (p_g - p_e), abs(self.rho_ge)))
        inner = (0.5 * (p_a + p_s)
                 - math.sqrt(half_gap * half_gap + re_as * re_as
                             + im_as * im_as))
        return min(outer, inner)

    @classmethod
    def ground(cls):
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def excited(cls):
        return cls(0.0, 1.0, 0.0, 0.0)

    @classmethod
    def antisymmetric(cls):
        return cls(0.0, 0.0, 1.0, 0.0)

    @classmethod
    def symmetric(cls):
        return cls(0.0, 0.0, 0.0, 1.0)

    @classmethod
    def preset(cls, name):
        table = {"G": cls.ground, "E": cls.excited,
                 "A": cls.antisymmetric, "S": cls.symmetric}
        if name not in table:
            raise ValueError(f"unknown state preset {name!r}; "
                             f"use one of {sorted(table)}")
        return table[name]()

    @classmethod
    def resolve(cls, state):
        """An initial state given as a preset name, an :class:`XState` or a
        4x4 density matrix; ValueError if it is none of them."""
        if isinstance(state, str):
            return cls.preset(state)
        if isinstance(state, cls):
            return state
        return cls.from_density_matrix(state)

    def vector(self):
        """Coordinates (pG, pE, pA, pS, Re rho_AS, Im rho_AS)."""
        return np.array([self.pG, self.pE, self.pA, self.pS,
                         self.rho_as.real, self.rho_as.imag])

    @classmethod
    def from_vector(cls, v, rho_ge=0.0 + 0.0j):
        """The state of coordinates ``v``, as :meth:`vector` orders them."""
        p_g, p_e, p_a, p_s, re_as, im_as = np.asarray(v, dtype=float).tolist()
        return cls(p_g, p_e, p_a, p_s, complex(re_as, im_as), complex(rho_ge))

    def density_matrix(self):
        """4x4 matrix in the product basis {|00>, |01>, |10>, |11>}."""
        half = 0.5 * (self.pA + self.pS)
        re_as, im_as = self.rho_as.real, self.rho_as.imag
        r21 = 0.5 * (self.pS - self.pA) + 1j * im_as
        rho = np.array([
            [self.pG, 0.0, 0.0, self.rho_ge],
            [0.0, half - re_as, np.conj(r21), 0.0],
            [0.0, r21, half + re_as, 0.0],
            [np.conj(self.rho_ge), 0.0, 0.0, self.pE],
        ], dtype=complex)
        return rho

    @classmethod
    def from_density_matrix(cls, rho):
        """Validate a 4x4 matrix and extract the X-form coordinates.

        Rejects non-finite, non-hermitian and non-positive matrices and
        matrices with entries off the X pattern, each beyond the states'
        tolerance ``_POS_TOL``, and a trace beyond ``_TRACE_TOL`` of 1, the
        tolerance of the populations' sum, added as :class:`XState` adds it.
        """
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError("density matrix must be 4x4")
        if not np.all(np.isfinite(rho)):
            raise ValueError("density matrix entries must be finite")
        if np.max(np.abs(rho - rho.conj().T)) > _POS_TOL:
            raise ValueError("density matrix is not hermitian")
        # Python numbers, so that the fields and XState's messages print as
        # numbers, not numpy scalars
        p_g, r11, r22, p_e = rho.diagonal().real.tolist()
        r21 = complex(rho[2, 1])
        half = 0.5 * (r11 + r22)
        p_a, p_s = half - r21.real, half + r21.real
        if not abs(p_g + p_e + p_a + p_s - 1.0) <= _TRACE_TOL:
            raise ValueError("density matrix trace must be 1")
        if np.linalg.eigvalsh(rho).min() < -_POS_TOL:
            raise ValueError("density matrix is not positive semidefinite")
        mask = np.array([[1, 0, 0, 1],
                         [0, 1, 1, 0],
                         [0, 1, 1, 0],
                         [1, 0, 0, 1]], dtype=bool)
        if np.max(np.abs(rho[~mask])) > _POS_TOL:
            raise ValueError("density matrix is not of X form")
        return cls(p_g, p_e, p_a, p_s,
                   complex(0.5 * (r22 - r11), r21.imag), complex(rho[0, 3]))


@dataclass(frozen=True)
class Generator:
    """Constant generator: 6x6 population/coherence block + G-E decay rate."""

    block_pop: np.ndarray
    rate_ge: float


def build_generator(coeffs):
    """Generator of the coupled-basis evolution from the six rates.

    Row/column order (pG, pE, pA, pS, Re rho_AS, Im rho_AS); the population
    columns sum to zero by construction, so the trace is conserved
    structurally.
    """
    a1, a2, a3 = coeffs.A1, coeffs.A2, coeffs.A3
    b1, b2, b3 = coeffs.B1, coeffs.B2, coeffs.B3

    # left-to-right prefixes and repeated entries, each computed once, so
    # every entry keeps the operation order of its formula
    pp, pm = a1 + b1 + a2 + b2, a1 - b1 + a2 - b2
    a3x2, b3x2, s12, db = 2.0 * a3, 2.0 * b3, a1 + a2, -b1 + b2
    pp_m, pp_p = pp - a3x2 - b3x2, pp + a3x2 + b3x2
    pm_m, pm_p = pm - a3x2 + b3x2, pm + a3x2 - b3x2
    rate_ge = -2.0 * s12
    entries = [
        # dpG
        -2.0 * pm, 0.0, pp_m, pp_p, 2.0 * (a1 + b1 - a2 - b2), 0.0,
        # dpE
        0.0, -2.0 * pp, pm_m, pm_p, 2.0 * (-a1 + b1 + a2 - b2), 0.0,
        # dpA
        pm_m, pp_m, -2.0 * (s12 - a3x2), 0.0, 2.0 * db, 0.0,
        # dpS
        pm_p, pp_p, 0.0, -2.0 * (s12 + a3x2), 2.0 * db, 0.0,
        # d Re rho_AS
        a1 - b1 - a2 + b2, -a1 - b1 + a2 + b2, db, db, rate_ge, 0.0,
        # d Im rho_AS
        0.0, 0.0, 0.0, 0.0, 0.0, rate_ge,
    ]
    # a NaN rate or an entry that overflows leaves the sum non-finite
    if not math.isfinite(sum(entries)):
        raise PropagationError("a generator entry overflows or is NaN")
    return Generator(np.array(entries).reshape(6, 6), rate_ge)


@dataclass
class Trajectory:
    """Exactly propagated states at the requested times.

    vectors  (N, 6) coordinates (pG, pE, pA, pS, Re rho_AS, Im rho_AS),
             the transpose of a C-contiguous (6, N) array, so that
             ``vectors.T`` holds each coordinate as one contiguous series
    rho_ge   (N,) complex G-E coherence rho_GE(0) e^(rate_ge t); zeros
             from a +0 start
    modes    (w, v, v^-1 v0), the eigenvalues and eigenvectors of the block
             and the initial coordinates in that basis, on the eig route;
             None on the expm route
    terms    the (6, N) row terms of :func:`_row_terms`, from which
             ``propagate`` checked every row; None for rows it did not check
    """

    times: np.ndarray
    vectors: np.ndarray
    rho_ge: np.ndarray
    generator: Generator
    initial_state: XState
    modes: tuple | None = field(repr=False)
    terms: np.ndarray | None = field(default=None, repr=False)
    # propagate's _zero_ge: rho_GE is +0 at every time
    _zero_ge: bool = field(default=False, repr=False)

    @property
    def method(self):
        """The route of every row, "eig" or "expm"."""
        return "eig" if self.modes is not None else "expm"

    @functools.cached_property
    def quiet_until(self):
        """The time up to which no exponent that :meth:`state_at` forms on
        the eig route exceeds ``_QUIET_EXPONENT``, so that it needs no numpy
        error-state context there; 0.0 on the expm route."""
        if self.modes is None:
            return 0.0
        scale = max(float(np.abs(self.modes[0]).max()),
                    abs(self.generator.rate_ge))
        return _QUIET_EXPONENT / scale if scale else math.inf

    def state_at(self, tau):
        """Exact state at an arbitrary time; ValueError if ``tau`` is
        negative or not finite.

        One matrix-vector product on the eig route, expm(M tau) v0 on the
        expm route or where the eig value drifts by itself; at a grid time
        either lies within round-off of the row, not bit for bit.  rho_GE
        is rho_GE(0) e^(rate_ge tau), or 0j from a +0 start.
        """
        if not 0.0 <= tau < math.inf:
            raise ValueError(
                f"tau must be finite and non-negative, got {float(tau)!r}")
        if tau <= self.quiet_until:
            return self._state_at(tau)
        # as in propagate, rates near the float limit may overflow rate x
        # tau; _propagated_state refuses a result that is not a state
        with np.errstate(over="ignore", invalid="ignore"):
            return self._state_at(tau)

    def _state_at(self, tau):
        s0 = self.initial_state
        ge = (0j if self._zero_ge
              else s0.rho_ge * np.exp(self.generator.rate_ge * tau))
        if tau == 0.0:
            return _propagated_state(s0.vector(), ge, tau)
        if self.modes is not None:
            w, v, coeff = self.modes
            p_g, p_e, p_a, p_s, re_as, im_as = (
                v @ (np.exp(w * tau) * coeff)).real.tolist()
            # left to right, as propagate adds the drift's columns
            if (abs(p_g + p_e + p_a + p_s - (s0.pG + s0.pE + s0.pA + s0.pS))
                    <= _TRACE_GUARD):
                return _state(tau, p_g, p_e, p_a, p_s, re_as, im_as, ge)
        # quiet_until bounds the eig route's exponents, not the exponential's
        # own squarings
        with np.errstate(over="ignore", invalid="ignore"):
            vec = expm(self.generator.block_pop * tau) @ s0.vector()
        return _propagated_state(vec, ge, tau)


def _zero_ge(gen, s0):
    """Whether rho_GE(0) e^(rate_ge t) is +0+0j at every t >= 0: rho_GE(0)
    is complex +0+0j (both parts +0.0, as every preset gives) and rate_ge is
    negative and finite, so the factor lies in [0, 1]."""
    ge0 = s0.rho_ge
    return (isinstance(ge0, complex) and ge0 == 0
            and math.copysign(1.0, ge0.real) > 0.0
            and math.copysign(1.0, ge0.imag) > 0.0
            and -math.inf < gen.rate_ge < 0.0)


def _state(tau, p_g, p_e, p_a, p_s, re_as, im_as, rho_ge):
    """The :class:`XState` of propagated coordinates, as
    :meth:`XState.from_vector` builds it; :class:`PropagationError` naming
    the time if they are not a state."""
    try:
        return XState(p_g, p_e, p_a, p_s, complex(re_as, im_as),
                      complex(rho_ge))
    except ValueError as exc:
        raise PropagationError(
            f"{exc} at gamma0_tau = {float(tau)!r}") from exc


def _propagated_state(vec, rho_ge, tau):
    """The :class:`XState` of a propagated row, as :func:`_state`."""
    return _state(tau, *np.asarray(vec, dtype=float).tolist(), rho_ge)


def _anchored_rows(m, v0, times):
    """expm(m t) @ v0 at each of the ascending ``times``, by anchored blocks.

    Every ``_BLOCK``-th time is an anchor, expm(m t) @ v0 itself; each
    other row is expm(m h) @ the row before, h being its grid step.  One
    batched ``expm`` serves the anchors and every distinct step, so a
    4,001-point ``linspace`` costs about 80 exponentials, and a non-uniform
    grid needs no other code.  Stepping runs across all blocks at once, one
    stacked product per position in the block.
    """
    n = len(times)
    n_blocks = -(-n // _BLOCK)
    steps, step_of = np.unique(np.diff(times), return_inverse=True)
    mats = expm(m * np.concatenate([times[::_BLOCK], steps])[:, None, None])
    out = np.empty((n_blocks * _BLOCK, 6))
    out[::_BLOCK] = np.matmul(mats[:n_blocks], v0)
    # the step into each row from the one before; rows past n pad the last
    # block and reuse step 0
    into = np.zeros(n_blocks * _BLOCK, dtype=int)
    into[1:n] = step_of
    blocks = out.reshape(n_blocks, _BLOCK, 6)
    into = into.reshape(n_blocks, _BLOCK)
    step_mats = mats[n_blocks:]
    for j in range(1, min(n, _BLOCK)):
        blocks[:, j] = np.matmul(step_mats[into[:, j]],
                                 blocks[:, j - 1, :, None])[:, :, 0]
    return out[:n]


def _row_terms(series, rho_ge):
    """The row terms of the (6, N) coordinate ``series`` and the (N,)
    ``rho_ge`` (None where it is +0), as one (6, N) array with rows

        s_ge   pG + pE, the trace of the outer (G, E) block
        total  pA + pS, the trace of the inner (A, S) block
        rad1   (pA - pS)^2 + 4 (Im rho_AS)^2, the radicand of K1
        rad2   (pA + pS)^2 - 4 (Re rho_AS)^2, the radicand of K2
        prod   pG pE
        ge     |rho_GE|

    K's four terms by the operations, in the order, of
    ``entanglement._k_values``, so that K formed from them has its bits.
    """
    p_g, p_e, p_a, p_s, re_as, im_as = series
    terms = np.empty((6, series.shape[1]))
    s_ge, total, rad1, rad2, prod, ge = terms
    np.add(p_g, p_e, out=s_ge)
    np.add(p_a, p_s, out=total)
    np.subtract(p_a, p_s, out=rad1)
    rad1 *= rad1
    square = np.multiply(im_as, im_as)
    square *= 4.0
    rad1 += square
    np.multiply(total, total, out=rad2)
    np.multiply(re_as, re_as, out=square)
    square *= 4.0
    rad2 -= square
    np.multiply(p_g, p_e, out=prod)
    if rho_ge is None:
        ge.fill(0.0)
    else:
        np.abs(rho_ge, out=ge)
    return terms


def _population_sums(series, terms):
    """(sums, least, greatest): pG + pE + pA + pS of every row, added left to
    right as :class:`XState` and ``state_at`` add them, and the sums' least
    and greatest value (NaN if any sum is NaN)."""
    sums = terms[0] + series[2]
    sums += series[3]
    return sums, float(sums.min()), float(sums.max())


def _validate_rows(times, series, rho_ge, terms, sums, least, greatest):
    """Apply the :class:`XState` checks to every row at once.

    ``rho_ge`` is None where it is +0 at every time, ``terms`` are the rows'
    :func:`_row_terms`, and ``sums``, ``least`` and ``greatest`` their
    :func:`_population_sums`.  Rounding is monotone, so the least and the
    greatest sum decide every row's |sum - 1| <= ``_TRACE_TOL`` at once.

    The rest is one screen per 2x2 block of the X state, with t =
    ``_SCREEN_TOL``.  A block of trace T, determinant D and eigenvalues
    l- <= l+ has (l- + t)(l+ + t) = D + t (T + t); with T >= -2t,
    l+ + t >= 0, so the product is non-negative exactly when l- >= -t.  The
    outer block has T = s_ge and D = prod - ge^2 (prod itself where rho_GE
    is +0); the inner block T = total and 4D = rad2 - rad1.  Each
    population is a diagonal entry of its block (in the A, S basis for the
    inner one), so it lies between l- and l+, and the screen needs no
    population test of its own.  Rounding moves each product by at most 5u
    times the sum of its terms' magnitudes (u = 2^-53), which moves l- by at
    most 10u l+ <= 1.2e-15, since l+ <= 1 + 3 _POS_TOL on a row that
    passes; XState's closed form of l- is within 4u of it.  So a row the
    screen passes has an eigenvalue above -_POS_TOL + _EIG_SCREEN_MARGIN -
    1.7e-15 and passes XState.

    Whole-array reductions pass a trajectory whose every row passes: each
    block's least T, then its least D against -t (T_min + t), which is
    stricter than every row's own -t (T + t).  When one of them fails, NaN
    included, the rows are screened one by one, and every flagged row is
    rebuilt as an :class:`XState`, whose own checks decide and raise.
    """
    s_ge, total, rad1, rad2, prod, ge = terms
    t = _SCREEN_TOL
    # D and 4D; D is prod itself where rho_GE is +0
    det_out = prod if rho_ge is None else np.subtract(prod, ge * ge)
    det_in = np.subtract(rad2, rad1)
    t_out, t_in = float(s_ge.min()), float(total.min())
    if (greatest - 1.0 <= _TRACE_TOL and 1.0 - least <= _TRACE_TOL
            and t_out >= -2.0 * t and t_in >= -2.0 * t
            and det_out.min() >= -t * (t_out + t)
            and det_in.min() >= -4.0 * t * (t_in + t)):
        return
    # not in place: det_out may be the trajectory's prod
    det_out = det_out + t * (s_ge + t)
    det_in += 4.0 * t * (total + t)
    ok = ((np.abs(sums - 1.0) <= _TRACE_TOL)
          & (s_ge >= -2.0 * t) & (total >= -2.0 * t)
          & (det_out >= 0.0) & (det_in >= 0.0))
    for i in np.flatnonzero(~ok):
        _propagated_state(series[:, i], 0j if rho_ge is None else rho_ge[i],
                          times[i])


def sample_times(times):
    """The times as a float array; ValueError unless they are a non-empty
    1-D sequence, finite, non-negative and ascending."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a non-empty 1-D sequence")
    # NaN fails every comparison: these three also refuse non-finite times
    if not (times[0] >= 0 and (times[1:] >= times[:-1]).all()
            and times[-1] < np.inf):
        raise ValueError("times must be finite" if not np.isfinite(times).all()
                         else "times must be non-negative and ascending")
    return times


# _validate_rows names each row that rates near the float limit overflow
@np.errstate(over="ignore", invalid="ignore")
def propagate(gen, s0, times):
    """Propagate an initial X state to each requested time.

    Times must be non-negative and ascending (:func:`sample_times`).  The
    result is exact up to linear-algebra round-off; there is no step-size
    anywhere.  A row that is not a state raises :class:`PropagationError`.
    """
    times = sample_times(times)
    m = gen.block_pop
    if np.shape(m) != (6, 6):
        raise ValueError("generator population block must be 6x6")

    v0 = s0.vector()
    tr0 = s0.pG + s0.pE + s0.pA + s0.pS
    # times ascend, so the zero times are a prefix
    n0 = int(np.searchsorted(times, 0.0, side="right"))
    ge = (None if _zero_ge(gen, s0)
          else s0.rho_ge * np.exp(gen.rate_ge * times))
    modes = None
    w, v = np.linalg.eig(m)
    try:
        # the value of np.linalg.cond(v), without its wrapper checks
        s = np.linalg.svd(v, compute_uv=False)
        cond = s[0] / s[-1] if s[-1] != 0.0 else np.inf
    except np.linalg.LinAlgError:
        cond = np.inf
    if cond <= _COND_LIMIT:     # NaN fails the test
        coeff = np.linalg.inv(v) @ v0
        # one contiguous series per coordinate, the rows its transpose, from
        # one (6, 6) x (6, N) product; state_at's matrix-vector product sums
        # in another order, so the two agree within cond(v) ulps
        e = np.multiply(w[:, None], times)
        np.exp(e, out=e)
        e *= coeff[:, None]
        series = np.ascontiguousarray((v @ e).real)
        del e
        series[:, :n0] = v0[:, None]
        terms = _row_terms(series, ge)
        sums, least, greatest = _population_sums(series, terms)
        # rounding is monotone, so these are the largest drifts of either
        # sign; the zero times' sum is tr0 itself, and NaN fails the test
        if greatest - tr0 <= _TRACE_GUARD and tr0 - least <= _TRACE_GUARD:
            modes = (w, v, coeff)
    if modes is None:
        series = np.ascontiguousarray(_anchored_rows(m, v0, times).T)
        series[:, :n0] = v0[:, None]
        terms = _row_terms(series, ge)
        sums, least, greatest = _population_sums(series, terms)
    _validate_rows(times, series, ge, terms, sums, least, greatest)
    rho_ge = np.zeros(len(times), complex) if ge is None else ge
    return Trajectory(times=times, vectors=series.T, rho_ge=rho_ge,
                      generator=gen, initial_state=s0, modes=modes,
                      terms=terms, _zero_ge=ge is None)
