"""The tests' one 40-digit reference: rows expm(M t) v0, K1/K2 with bounds
on their double-precision error, and the maximum of C with its time.

Each value is the exact formula of the program's own float inputs (the
generator's entries, a state's six floats), so a test measures only the
program's round-off.  It imports no test framework, so that scripts can
build references from it too.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

EPS = 2.0 ** -52
# the spacing of the subnormals: an operation that underflows is off by at
# most this much
TINY = math.ulp(0.0)


def row_errors(gen, s0, times, *row_sets):
    """max_k |row[k] - (expm(M t) v0)[k]| of each row of each set at the
    given times, as a (len(row_sets), len(times)) array."""
    with mp.workdps(40):
        m = mp.matrix(gen.block_pop.tolist())
        v0 = mp.matrix(s0.vector().tolist())
        exact = [mp.expm(m * t) * v0 for t in times]
        return np.array([[float(max(abs(row[k] - e[k]) for k in range(6)))
                          for row, e in zip(rows, exact)]
                         for rows in row_sets])


def _sqrt_error(rad, err):
    """Bound on |sqrt(max(r, 0)) - sqrt(rad)| for any r within err of
    rad >= 0: err / (sqrt(r) + sqrt(rad)), and never more than sqrt(err)."""
    return math.sqrt(err) if rad <= err else err / math.sqrt(rad)


def k_with_bounds(s):
    """((k1, bound1), (k2, bound2)): K1, K2 of the six floats of the state
    ``s`` in 40-digit arithmetic, with a bound on the error of their
    double-precision evaluation.

    A radicand is a sum of two squares (K1's) or a difference of two
    (K2's); in doubles it is off by at most 3 EPS times the sum of its
    terms plus 3 TINY, and so is pG * pE by EPS times itself plus TINY.
    ``_sqrt_error`` carries these through the square roots.  The other
    roundings (the roots themselves, |rho_GE| and the final difference)
    add at most 2 EPS times the sum of K's two terms plus 4 TINY.
    """
    with mp.workdps(40):
        p_g, p_e, p_a, p_s = (mp.mpf(x) for x in (s.pG, s.pE, s.pA, s.pS))
        re_as, im_as = mp.mpf(s.rho_as.real), mp.mpf(s.rho_as.imag)
        squares1 = ((p_a - p_s) ** 2, 4 * im_as ** 2)
        squares2 = ((p_a + p_s) ** 2, 4 * re_as ** 2)
        rad1 = max(squares1[0] + squares1[1], 0)
        rad2 = max(squares2[0] - squares2[1], 0)
        prod = max(p_g * p_e, 0)
        root1, root2 = mp.sqrt(rad1), mp.sqrt(rad2)
        pe_root = 2 * mp.sqrt(prod)
        ge = 2 * abs(mp.mpc(s.rho_ge))
        k1, k2 = root1 - pe_root, ge - root2
        pe_error = 2 * _sqrt_error(float(prod), EPS * float(prod) + TINY)
        bound1 = (_sqrt_error(float(rad1),
                                 3 * EPS * float(sum(squares1)) + 3 * TINY)
                  + pe_error + 2 * EPS * float(root1 + pe_root) + 4 * TINY)
        bound2 = (_sqrt_error(float(rad2),
                                 3 * EPS * float(sum(squares2)) + 3 * TINY)
                  + 2 * EPS * float(ge + root2) + 4 * TINY)
        return (k1, bound1), (k2, bound2)


# A jet is an object array (f, f', f''), a value and its first two time
# derivatives; numpy adds and scales jets, these two multiply and root them.

def _product(a, b):
    return np.array([a[0] * b[0], a[1] * b[0] + a[0] * b[1],
                     a[2] * b[0] + 2 * a[1] * b[1] + a[0] * b[2]])


def _root(a):
    f = mp.sqrt(a[0])
    if not f:   # the root has no derivative at 0
        return np.array([f, mp.nan, mp.nan])
    return np.array([f, a[1] / (2 * f),
                     (2 * a[0] * a[2] - a[1] ** 2) / (4 * a[0] * f)])


def _branch_jet(gen, s0, t):
    """The jet of the larger of K1 and K2 at time t, from the exact
    derivatives x' = M x and x'' = M^2 x of the coordinates and r^k
    rho_GE(t) of rho_GE(t) = rho_GE(0) e^(r t); call within 40 digits."""
    m = mp.matrix(gen.block_pop.tolist())
    x = mp.expm(m * t) * mp.matrix(s0.vector().tolist())
    x1 = m * x
    p_g, p_e, p_a, p_s, re_as, im_as = np.array(
        [list(x), list(x1), list(m * x1)], dtype=object).T
    gap, total = p_a - p_s, p_a + p_s
    k1 = (_root(_product(gap, gap) + 4 * _product(im_as, im_as))
          - 2 * _root(_product(p_g, p_e)))
    rate = mp.mpf(gen.rate_ge)
    ge = 2 * abs(mp.mpc(s0.rho_ge)) * mp.exp(rate * t)
    k2 = (np.array([ge, rate * ge, rate * rate * ge])
          - _root(_product(total, total) - 4 * _product(re_as, re_as)))
    return max(k1, k2, key=lambda k: k[0])


def concurrence(gen, s0, t):
    """C(t) = max(0, K1, K2) of expm(M t) v0, in 40 digits."""
    with mp.workdps(40):
        return max(_branch_jet(gen, s0, mp.mpf(t))[0], 0)


def max_c(gen, s0, t, steps=3):
    """(C*, t*, |C''(t*)|) at the interior maximum of C near ``t``, found by
    ``steps`` Newton steps on C' from ``t`` with exact derivatives;
    ValueError where C is not positive and concave, at ``t`` or at a step,
    so that no step leaves the maximum's neighbourhood."""
    with mp.workdps(40):
        t = mp.mpf(t)
        for step in range(steps + 1):
            c, c1, c2 = _branch_jet(gen, s0, t)
            if not (c > 0 and c2 < 0):
                raise ValueError(f"no interior maximum of C at t = {float(t)}")
            if step == steps:
                return float(c), float(t), float(-c2)
            t -= c1 / c2
