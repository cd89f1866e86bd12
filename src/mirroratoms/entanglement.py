"""Concurrence of X states and entanglement event extraction.

For X-form states the concurrence reduces to max{0, K1, K2} with two
explicit radicals, the X-state form of Wootters' spin-flip concurrence
(PRL 80, 2245 (1998)); for one state or a whole trajectory, K1 and K2 are
exact to a few ulps of their terms.  A trajectory's K1 and K2 come from the
row terms that ``propagate`` computed for its row checks (pA + pS, the two
radicands, pG pE and |rho_GE|), so the rows are read once for both.
Death/birth/revival times are found
by bracketing sign changes of the smooth quantity max{K1, K2} on a dense
sample grid and refining by bisection on exactly propagated states; the
maximum of C is polished by golden-section search, with or without the
crossings.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dynamics import _EIG_SCREEN_MARGIN, _POS_TOL, _row_terms, propagate

# bisection and golden-section tolerance of event refinement, Gamma0*tau
REFINE_TOL = 1e-6
# a scan grid of more samples is a configuration error, not an allocation:
# 2,500 times a figure grid, whose (N, 6) rows alone take 0.48 GB
MAX_SAMPLES = 10**7

def _k_values(s):
    """The two competing branches K1, K2 of the X-state concurrence."""
    gap, total = s.pA - s.pS, s.pA + s.pS
    re_as, im_as = s.rho_as.real, s.rho_as.imag
    rad1 = gap * gap + 4.0 * (im_as * im_as)
    rad2 = total * total - 4.0 * (re_as * re_as)
    # an inner-block eigenvalue >= -_POS_TOL, as XState requires, gives
    # rad2 >= -4 tol (pA + pS + tol); the screen margin on tol covers the
    # round-off of both evaluations.  K1's radicand is a sum of squares.
    tol = _POS_TOL + _EIG_SCREEN_MARGIN
    if rad2 < -4.0 * tol * (total + tol):
        raise ValueError(
            f"negative radicand {rad2}: upstream positivity violation")
    rad2 = max(rad2, 0.0)
    prod = max(s.pG * s.pE, 0.0)
    k1 = math.sqrt(rad1) - 2.0 * math.sqrt(prod)
    k2 = 2.0 * abs(s.rho_ge) - math.sqrt(rad2)
    return k1, k2


def _k_arrays(traj):
    """K1, K2 of every sample of ``traj`` at once, from its row terms.

    The operations of :func:`_k_values`, with |rho_GE| from ``np.abs``, so
    each K lies within the same few-ulp bound of its exact value.  Where
    rho_GE is 0 (every trajectory from a G, E, A or S start) the two forms
    give the same bytes.  Every row of a propagated trajectory passed the
    :class:`~mirroratoms.dynamics.XState` checks, whose eigenvalue floor
    gives K2's radicand the floor that :func:`_k_values` tests (see there);
    only rows that ``propagate`` did not check are tested here.
    """
    terms = traj.terms
    if terms is None:
        terms = _row_terms(traj.vectors.T, traj.rho_ge)
        total, rad2 = terms[1], terms[3]
        tol = _POS_TOL + _EIG_SCREEN_MARGIN
        bad = np.flatnonzero(rad2 < -4.0 * tol * (total + tol))
        if len(bad):
            raise ValueError(f"negative radicand {float(rad2[bad[0]])}: "
                             "upstream positivity violation")
    _, _, rad1, rad2, prod, ge = terms
    k1 = np.sqrt(rad1)
    root = np.maximum(prod, 0.0)
    np.sqrt(root, out=root)
    root *= 2.0
    k1 -= root
    k2 = np.multiply(ge, 2.0)
    np.maximum(rad2, 0.0, out=root)
    np.sqrt(root, out=root)
    k2 -= root
    return k1, k2


def concurrence_x(s):
    """Concurrence of an X state, in [0, 1]."""
    k1, k2 = _k_values(s)
    return max(0.0, k1, k2)


def concurrence_curve(traj):
    """Concurrence samples along a trajectory."""
    k1, k2 = _k_arrays(traj)
    # fmax passes over a NaN branch, as Python's max does
    return np.fmax(np.fmax(0.0, k1, out=k1), k2, out=k1)


@dataclass(frozen=True)
class EntanglementEvents:
    """Zero crossings and the global maximum of the concurrence.

    death_times    times where C reaches 0 from above
    birth_times    times where C leaves 0
    revival_intervals  (start, end) spans of nonzero C after the first death;
                       an open end equals the horizon when truncated
    max_c, max_c_time  global maximum over the scanned horizon
    truncated      True when C > 0 at the horizon (last event cut off)
    horizon        the scanned time span
    """

    death_times: tuple
    birth_times: tuple
    revival_intervals: tuple
    max_c: float
    max_c_time: float
    truncated: bool
    horizon: float


def _smooth_indicator(traj):
    def f(tau):
        k1, k2 = _k_values(traj.state_at(tau))
        return max(k1, k2)
    return f


def _bisect(f, lo, hi, f_lo, tol):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _golden_max(f, lo, hi, tol):
    """Golden-section maximum of f on [lo, hi]."""
    invphi = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _kvals(traj):
    """max{K1, K2} of every sample; ValueError for fewer than two."""
    if len(traj.times) < 2:
        raise ValueError("need at least two samples")
    k1, k2 = _k_arrays(traj)
    return np.fmax(k1, k2, out=k1)


def _refined_max(traj, kvals, refine_tol):
    """(max_c, max_c_time) from the samples' max{K1, K2}, polished by
    golden-section search between the best sample's neighbours; (0.0,
    the first time) when no K is positive."""
    times = traj.times
    i_best = int(np.argmax(kvals))
    max_c = float(kvals[i_best])
    if not max_c > 0.0:
        return 0.0, float(times[0])
    max_c_time = float(times[i_best])
    lo = float(times[max(i_best - 1, 0)])
    hi = float(times[min(i_best + 1, len(times) - 1)])
    if hi > lo:
        t_ref, c_ref = _golden_max(
            lambda t: concurrence_x(traj.state_at(t)), lo, hi, refine_tol)
        if c_ref >= max_c:
            max_c = float(c_ref)
            max_c_time = float(t_ref)
    return max_c, max_c_time


def max_concurrence(traj, refine_tol=REFINE_TOL):
    """Global maximum of C over the trajectory: (max_c, max_c_time).

    The best sample is polished by golden-section search on exactly
    propagated states to ``refine_tol``; no zero crossing is refined.
    Where C is flat to round-off around its maximum, ``max_c_time`` is
    fixed only to about 1e-4 (the plateau width), and its exact value
    depends on the last bits of every sample.  At the inertial (a = 0)
    xx points max C is itself round-off: 0 or about 1e-16.
    """
    return _refined_max(traj, _kvals(traj), refine_tol)


def analyze_events(traj, refine_tol=REFINE_TOL):
    """Extract death/birth/revival events and the global maximum of C.

    The scanned horizon is the trajectory's last time.  The trajectory must
    be sampled densely enough that max{K1, K2} changes sign at most once
    per sample interval (the default sweep step of 1e-2 Gamma_0 tau
    satisfies this for all configurations here).  Every crossing is refined
    by bisection on exact propagation.  ``max_c`` and ``max_c_time`` are
    those of :func:`max_concurrence`, found from the same samples.
    """
    kvals = _kvals(traj)
    times = traj.times
    horizon = float(times[-1])
    f = _smooth_indicator(traj)

    deaths = []
    births = []
    sign = kvals > 0.0
    for i in np.flatnonzero(sign[1:] != sign[:-1]):
        t_cross = _bisect(f, times[i], times[i + 1], kvals[i], refine_tol)
        if sign[i]:
            deaths.append(t_cross)
        else:
            births.append(t_cross)

    truncated = bool(sign[-1])

    revivals = []
    for t_birth in births:
        if deaths and t_birth > deaths[0]:
            later_deaths = [t for t in deaths if t > t_birth]
            end = later_deaths[0] if later_deaths else horizon
            revivals.append((t_birth, end))

    max_c, max_c_time = _refined_max(traj, kvals, refine_tol)
    return EntanglementEvents(
        death_times=tuple(deaths), birth_times=tuple(births),
        revival_intervals=tuple(revivals), max_c=max_c,
        max_c_time=max_c_time, truncated=truncated, horizon=horizon)


def scan_size(horizon, step):
    """Number of samples of the uniform grid on [0, horizon] with spacing
    at most ``step`` (at least three); ValueError naming the field if either
    is not a real number or not positive and finite, or if the grid would
    exceed ``MAX_SAMPLES``."""
    for value, name in ((horizon, "horizon"), (step, "sample_step")):
        # JSON true and false are Python bools, which are ints
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number")
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
        if value <= 0:
            raise ValueError(f"{name} must be positive")
    # horizon / step may overflow to inf, which fails the test too
    if not horizon / step <= MAX_SAMPLES - 1:
        raise ValueError(
            f"horizon / sample_step = {horizon / step:.6g} asks for more "
            f"than {MAX_SAMPLES} grid samples")
    return max(math.ceil(horizon / step), 2) + 1


@functools.lru_cache(maxsize=16)
def _scan_grid(horizon, n):
    """``np.linspace(0.0, horizon, n)``, built once and read-only, since
    every point of a sweep and its free-space companion share it."""
    times = np.linspace(0.0, horizon, n)
    times.flags.writeable = False
    return times


def scan_trajectory(generator, s0, horizon, step=1e-2):
    """Propagate on a uniform grid suited for event analysis."""
    return propagate(generator, s0,
                     _scan_grid(horizon, scan_size(horizon, step)))
