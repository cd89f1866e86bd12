"""Concurrence formula vs the Wootters oracle, and event extraction."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mirroratoms import coefficients as co
from mirroratoms import dynamics as dy
from mirroratoms import entanglement as en
import shadow
from conftest import GE_STARTS, concurrence_oracle, random_x_state

X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)


# ---------------------------------------------------------------------
# concurrence values
# ---------------------------------------------------------------------

def test_symmetric_state_is_maximally_entangled():
    assert en.concurrence_x(dy.XState.symmetric()) == 1.0
    assert en.concurrence_x(dy.XState.antisymmetric()) == 1.0


def test_product_states_are_separable():
    assert en.concurrence_x(dy.XState.excited()) == 0.0
    assert en.concurrence_x(dy.XState.ground()) == 0.0


def test_equal_bell_mixture_is_separable():
    s = dy.XState(0.0, 0.0, 0.5, 0.5)
    assert en.concurrence_x(s) == 0.0


def test_maximally_mixed_is_separable():
    assert concurrence_oracle(np.eye(4) / 4.0) == 0.0


def test_bell_state_oracle_value():
    rho = dy.XState.symmetric().density_matrix()
    assert abs(concurrence_oracle(rho) - 1.0) <= 1e-12


def test_oracle_rejects_invalid_matrices():
    with pytest.raises(ValueError):
        concurrence_oracle(np.eye(4))  # trace 4
    with pytest.raises(ValueError):
        concurrence_oracle(np.diag([1.5, -0.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        concurrence_oracle(np.ones((3, 3)) / 3)


def test_x_formula_equals_wootters_oracle(rng):
    for _ in range(1000):
        s = random_x_state(rng)
        direct = en.concurrence_x(s)
        general = concurrence_oracle(s.density_matrix())
        assert abs(direct - general) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(p=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       frac_as=st.floats(0.0, 0.95), frac_ge=st.floats(0.0, 0.95),
       phase_as=st.floats(0.0, 2 * np.pi), phase_ge=st.floats(0.0, 2 * np.pi))
def test_x_formula_equals_oracle_hypothesis(p, frac_as, frac_ge,
                                            phase_as, phase_ge):
    p = np.array(p) / np.sum(p)
    rho_as = frac_as * np.sqrt(p[2] * p[3]) * np.exp(1j * phase_as)
    rho_ge = frac_ge * np.sqrt(p[0] * p[1]) * np.exp(1j * phase_ge)
    s = dy.XState(p[0], p[1], p[2], p[3], rho_as=rho_as, rho_ge=rho_ge)
    assert abs(en.concurrence_x(s)
               - concurrence_oracle(s.density_matrix())) <= 1e-12


def test_concurrence_in_unit_interval(rng):
    for _ in range(200):
        s = random_x_state(rng)
        c = en.concurrence_x(s)
        assert 0.0 <= c <= 1.0 + 1e-12


def test_negative_radicand_is_reported():
    s = dy.XState.ground()
    object.__setattr__(s, "pA", -1e-6)  # sneak past validation
    object.__setattr__(s, "pG", 1.0 + 1e-6)
    object.__setattr__(s, "rho_as", 1e-3 + 0j)
    with pytest.raises(ValueError, match="radicand"):
        en.concurrence_x(s)


def test_states_at_the_positivity_limit_have_a_concurrence():
    # pA = pS and Re rho_AS within ulps of the largest value XState accepts:
    # the K2 radicand is -4 tol (pA + pS + tol) up to round-off
    rows = []
    for total in np.geomspace(1e-12, 1.0, 300):
        limit = 0.5 * total + dy._POS_TOL
        for k in range(-30, 30):
            try:
                s = dy.XState(1.0 - total, 0.0, 0.5 * total, 0.5 * total,
                              rho_as=limit + k * math.ulp(limit))
            except ValueError:
                continue
            assert en.concurrence_x(s) >= 0.0
            rows.append(s.vector())
    assert len(rows) > 3000
    assert np.all(en.concurrence_curve(_trajectory_of_rows(rows)) >= 0.0)


def _trajectory_of_rows(vectors):
    """A trajectory of the given rows, built without propagate's checks;
    every row counts as an expm row."""
    vectors = np.asarray(vectors, dtype=float)
    gen = dy.build_generator(co.CoefficientSet(0.25, 0.25, 0.0,
                                               0.25, 0.25, 0.0))
    n = len(vectors)
    times = np.arange(n, dtype=float)
    s0 = dy.XState.ground()
    return dy.Trajectory(times=times, vectors=vectors,
                         rho_ge=np.zeros(n, complex), generator=gen,
                         initial_state=s0, modes=None)


def test_negative_radicand_is_reported_along_a_trajectory():
    # |Re rho_AS| beyond (pA + pS)/2 makes the K2 radicand negative
    row = [0.5, 0.0, 0.25, 0.25, 0.0, 0.0]
    beyond = _trajectory_of_rows([row, row[:4] + [0.25 + 1e-9, 0.0]])
    with pytest.raises(ValueError, match="negative radicand"):
        en.concurrence_curve(beyond)
    with pytest.raises(ValueError, match="negative radicand"):
        en.analyze_events(beyond)
    within = _trajectory_of_rows([row, row[:4] + [0.25 + 1e-14, 0.0]])
    assert np.all(en.concurrence_curve(within) >= 0.0)


def test_array_concurrence_equals_scalar_bit_for_bit(rng):
    for _ in range(20):
        a1, a2 = rng.uniform(0.05, 1.0, size=2)
        a3 = rng.uniform(-1.0, 1.0) * np.sqrt(a1 * a2)
        th = rng.uniform(0.0, 1.0)
        gen = dy.build_generator(co.CoefficientSet(
            a1, a2, a3, a1 * th, a2 * th, a3 * th))
        s0 = random_x_state(rng)
        times = np.linspace(0.0, 30.0, 601)
        # without a G-E coherence, as from every preset initial state, the
        # two forms give the same bytes, so that -0.0 and 0.0 differ
        traj = dy.propagate(gen, dy.XState(s0.pG, s0.pE, s0.pA, s0.pS,
                                           rho_as=s0.rho_as), times)
        states = [dy.XState.from_vector(v) for v in traj.vectors]
        scalar = np.array([en.concurrence_x(s) for s in states])
        assert en.concurrence_curve(traj).tobytes() == scalar.tobytes()
        k_scalar = np.array([en._k_values(s) for s in states])
        k_array = np.column_stack(en._k_arrays(traj))
        assert k_array.tobytes() == k_scalar.tobytes()
        # with one, |rho_GE| comes from np.abs, and every array K lies within
        # the bound the scalar form is held to (every tenth time, so that
        # the 40-digit evaluations take a fraction of a second)
        traj = dy.propagate(gen, s0, times[::10])
        for k_pair, v, ge in zip(zip(*en._k_arrays(traj)), traj.vectors,
                                 traj.rho_ge):
            exact = shadow.k_with_bounds(dy.XState.from_vector(v, rho_ge=ge))
            for k, (value, bound) in zip(k_pair, exact):
                assert abs(k - value) <= bound, (k, float(value), bound)
    # a NaN coherence: Python's max passes over the NaN branch, and so
    # must the array form (np.maximum would return NaN).  XState rejects
    # NaN, so the scalar path reads the same row from a plain namespace.
    odd = _trajectory_of_rows([[0.5, 0.0, 0.25, 0.25, np.nan, 0.0]])
    row = SimpleNamespace(pG=0.5, pE=0.0, pA=0.25, pS=0.25,
                          rho_as=complex(np.nan, 0.0), rho_ge=0j)
    scalar = [en.concurrence_x(row)]
    assert en.concurrence_curve(odd).tolist() == scalar == [0.0]


def _reference_k_arrays(traj):
    """K1, K2 of every row, by the whole-array formulas that served before
    the row terms were shared with the row checks."""
    p_g, p_e, p_a, p_s, re_as, im_as = traj.vectors.T
    gap, total = p_a - p_s, p_a + p_s
    rad1 = gap * gap + 4.0 * (im_as * im_as)
    rad2 = np.maximum(total * total - 4.0 * (re_as * re_as), 0.0)
    prod = np.maximum(p_g * p_e, 0.0)
    k1 = np.sqrt(rad1) - 2.0 * np.sqrt(prod)
    k2 = 2.0 * np.abs(traj.rho_ge) - np.sqrt(rad2)
    return k1, k2


_INLINE = dy.XState(0.25, 0.25, 0.25, 0.25, rho_as=0.1 + 0.05j,
                    rho_ge=0.1 - 0.2j)


@pytest.mark.parametrize("ratios, state, method", [
    *(((0.5, 1.0, 0.5), s, "eig") for s in ("G", "E", "A", "S", _INLINE)),
    ((0.05, 1.0, 0.01), "E", "expm"),
    ((0.0, 0.15, 0.5), _INLINE, "expm"),
], ids=["eig-G", "eig-E", "eig-A", "eig-S", "eig-inline", "expm-E",
        "expm-inline"])
def test_k_from_the_row_terms_is_the_whole_array_formula_bit_for_bit(
        ratios, state, method):
    cfg = co.PhysicalConfig.from_ratios(*ratios, "vertical", d1=X, d2=X)
    traj = en.scan_trajectory(dy.build_generator(co.assemble(cfg)),
                              dy.XState.resolve(state), 20.0)
    assert traj.method == method
    k1, k2 = _reference_k_arrays(traj)
    for got, want in ((en.concurrence_curve(traj),
                       np.fmax(np.fmax(0.0, k1), k2)),
                      (en._kvals(traj), np.fmax(k1, k2))):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    want = en._refined_max(traj, np.fmax(k1, k2), en.REFINE_TOL)
    assert en.max_concurrence(traj) == want
    if method == "eig" and state in ("E", _INLINE):
        assert want[0] > 0.0 and 0.0 < want[1] < 20.0


@pytest.mark.parametrize("ge0", GE_STARTS.values(), ids=GE_STARTS)
@pytest.mark.parametrize("ratios, method", [((0.5, 1.0, 0.5), "eig"),
                                            ((0.0, 0.15, 0.5), "expm")],
                         ids=["eig", "expm"])
def test_max_c_is_the_maximum_of_both_branches_bit_for_bit(ratios, method,
                                                           ge0):
    # with rho_GE at +0, K1 alone ranks the samples; every start must give
    # the bits of the maximum of max{K1, K2}
    cfg = co.PhysicalConfig.from_ratios(*ratios, "vertical", d1=X, d2=X)
    traj = en.scan_trajectory(dy.build_generator(co.assemble(cfg)),
                              dy.XState(0.35, 0.35, 0.3, 0.0, rho_ge=ge0),
                              20.0)
    assert traj.method == method
    want = en._refined_max(traj, np.fmax(*en._k_arrays(traj)),
                           en.REFINE_TOL)
    got = en.max_concurrence(traj)
    assert [x.hex() for x in got] == [x.hex() for x in want]
    # the eig points refine an interior maximum; on the expm route only K2
    # is positive, at t = 0 from rho_GE(0) = 0.1 - 0.2j
    assert (want[0] > 0.0) == (method == "eig" or ge0 != 0)


@settings(max_examples=300, deadline=None)
@given(p=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       frac_as=st.floats(0.0, 1.0), frac_ge=st.floats(0.0, 1.0),
       phase_as=st.floats(0.0, 2 * np.pi), phase_ge=st.floats(0.0, 2 * np.pi))
# |01>: pA = pS and a real A-S coherence at its bound make K2's radicand 0
@example(p=[0.0, 0.0, 1.0, 1.0], frac_as=1.0, frac_ge=0.0,
         phase_as=0.0, phase_ge=0.0)
def test_k_values_are_accurate_to_a_stated_bound(p, frac_as, frac_ge,
                                                 phase_as, phase_ge):
    """K1 and K2 of a valid X state agree with the same formula evaluated
    in 40 digits on the same six floats, within the bound of
    ``shadow.k_with_bounds``: a few ulps of their terms, and the square
    root's amplification of a few ulps where a radicand nearly cancels."""
    assume(sum(p) > 0.0)
    p = np.array(p) / np.sum(p)
    rho_as = frac_as * np.sqrt(p[2] * p[3]) * np.exp(1j * phase_as)
    rho_ge = frac_ge * np.sqrt(p[0] * p[1]) * np.exp(1j * phase_ge)
    s = dy.XState(p[0], p[1], p[2], p[3], rho_as=rho_as, rho_ge=rho_ge)
    for k, (exact, bound) in zip(en._k_values(s), shadow.k_with_bounds(s)):
        assert abs(k - exact) <= bound, (k, float(exact), bound)


# ---------------------------------------------------------------------
# dynamics-level properties
# ---------------------------------------------------------------------

def test_time_rescaling_law():
    """Doubling every rate is the same as running time twice as fast."""
    cfg = co.PhysicalConfig.from_ratios(0.5, 1.0, 0.7, "vertical",
                                        d1=X, d2=X)
    cs = co.assemble(cfg)
    gen = dy.build_generator(cs)
    gen2 = dy.build_generator(co.CoefficientSet(*(2.0 * cs.as_array())))
    taus = np.linspace(0.0, 8.0, 33)
    c_slow = en.concurrence_curve(
        dy.propagate(gen, dy.XState.symmetric(), 2.0 * taus))
    c_fast = en.concurrence_curve(
        dy.propagate(gen2, dy.XState.symmetric(), taus))
    assert np.max(np.abs(c_slow - c_fast)) <= 1e-10


# ---------------------------------------------------------------------
# events
# ---------------------------------------------------------------------

def _events_for(cfg, init="S", horizon=20.0, include_boundary=True):
    cs = co.assemble(cfg, include_boundary=include_boundary)
    gen = dy.build_generator(cs)
    traj = en.scan_trajectory(gen, dy.XState.preset(init), horizon)
    return en.analyze_events(traj), traj


def test_frozen_dynamics_has_no_events():
    cfg = co.PhysicalConfig.from_ratios(0.5, 1.0, 1e-4, "parallel",
                                        d1=X, d2=(0.0, 0.0, 1.0))
    ev, traj = _events_for(cfg, horizon=10.0)
    assert ev.death_times == ()
    assert ev.birth_times == ()
    assert ev.max_c == pytest.approx(1.0, abs=1e-9)
    assert ev.max_c_time == pytest.approx(0.0, abs=1e-6)
    curve = en.concurrence_curve(traj)
    assert np.max(np.abs(curve - curve[0])) <= 1e-6


def test_vertical_revival_and_parallel_monotone_decay():
    cfg = co.PhysicalConfig.from_ratios(0.5, 1.0, 0.1, "vertical",
                                        d1=X, d2=X)
    ev, _ = _events_for(cfg)
    assert len(ev.death_times) >= 1
    assert ev.revival_intervals
    assert ev.revival_intervals[0][0] > ev.death_times[0]

    ev_p, traj_p = _events_for(cfg.with_(alignment="parallel"))
    assert not ev_p.revival_intervals
    curve = en.concurrence_curve(traj_p)
    assert np.all(np.diff(curve) <= 1e-12)


def test_free_space_decay_is_monotone():
    cfg = co.PhysicalConfig.from_ratios(0.5, 1.0, 0.5, "parallel",
                                        d1=X, d2=X)
    ev, traj = _events_for(cfg, include_boundary=False)
    assert not ev.revival_intervals
    curve = en.concurrence_curve(traj)
    assert np.all(np.diff(curve) <= 1e-12)


def test_death_time_refinement_is_tight():
    cfg = co.PhysicalConfig.from_ratios(0.5, 1.0, 0.1, "vertical",
                                        d1=X, d2=X)
    ev, traj = _events_for(cfg)
    t_death = ev.death_times[0]
    assert en.concurrence_x(traj.state_at(t_death)) <= 1e-8


def test_horizon_truncation_is_flagged():
    cfg = co.PhysicalConfig.from_ratios(0.5, 1.0, 0.1, "vertical",
                                        d1=X, d2=X)
    ev, _ = _events_for(cfg, horizon=6.0)
    # revival is still alive at the horizon
    assert ev.truncated
    assert ev.revival_intervals[-1][1] == 6.0


def test_birth_event_from_separable_start():
    cfg = co.PhysicalConfig.from_ratios(0.5, 1.0, 0.5, "parallel",
                                        d1=X, d2=Y)
    ev, _ = _events_for(cfg, init="E")
    assert len(ev.birth_times) >= 1
    assert ev.max_c > 0.01
    assert ev.max_c_time > ev.birth_times[0]


def test_analyze_events_needs_two_samples():
    cfg = co.PhysicalConfig.from_ratios(0.5, 1.0, 0.5, "parallel")
    gen = dy.build_generator(co.assemble(cfg))
    traj = dy.propagate(gen, dy.XState.symmetric(), [1.0])
    with pytest.raises(ValueError, match="two samples"):
        en.analyze_events(traj)
    with pytest.raises(ValueError, match="two samples"):
        en.max_concurrence(traj)


def test_refined_max_without_a_positive_k_is_zero_at_the_first_time():
    def no_refinement(tau):
        raise AssertionError("a separable trajectory needs no refinement")

    traj = SimpleNamespace(times=np.array([0.5, 1.0, 2.0, 3.0]),
                           state_at=no_refinement)
    for kvals in ([-0.3, 0.0, -1e-17, -0.2], [-0.3, -0.1, -0.2, -0.4],
                  [0.0, 0.0, 0.0, 0.0]):
        max_c, max_c_time = en._refined_max(traj, np.array(kvals), 1e-6)
        assert (repr(max_c), repr(max_c_time)) == ("0.0", "0.5")
    # the ground state in free space stays separable: K1 = K2 = 0
    cfg = co.PhysicalConfig.from_ratios(0.5, 1.0, 0.5, "parallel")
    gen = dy.build_generator(co.assemble(cfg, include_boundary=False))
    ground = en.scan_trajectory(gen, dy.XState.ground(), 2.0)
    assert en.max_concurrence(ground) == (0.0, 0.0)


def _defect_point_generator():
    # events --a 0.5 --alignment vertical --y-over-l 0.1 --initial-state S
    cfg = co.PhysicalConfig.from_ratios(0.5, 1.0, 0.1, "vertical",
                                        d1=X, d2=X)
    return dy.build_generator(co.assemble(cfg))


def test_the_fine_scan_finds_the_death_and_birth_near_3_9():
    traj = en.scan_trajectory(_defect_point_generator(),
                              dy.XState.symmetric(), 20.0, 0.01)
    ev = en.analyze_events(traj)
    assert ev.death_times[0] == pytest.approx(3.88178, abs=1e-5)
    assert ev.birth_times[0] == pytest.approx(3.94832, abs=1e-5)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="analyze_events assumes at most one sign change "
                   "per sample interval and checks nothing: at step 0.5 "
                   "the death and birth 0.07 apart are both missed")
def test_a_coarse_scan_finds_the_fine_scan_events():
    gen = _defect_point_generator()
    s0 = dy.XState.symmetric()
    fine = en.analyze_events(en.scan_trajectory(gen, s0, 20.0, 0.01))
    coarse = en.analyze_events(en.scan_trajectory(gen, s0, 20.0, 0.5))
    assert len(coarse.death_times) == len(fine.death_times)
    assert len(coarse.birth_times) == len(fine.birth_times)
    for got, want in zip(coarse.death_times + coarse.birth_times,
                         fine.death_times + fine.birth_times):
        assert got == pytest.approx(want, abs=1e-6)


def test_scan_size_bounds_the_grid():
    assert en.scan_size(20.0, 1e-2) == 2001
    assert en.scan_size(1e-3, 1.0) == 3
    assert en.scan_size(en.MAX_SAMPLES - 1.0, 1.0) == en.MAX_SAMPLES
    for horizon, step in ((en.MAX_SAMPLES - 0.5, 1.0), (1e300, 1e-300)):
        with pytest.raises(ValueError, match="grid samples"):
            en.scan_size(horizon, step)
    with pytest.raises(ValueError, match="sample_step must be positive"):
        en.scan_size(1.0, 0.0)
