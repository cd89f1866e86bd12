"""Generator structure, exact propagation vs a 40-digit exponential, trace
and positivity preservation, and the steady state the generator's kernel
gives."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from mirroratoms import coefficients as co
from mirroratoms import dynamics as dy
import shadow
from conftest import GE_STARTS, random_x_state

Y = (0.0, 1.0, 0.0)


def coeffs(a1=0.25, a2=0.25, a3=0.1, b1=None, b2=None, b3=None):
    return co.CoefficientSet(a1, a2, a3,
                             a1 if b1 is None else b1,
                             a2 if b2 is None else b2,
                             a3 if b3 is None else b3)


def random_coeffs(rng):
    a1, a2 = rng.uniform(0.05, 1.0, size=2)
    a3 = rng.uniform(-1.0, 1.0) * np.sqrt(a1 * a2)
    th = rng.uniform(0.2, 1.0)
    return co.CoefficientSet(a1, a2, a3, a1 * th, a2 * th, a3 * th)


# ---------------------------------------------------------------------
# states
# ---------------------------------------------------------------------

def test_state_presets_are_valid():
    for name in "GEAS":
        s = dy.XState.preset(name)
        assert abs(np.trace(s.density_matrix()).real - 1.0) < 1e-14
    with pytest.raises(ValueError):
        dy.XState.preset("Q")


def test_state_rejects_bad_trace_and_negativity():
    with pytest.raises(ValueError):
        dy.XState(0.5, 0.5, 0.1, 0.0)
    with pytest.raises(ValueError):
        dy.XState(1.2, -0.2, 0.0, 0.0)
    with pytest.raises(ValueError):
        # coherence beyond the positivity bound
        dy.XState(0.5, 0.5, 0.0, 0.0, rho_ge=0.6)


@pytest.mark.parametrize("coherence", [{"rho_as": np.nan},
                                       {"rho_ge": complex(0.0, np.nan)}])
def test_state_rejects_nan_coherences(coherence):
    with pytest.raises(ValueError, match="finite"):
        dy.XState(0.5, 0.0, 0.25, 0.25, **coherence)


# an XState is built from its fields or, as propagation builds it, from a
# coordinate row; from_vector takes an ndarray or a list
_STATE_ROUTES = {
    "fields": lambda c, ge: dy.XState(c[0], c[1], c[2], c[3],
                                      complex(c[4], c[5]), ge),
    "ndarray": lambda c, ge: dy.XState.from_vector(np.array(c), rho_ge=ge),
    "list": lambda c, ge: dy.XState.from_vector(list(c), rho_ge=ge),
}
_POPULATIONS = ("pG", "pE", "pA", "pS")


@pytest.mark.parametrize("route", _STATE_ROUTES)
@pytest.mark.parametrize("field", range(4))
def test_state_names_the_negative_population(route, field):
    coords = [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]
    coords[field] = -0.1
    coords[(field + 1) % 4] = 0.6
    name = _POPULATIONS[field]
    with pytest.raises(ValueError, match=f"^{name} is negative"):
        _STATE_ROUTES[route](coords, 0j)


@pytest.mark.parametrize("route", _STATE_ROUTES)
@pytest.mark.parametrize("field", range(4))
def test_state_with_a_nan_population_fails_the_trace(route, field):
    coords = [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]
    coords[field] = np.nan
    with pytest.raises(ValueError, match="sum to 1"):
        _STATE_ROUTES[route](coords, 0j)


@pytest.mark.parametrize("route", _STATE_ROUTES)
@pytest.mark.parametrize("part", ["Re rho_AS", "Im rho_AS", "rho_GE"])
def test_state_with_a_nan_coherence_is_not_finite(route, part):
    coords = [0.5, 0.0, 0.25, 0.25, 0.0, 0.0]
    ge = 0j
    if part == "rho_GE":
        ge = complex(np.nan, 0.0)
    else:
        coords[4 if part == "Re rho_AS" else 5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        _STATE_ROUTES[route](coords, ge)


def test_min_eigenvalue_matches_lapack(rng):
    for _ in range(200):
        s = random_x_state(rng)
        lam = np.linalg.eigvalsh(s.density_matrix()).min()
        assert abs(s.min_eigenvalue() - lam) <= 1e-12


def test_density_matrix_roundtrip(rng):
    for _ in range(50):
        s = random_x_state(rng)
        back = dy.XState.from_density_matrix(s.density_matrix())
        assert_allclose(back.vector(), s.vector(), atol=1e-13)
        assert abs(back.rho_ge - s.rho_ge) < 1e-13


def test_from_density_matrix_rejects_non_x():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = rho[1, 0] = 0.1
    with pytest.raises(ValueError, match="X form"):
        dy.XState.from_density_matrix(rho)
    with pytest.raises(ValueError, match="hermitian"):
        dy.XState.from_density_matrix(np.triu(np.ones((4, 4))) / 4)


def test_from_density_matrix_rejects_non_finite_entries():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[1, 2] = rho[2, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        dy.XState.from_density_matrix(rho)


def test_from_density_matrix_tests_the_trace_at_the_states_tolerance():
    # a trace 5e-11 off is within the positivity tolerance but not the
    # states' trace tolerance, and is refused as a trace
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 0] += 5e-11
    with pytest.raises(ValueError, match="^density matrix trace must be 1$"):
        dy.XState.from_density_matrix(rho)


# np.trace's sum of this matrix lies within _TRACE_TOL of 1, and XState's
# sum of its populations, in XState's order, just beyond it
_EDGE_DIAGONAL = (0.255223329137664, 0.18014312470289354,
                  0.19309603130818248, 0.3715375148522599)
_EDGE_RHO_12 = 0.0036555389415418756


def test_from_density_matrix_sums_the_trace_as_the_state_does():
    rho = np.diag(_EDGE_DIAGONAL).astype(complex)
    rho[1, 2] = rho[2, 1] = _EDGE_RHO_12
    assert abs(np.trace(rho).real - 1.0) <= dy._TRACE_TOL
    # one message, the density matrix's, not a later one of the state's
    with pytest.raises(ValueError, match="^density matrix trace must be 1$"):
        dy.XState.from_density_matrix(rho)


def test_a_density_matrix_state_prints_its_sum_as_a_python_float():
    # the populations that from_density_matrix extracts from the matrix
    p_g, r11, r22, p_e = _EDGE_DIAGONAL
    half = 0.5 * (r11 + r22)
    with pytest.raises(ValueError) as exc:
        dy.XState(p_g, p_e, half - _EDGE_RHO_12, half + _EDGE_RHO_12)
    assert str(exc.value) == "populations must sum to 1, got 1.000000000001"


# ---------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------

def test_generator_conserves_trace(rng):
    for _ in range(100):
        gen = dy.build_generator(random_coeffs(rng))
        colsums = gen.block_pop[:4].sum(axis=0)
        assert np.max(np.abs(colsums)) <= 1e-14


def test_generator_ge_rate():
    cs = coeffs(a1=0.3, a2=0.45)
    gen = dy.build_generator(cs)
    assert gen.rate_ge == -2.0 * (0.3 + 0.45)


def test_symmetric_atoms_decouple_as_channels():
    # with A3 = B3 = 0 and B1 = B2 the pA and pS rows become identical
    gen = dy.build_generator(coeffs(a1=0.3, a2=0.3, a3=0.0, b3=0.0))
    m = gen.block_pop
    assert_allclose(m[2, [0, 1, 4]], m[3, [0, 1, 4]], atol=0)
    assert m[2, 2] == m[3, 3]


def test_doubly_excited_decay_rate_free_space():
    cfg = co.PhysicalConfig.from_ratios(0.0, 1.0, 1e3, "parallel",
                                        d1=Y, d2=Y)
    cs = co.assemble(cfg, include_boundary=False)
    assert_allclose([cs.A1, cs.A2], [0.25, 0.25], rtol=1e-12)
    gen = dy.build_generator(cs)
    times = np.linspace(0.0, 3.0, 7)
    traj = dy.propagate(gen, dy.XState.excited(), times)
    assert_allclose(traj.vectors[:, 1], np.exp(-2.0 * times), rtol=1e-12)


def _nested_generator(a1, a2, a3, b1, b2, b3):
    """The generator's entries as nested rows of one formula each, in the
    operation order every entry must keep."""
    return [
        [-2.0 * (a1 - b1 + a2 - b2), 0.0,
         a1 + b1 + a2 + b2 - 2.0 * a3 - 2.0 * b3,
         a1 + b1 + a2 + b2 + 2.0 * a3 + 2.0 * b3,
         2.0 * (a1 + b1 - a2 - b2), 0.0],
        [0.0, -2.0 * (a1 + b1 + a2 + b2),
         a1 - b1 + a2 - b2 - 2.0 * a3 + 2.0 * b3,
         a1 - b1 + a2 - b2 + 2.0 * a3 - 2.0 * b3,
         2.0 * (-a1 + b1 + a2 - b2), 0.0],
        [a1 - b1 + a2 - b2 - 2.0 * a3 + 2.0 * b3,
         a1 + b1 + a2 + b2 - 2.0 * a3 - 2.0 * b3,
         -2.0 * (a1 + a2 - 2.0 * a3), 0.0, 2.0 * (-b1 + b2), 0.0],
        [a1 - b1 + a2 - b2 + 2.0 * a3 - 2.0 * b3,
         a1 + b1 + a2 + b2 + 2.0 * a3 + 2.0 * b3,
         0.0, -2.0 * (a1 + a2 + 2.0 * a3), 2.0 * (-b1 + b2), 0.0],
        [a1 - b1 - a2 + b2, -a1 - b1 + a2 + b2, -b1 + b2, -b1 + b2,
         -2.0 * (a1 + a2), 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, -2.0 * (a1 + a2)],
    ]


# signed zeros, subnormals and rates whose sums reach 1e301 stress the
# sign of a zero and the order of each sum
_RATE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-310,
                     1e300, -1e300]),
    st.floats(-10.0, 10.0))


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[_RATE] * 6))
def test_generator_entries_equal_their_formulas_bit_for_bit(rates):
    a1, a2, a3, b1, b2, b3 = rates
    gen = dy.build_generator(co.CoefficientSet(a1, a2, a3, b1, b2, b3))
    want = _nested_generator(a1, a2, a3, b1, b2, b3)
    assert gen.block_pop.shape == (6, 6)
    assert gen.block_pop.dtype == np.float64
    assert ([[v.hex() for v in row] for row in gen.block_pop.tolist()]
            == [[v.hex() for v in row] for row in want])
    assert gen.rate_ge.hex() == (-2.0 * (a1 + a2)).hex()


def test_generator_rejects_nonfinite():
    with pytest.raises(ValueError):
        dy.build_generator(coeffs(a1=np.nan))


def test_propagate_refuses_a_block_that_is_not_6x6():
    gen = dy.Generator(np.zeros((5, 5)), rate_ge=0.0)
    with pytest.raises(ValueError,
                       match="generator population block must be 6x6"):
        dy.propagate(gen, dy.XState.symmetric(), [0.0, 1.0])


# ---------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------

def test_propagate_identity_at_zero():
    gen = dy.build_generator(coeffs())
    s0 = dy.XState.symmetric()
    traj = dy.propagate(gen, s0, [0.0])
    assert dy.XState.from_vector(traj.vectors[0], rho_ge=traj.rho_ge[0]) == s0


def test_ground_state_is_free_space_fixed_point():
    gen = dy.build_generator(coeffs(a3=0.15))
    traj = dy.propagate(gen, dy.XState.ground(), [0.0, 5.0, 50.0])
    for v in traj.vectors:
        assert_allclose(v, dy.XState.ground().vector(), atol=1e-12)


def test_propagate_validates_times():
    gen = dy.build_generator(coeffs())
    s0 = dy.XState.ground()
    with pytest.raises(ValueError):
        dy.propagate(gen, s0, [])
    with pytest.raises(ValueError):
        dy.propagate(gen, s0, [-1.0, 0.0])
    with pytest.raises(ValueError):
        dy.propagate(gen, s0, [1.0, 0.5])


@pytest.mark.parametrize("times", [[0.0, 1.0, np.inf], [0.0, np.nan, 1.0],
                                   [np.nan]], ids=["inf", "nan", "only-nan"])
def test_propagate_refuses_a_non_finite_time(times):
    # an input error, as state_at refuses one, not a numerical failure of
    # the rows it would propagate to NaN
    gen = dy.build_generator(coeffs())
    with pytest.raises(ValueError, match="^times must be finite$") as err:
        dy.propagate(gen, dy.XState.symmetric(), times)
    assert not isinstance(err.value, dy.PropagationError)


def test_trace_and_positivity_along_trajectories(rng):
    for _ in range(20):
        gen = dy.build_generator(random_coeffs(rng))
        s0 = random_x_state(rng)
        traj = dy.propagate(gen, s0, np.linspace(0.0, 30.0, 61))
        for v, ge in zip(traj.vectors, traj.rho_ge):
            s = dy.XState.from_vector(v, rho_ge=ge)
            assert abs(s.pG + s.pE + s.pA + s.pS - 1.0) <= 1e-12
            assert s.min_eigenvalue() >= -1e-10


def test_semigroup_property(rng):
    gen = dy.build_generator(random_coeffs(rng))
    s0 = random_x_state(rng)
    t1, t2 = 0.8, 2.3
    once = dy.propagate(gen, s0, [t1 + t2])
    first = dy.propagate(gen, s0, [t1]).state_at(t1)
    second = dy.propagate(gen, first, [t2])
    assert np.max(np.abs(once.vectors[0] - second.vectors[0])) <= 1e-10
    assert abs(once.rho_ge[0] - second.rho_ge[0]) <= 1e-10


def test_ge_coherence_decays_exactly():
    cs = coeffs(a1=0.3, a2=0.2)
    gen = dy.build_generator(cs)
    s0 = dy.XState(0.5, 0.5, 0.0, 0.0, rho_ge=0.25 + 0.1j)
    taus = np.array([0.0, 0.7, 2.9])
    traj = dy.propagate(gen, s0, taus)
    for tau, ge in zip(taus, traj.rho_ge):
        expected = s0.rho_ge * np.exp(-2.0 * 0.5 * tau)
        assert abs(ge - expected) <= 1e-14


def test_trace_guard_switches_to_expm_for_near_defective_generators():
    # at small separation the collective modes are nearly defective and the
    # spectral route leaks trace at the 1e-10 level; the propagator must
    # notice and switch
    cfg = co.PhysicalConfig.from_ratios(0.0, 0.15, 0.5, "vertical",
                                        d1=(1, 0, 0), d2=(1, 0, 0))
    gen = dy.build_generator(co.assemble(cfg))
    traj = dy.propagate(gen, dy.XState.excited(), np.linspace(0.0, 12.0, 25))
    assert traj.method == "expm"
    for v in traj.vectors:
        assert abs(v[0] + v[1] + v[2] + v[3] - 1.0) <= 1e-12


def test_route_check_skips_only_the_zero_time_prefix():
    s0 = dy.XState.excited()
    # the eig value of _DRIFT_AT_ONCE misses the trace by about 1e-10 at
    # t = 0 already, where every row is the initial state itself
    at_zero = dy.propagate(_DRIFT_AT_ONCE, s0, [0.0, 0.0, 0.0])
    assert at_zero.method == "eig"
    assert np.array_equal(at_zero.vectors, np.tile(s0.vector(), (3, 1)))
    assert dy.propagate(_DRIFT_AT_ONCE, s0,
                        [0.0, 0.0, 0.0, 0.01]).method == "expm"
    # _DRIFT_MID_SCAN holds the trace up to about t = 0.89 and drifts later
    early = np.concatenate([[0.0, 0.0], np.linspace(0.0, 0.5, 51)])
    late = np.concatenate([[0.0, 0.0], np.linspace(0.0, 40.0, 4001)])
    assert dy.propagate(_DRIFT_MID_SCAN, s0, early).method == "eig"
    traj = dy.propagate(_DRIFT_MID_SCAN, s0, late)
    assert traj.method == "expm"
    assert np.array_equal(traj.vectors[:3], np.tile(s0.vector(), (3, 1)))


def test_expm_fallback_agrees_with_eig(monkeypatch):
    gen = dy.build_generator(coeffs(a3=0.12))
    s0 = dy.XState.excited()
    ref = dy.propagate(gen, s0, [1.7]).vectors[0]
    monkeypatch.setattr(dy, "_COND_LIMIT", 0.0)
    fb = dy.propagate(gen, s0, [1.7])
    assert fb.method == "expm"
    assert np.max(np.abs(fb.vectors[0] - ref)) <= 1e-12


def _drift_generator(a_over_omega, omega_l, alignment):
    # y/L = 0.5, x dipoles: nearly defective collective modes make the
    # spectral route leak trace; vertical at a = 0, omega L = 0.15 from the
    # first step on, parallel at a = 0.3, omega L = 0.2 only after 89 scan
    # steps
    cfg = co.PhysicalConfig.from_ratios(a_over_omega, omega_l, 0.5, alignment,
                                        d1=(1, 0, 0), d2=(1, 0, 0))
    return dy.build_generator(co.assemble(cfg))


_DRIFT_AT_ONCE = _drift_generator(0.0, 0.15, "vertical")
_DRIFT_MID_SCAN = _drift_generator(0.3, 0.2, "parallel")
# a = 1/2, omega L = 1, y/L = 1/2 with x and y dipoles: a mirror generator
# of the paper's kind, on the eig route
_VERTICAL_XY = dy.build_generator(co.assemble(co.PhysicalConfig.from_ratios(
    0.5, 1.0, 0.5, "vertical", d1=(1, 0, 0), d2=Y)))


def _bits(values):
    """The int64 words of complex values, which tell -0.0 from 0.0."""
    return np.array(values, dtype=complex, ndmin=1).view(np.int64)


@pytest.mark.parametrize("gen, s0, method", [
    (dy.build_generator(coeffs(a3=0.12)),
     dy.XState(0.25, 0.25, 0.25, 0.25, rho_as=0.1 + 0.05j, rho_ge=0.1 - 0.2j),
     "eig"),
    (_VERTICAL_XY, dy.XState.symmetric(), "eig"),
    (_DRIFT_AT_ONCE, dy.XState.excited(), "expm"),
    (_DRIFT_MID_SCAN, dy.XState.excited(), "expm"),
], ids=["well_conditioned", "vertical_xy", "drift_at_once", "drift_mid_scan"])
def test_propagate_rows_equal_sequential_evaluation(gen, s0, method):
    times = np.linspace(0.0, 40.0, 4001)
    traj = dy.propagate(gen, s0, times)
    assert traj.method == method
    # the rows are the transpose of six contiguous coordinate series
    assert traj.vectors.shape == (len(times), 6)
    assert traj.vectors.T.flags.c_contiguous
    ge = [s0.rho_ge * np.exp(gen.rate_ge * tau) for tau in times]
    assert np.array_equal(_bits(traj.rho_ge), _bits(ge))

    # latest time first: a drifting late time must not change earlier ones
    backward = np.array([traj.state_at(tau).vector()
                         for tau in times[::-1]])[::-1]
    forward = np.array([traj.state_at(tau).vector() for tau in times])
    assert np.array_equal(backward, forward)

    # on the expm route, state_at is expm(M tau) v0 and reads no row; it
    # stays within 1e-14 of the anchored rows on the whole grid
    if method == "expm":
        assert traj.modes is None
        assert np.max(np.abs(forward - traj.vectors)) <= 1e-14

    # the rows and state_at lie within cond(v) ulps of the truth; on the eig
    # route they are a (6, 6) x (6, N) product and a matrix-vector product,
    # and on the expm route state_at lies within 1e-14
    cond = np.linalg.cond(np.linalg.eig(gen.block_pop)[1])
    bound = cond * 2.0 ** -52
    if method == "eig":
        bound = min(bound, 1e-15)
    # t = 1 and t = 20 among them
    picks = sorted({*np.geomspace(1, len(times) - 1, 12).astype(int),
                    100, 2000})
    assert len(picks) >= 12
    errors = shadow.row_errors(gen, s0, times[picks], traj.vectors[picks],
                               forward[picks])
    assert errors.max() <= bound, (errors, bound)
    if method == "expm":
        assert errors[1].max() <= 1e-14, errors


@pytest.mark.parametrize("state", ["E", "S"])
def test_ill_conditioned_eig_rows_are_within_cond_ulps(state):
    # the free-space generator of fig16/parallel_xy at a/omega = 1.85,
    # whose eigenvector basis has cond(v) = 7.3: its eig rows are as exact
    # as that basis allows, though not within the well-conditioned 1e-15
    cfg = co.PhysicalConfig.from_ratios(1.85, 0.5, 0.01, "parallel",
                                        d1=(1, 0, 0), d2=Y)
    gen = dy.build_generator(co.assemble(cfg, include_boundary=False))
    s0 = dy.XState.preset(state)
    times = np.linspace(0.0, 40.0, 4001)
    traj = dy.propagate(gen, s0, times)
    assert traj.method == "eig"
    cond = np.linalg.cond(np.linalg.eig(gen.block_pop)[1])
    assert 5.0 < cond < 10.0, cond
    picks = sorted({*np.geomspace(1, len(times) - 1, 12).astype(int)})
    errors = shadow.row_errors(gen, s0, times[picks], traj.vectors[picks])
    assert errors.max() <= cond * 2.0 ** -52, (errors, cond)


def _vertical_y_drift_generator():
    cfg = co.PhysicalConfig.from_ratios(0.0, 0.15, 0.5, "vertical", d1=Y, d2=Y)
    return dy.build_generator(co.assemble(cfg))


@pytest.mark.parametrize("gen", [
    _DRIFT_AT_ONCE,
    _DRIFT_MID_SCAN,
    _vertical_y_drift_generator(),
], ids=["drift_at_once", "drift_mid_scan", "vertical_y"])
def test_expm_tail_rows_are_exact(gen):
    s0 = dy.XState.excited()
    times = np.linspace(0.0, 40.0, 4001)
    traj = dy.propagate(gen, s0, times)
    assert traj.method == "expm"
    # anchors, the rows one and 63 steps past them, the last row, and early
    # rows, where the mid-scan generator's eig route is 4e-14 to 9e-14 off
    picks = [0, 1, 2, 5, 63, 64, 88, 127, 128, 2047, 3967, len(times) - 1]
    errors = shadow.row_errors(gen, s0, times[picks], traj.vectors[picks])
    assert errors.max() <= 1e-14, errors


def test_expm_tail_on_a_non_uniform_grid():
    gen = _DRIFT_AT_ONCE
    s0 = dy.XState.excited()
    times = np.sort(np.random.default_rng(3).uniform(0.0, 40.0, 300))
    times[150] = times[149]
    traj = dy.propagate(gen, s0, times)
    assert traj.method == "expm" and traj.modes is None

    direct = np.array([expm(gen.block_pop * t) @ s0.vector() for t in times])
    assert np.max(np.abs(traj.vectors - direct)) <= 1e-13
    # state_at is the direct exponential, at a grid time too
    for i, tau in enumerate(times):
        assert np.array_equal(traj.state_at(tau).vector(), direct[i])


def test_expm_tail_costs_a_few_exponentials(monkeypatch):
    matrices = []

    def counting_expm(a):
        matrices.append(np.asarray(a).size // 36)
        return expm(a)

    monkeypatch.setattr(dy, "expm", counting_expm)
    times = np.linspace(0.0, 40.0, 4001)
    traj = dy.propagate(_DRIFT_AT_ONCE,
                        dy.XState.excited(), times)
    assert traj.method == "expm" and traj.modes is None
    assert sum(matrices) <= 100


@pytest.mark.parametrize("flow, message", [
    # pE decays into nothing: the populations leak trace
    ({(1, 1): -0.5}, "sum to 1"),
    # pG drains at a rate set by pE and goes negative
    ({(0, 1): -0.5, (2, 1): 0.5}, "pG is negative"),
    # Re rho_AS grows without bound at fixed populations
    ({(4, 2): 0.5}, "not positive"),
])
def test_propagate_rejects_unphysical_generators(flow, message):
    m = np.zeros((6, 6))
    for idx, rate in flow.items():
        m[idx] = rate
    gen = dy.Generator(m, rate_ge=0.0)
    s0 = dy.XState(0.0, 0.5, 0.5, 0.0)
    # a ValueError subclass, so sweeps record it in the row's error
    with pytest.raises(dy.PropagationError, match=message):
        dy.propagate(gen, s0, np.linspace(0.0, 10.0, 11))


def _bad_row(row, fault):
    """``row`` with one fault that XState names."""
    row = row.copy()
    if fault in _POPULATIONS:
        k = _POPULATIONS.index(fault)
        # keep the trace: move the population to -2e-10 through its neighbour
        row[(k + 1) % 4] += row[k] + 2e-10
        row[k] = -2e-10
    elif fault == "trace":
        row[0] += 1e-11
    elif fault == "eigenvalue":
        row[4] = 0.5 * (row[2] + row[3]) + 1e-9
    else:
        row[5] = np.nan
    return row


@pytest.mark.parametrize("fault, message", [
    *((name, f"{name} is negative") for name in _POPULATIONS),
    ("trace", "sum to 1"),
    ("eigenvalue", "not positive"),
    ("nan", "finite"),
])
def test_row_screen_falls_back_to_the_failing_row(fault, message):
    times = np.linspace(0.0, 40.0, 4001)
    traj = dy.propagate(dy.build_generator(coeffs(a3=0.12)),
                        dy.XState(0.25, 0.25, 0.25, 0.25, rho_as=0.1 + 0.05j),
                        times)
    i = 2000
    rows = traj.vectors.copy()
    rows[i] = _bad_row(rows[i], fault)
    # the message the per-row path gives for that row alone
    with pytest.raises(dy.PropagationError) as one:
        dy._propagated_state(rows[i], traj.rho_ge[i], times[i])
    series = np.ascontiguousarray(rows.T)
    terms = dy._row_terms(series, traj.rho_ge)
    with pytest.raises(dy.PropagationError) as whole:
        dy._validate_rows(times, series, traj.rho_ge, terms,
                          *dy._population_sums(series, terms))
    assert str(whole.value) == str(one.value)
    assert message in str(whole.value)
    assert str(whole.value).endswith(f" at gamma0_tau = {float(times[i])!r}")


def _block(lam_lo, lam_hi, theta, phi):
    """(diagonal, diagonal, off-diagonal) of the 2x2 block with eigenvalues
    lam_lo, lam_hi whose first eigenvector is (cos theta, sin theta e^{i phi})."""
    c, s = math.cos(theta) ** 2, math.sin(theta) ** 2
    off = (lam_lo - lam_hi) * math.sin(theta) * math.cos(theta)
    return (lam_lo * c + lam_hi * s, lam_lo * s + lam_hi * c,
            off * complex(math.cos(phi), math.sin(phi)))


def _row_near_the_floor(inner, k, lam_hi, theta, phi, split, theta2, phi2):
    """(series, rho_ge) of one row whose inner or outer block has the least
    eigenvalue -k _POS_TOL; the other block is a state on the rest of the
    trace."""
    lam_lo = -k * dy._POS_TOL
    near = _block(lam_lo, lam_hi, theta, phi)
    rest = 1.0 - lam_lo - lam_hi
    other = _block(split * rest, (1.0 - split) * rest, theta2, phi2)
    (p_a, p_s, as_), (p_g, p_e, ge) = (near, other) if inner else (other, near)
    series = np.array([[p_g], [p_e], [p_a], [p_s], [as_.real], [as_.imag]])
    return series, np.array([ge])


@settings(max_examples=300, deadline=None)
@given(inner=st.booleans(), k=st.floats(-2.0, 4.0),
       lam_hi=st.floats(0.0, 0.999), theta=st.floats(0.0, math.pi / 2),
       phi=st.floats(0.0, 2 * math.pi), split=st.floats(0.0, 1.0),
       theta2=st.floats(0.0, math.pi / 2), phi2=st.floats(0.0, 2 * math.pi))
# just above the screen's floor, -_POS_TOL + _EIG_SCREEN_MARGIN
@example(inner=True, k=1.0 - 1.2e-4, lam_hi=0.5, theta=0.3, phi=0.0,
         split=0.5, theta2=0.0, phi2=0.0)
@example(inner=False, k=1.0 - 1.2e-4, lam_hi=0.999, theta=1.2, phi=1.0,
         split=0.5, theta2=0.0, phi2=0.0)
# between the screen's floor and XState's
@example(inner=True, k=1.0 - 5e-5, lam_hi=0.5, theta=0.3, phi=0.0,
         split=0.5, theta2=0.0, phi2=0.0)
@example(inner=False, k=1.0 - 5e-5, lam_hi=0.5, theta=0.3, phi=1.0,
         split=0.5, theta2=0.0, phi2=0.0)
# just past XState's floor, with a block trace below zero
@example(inner=True, k=1.0 + 1e-9, lam_hi=0.0, theta=0.7, phi=0.0,
         split=0.5, theta2=0.0, phi2=0.0)
@example(inner=False, k=1.0 + 1e-9, lam_hi=0.5 * dy._POS_TOL, theta=0.0,
         phi=0.0, split=0.2, theta2=0.4, phi2=2.0)
def test_the_row_screen_accepts_only_rows_xstate_accepts(
        inner, k, lam_hi, theta, phi, split, theta2, phi2):
    """Whenever the whole-row screen of _validate_rows accepts a row without
    rebuilding it, XState accepts the row too, for rows whose least block
    eigenvalue lies within a few _POS_TOL of XState's floor."""
    series, rho_ge = _row_near_the_floor(inner, k, lam_hi, theta, phi,
                                         split, theta2, phi2)
    rebuilt = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dy, "_propagated_state",
                   lambda *args: rebuilt.append(args))
        terms = dy._row_terms(series, rho_ge)
        dy._validate_rows(np.array([1.0]), series, rho_ge, terms,
                          *dy._population_sums(series, terms))
    if not rebuilt:
        dy._propagated_state(series[:, 0], rho_ge[0], 1.0)


def test_a_row_just_past_the_eigenvalue_floor_is_named():
    times = np.linspace(0.0, 40.0, 4001)
    traj = dy.propagate(dy.build_generator(coeffs(a3=0.12)),
                        dy.XState.excited(), times)
    series = np.ascontiguousarray(traj.vectors.T)
    rho_ge = traj.rho_ge.copy()
    # an outer block whose least eigenvalue is -1.0001e-10, beyond XState's
    # floor by ten times the screen margin: the row checks name the row as
    # XState does
    row, ge = _row_near_the_floor(False, 1.0001, 0.4, 0.3, 0.5, 0.25, 0.2,
                                  1.0)
    series[:, 2000], rho_ge[2000] = row[:, 0], ge[0]
    with pytest.raises(dy.PropagationError) as exc:
        terms = dy._row_terms(series, rho_ge)
        dy._validate_rows(times, series, rho_ge, terms,
                          *dy._population_sums(series, terms))
    assert str(exc.value) == (
        "state not positive (min eigenvalue -1.0001000028125873e-10) at "
        "gamma0_tau = 20.0")


def test_row_screen_rebuilds_no_state_of_a_valid_trajectory(monkeypatch):
    rebuilt = []
    monkeypatch.setattr(dy, "_propagated_state",
                        lambda *args: rebuilt.append(args))
    traj = dy.propagate(dy.build_generator(coeffs(a3=0.12)),
                        dy.XState.excited(), np.linspace(0.0, 40.0, 4001))
    assert len(traj.vectors) == 4001 and not rebuilt


@pytest.mark.parametrize("ge0", GE_STARTS.values(), ids=GE_STARTS)
@pytest.mark.parametrize("gen, method", [(_VERTICAL_XY, "eig"),
                                         (_DRIFT_AT_ONCE, "expm")],
                         ids=["eig", "expm"])
def test_rho_ge_is_the_product_bit_for_bit(gen, method, ge0):
    s0 = dy.XState(0.25, 0.25, 0.5, 0.0, rho_ge=ge0)
    times = np.linspace(0.0, 20.0, 2001)
    traj = dy.propagate(gen, s0, times)
    assert traj.method == method
    assert traj.rho_ge.shape == times.shape
    assert np.array_equal(_bits(traj.rho_ge),
                          _bits(s0.rho_ge * np.exp(gen.rate_ge * times)))
    for tau in (0.0, 0.37, 5.0, 19.995, 20.0):
        want = s0.rho_ge * np.exp(gen.rate_ge * tau)
        assert np.array_equal(_bits(traj.state_at(tau).rho_ge), _bits(want))


@pytest.mark.parametrize("rate_ge", [1.0, np.nan, -np.inf])
def test_a_zero_coherence_that_need_not_stay_zero_takes_the_product(rate_ge):
    # from +0, e^(rate t) overflows at t = 800 for rate 1 and is NaN at t = 0
    # for a NaN rate or rate -inf; 0 times either is NaN, which the row
    # checks and state_at refuse, as they refuse every non-finite rho_GE
    gen = dy.Generator(dy.build_generator(coeffs()).block_pop, rate_ge)
    s0 = dy.XState.excited()
    with pytest.raises(dy.PropagationError, match="rho_GE must be finite"):
        dy.propagate(gen, s0, [0.0, 1.0, 800.0])
    if rate_ge == 1.0:
        times = np.linspace(0.0, 2.0, 21)
        traj = dy.propagate(gen, s0, times)
        assert np.array_equal(_bits(traj.rho_ge),
                              _bits(s0.rho_ge * np.exp(rate_ge * times)))
        with pytest.raises(dy.PropagationError,
                           match="rho_GE must be finite at gamma0_tau = 800"):
            traj.state_at(800.0)


@pytest.mark.parametrize("coherence", ["rho_as", "rho_ge"])
def test_propagate_rejects_a_nan_state(coherence):
    s0 = dy.XState.symmetric()
    # slip a NaN past the constructor; the row checks must still catch it
    object.__setattr__(s0, coherence, complex(np.nan, 0.0))
    with pytest.raises(ValueError, match="finite"):
        dy.propagate(dy.build_generator(coeffs()), s0, np.linspace(0, 1, 5))


@pytest.mark.parametrize("tau", [-1.0, -1e-300, -np.inf, np.inf, np.nan])
def test_state_at_refuses_a_negative_or_non_finite_time(tau):
    gen = dy.build_generator(coeffs(a3=0.05))
    traj = dy.propagate(gen, dy.XState.symmetric(), [0.0, 1.0, 2.0])
    with warnings.catch_warnings():
        # no overflow warning from the exponential on the way to the error
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="tau must be finite and non-negative") as err:
            traj.state_at(tau)
    # an input error, not a numerical failure of the propagation
    assert not isinstance(err.value, dy.PropagationError)


def test_state_at_equals_from_vector_of_its_product():
    gen = dy.build_generator(coeffs(a3=0.12))
    s0 = dy.XState(0.25, 0.25, 0.25, 0.25, rho_as=0.1 + 0.05j,
                   rho_ge=0.1 - 0.2j)
    traj = dy.propagate(gen, s0, np.linspace(0.0, 10.0, 11))
    assert traj.method == "eig"
    w, v, coeff = traj.modes
    for tau in (0.37, 2.0, 9.99, 25.0):
        want = dy.XState.from_vector(
            (v @ (np.exp(w * tau) * coeff)).real,
            rho_ge=s0.rho_ge * np.exp(gen.rate_ge * tau))
        # repr tells -0.0 from 0.0 and a numpy scalar from a Python one
        assert repr(traj.state_at(tau)) == repr(want)


def test_state_at_takes_the_exponential_where_the_eig_value_drifts():
    # a grid of zero times keeps _DRIFT_AT_ONCE on the eig route, although
    # its eig value misses the population sum by about 6e-11 at t = 5
    s0 = dy.XState.excited()
    traj = dy.propagate(_DRIFT_AT_ONCE, s0, [0.0, 0.0, 0.0])
    assert traj.method == "eig"
    w, v, coeff = traj.modes
    drifted = (v @ (np.exp(w * 5.0) * coeff)).real
    assert abs(drifted[:4].sum() - 1.0) > 100 * dy._TRACE_GUARD
    got = traj.state_at(5.0).vector()
    assert np.array_equal(
        got, dy.expm(_DRIFT_AT_ONCE.block_pop * 5.0) @ s0.vector())
    assert shadow.row_errors(_DRIFT_AT_ONCE, s0, [5.0], [got]).max() <= 1e-14


def test_state_at_names_the_time_of_a_state_it_cannot_build():
    # pE decays into pA and drains pG below zero; the trace holds, and the
    # block is diagonalizable, so state_at stays on the eig route
    m = np.zeros((6, 6))
    m[:3, 1] = (-0.5, -1.0, 1.5)
    traj = dy.propagate(dy.Generator(m, rate_ge=0.0),
                        dy.XState(0.0, 0.5, 0.5, 0.0), [0.0])
    assert traj.method == "eig"
    with pytest.raises(dy.PropagationError) as exc:
        traj.state_at(10.0)
    assert str(exc.value) == ("pG is negative beyond tolerance "
                              "at gamma0_tau = 10.0")


def test_trajectory_state_at_matches_grid():
    gen = dy.build_generator(coeffs(a3=0.05))
    traj = dy.propagate(gen, dy.XState.symmetric(), [0.0, 1.0, 2.0])
    direct = traj.state_at(1.0)
    assert np.max(np.abs(direct.vector() - traj.vectors[1])) <= 1e-14


# ---------------------------------------------------------------------
# steady state: the kernel of the generator's population block
# ---------------------------------------------------------------------

def steady_state(gen, resid_tol=1e-10):
    """Kernel vector of the population block, normalized to unit trace.

    Raises ValueError when the kernel is degenerate (dimension > 1), which
    happens when all rates vanish.
    """
    m = gen.block_pop
    _, s, vt = np.linalg.svd(m)
    scale = s[0] if s[0] > 0 else 1.0
    null_dim = int(np.sum(s <= 1e-12 * scale))
    if scale <= 1e-14 or null_dim != 1:
        dim = null_dim if scale > 1e-14 else 6
        raise ValueError(f"dynamics frozen: kernel dimension {dim}")
    v = vt[-1]
    tr = v[:4].sum()
    if abs(tr) < 1e-10:
        raise ValueError("dynamics frozen: traceless kernel vector")
    v = v / tr
    resid = np.linalg.norm(m @ v)
    if resid > resid_tol:
        raise ValueError(f"steady-state residual {resid} above tolerance")
    return dy.XState.from_vector(v)


def test_steady_state_inertial_free_space_is_ground():
    gen = dy.build_generator(coeffs(a3=0.1))
    ss = steady_state(gen)
    assert_allclose(ss.vector(), dy.XState.ground().vector(), atol=1e-12)


def test_steady_state_frozen_dynamics_signal():
    gen = dy.build_generator(co.CoefficientSet(0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError,
                       match="^dynamics frozen: kernel dimension 6$"):
        steady_state(gen)


def test_steady_state_accelerated_matches_long_time_limit():
    cfg = co.PhysicalConfig.from_ratios(1.0, 1.0, 1e3, "parallel")
    gen = dy.build_generator(co.assemble(cfg, include_boundary=False))
    ss = steady_state(gen)
    assert np.linalg.norm(gen.block_pop @ ss.vector()) <= 1e-10
    late = dy.propagate(gen, dy.XState.symmetric(), [200.0]).vectors[0]
    assert np.max(np.abs(late - ss.vector())) <= 1e-6
