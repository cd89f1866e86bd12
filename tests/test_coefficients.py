"""Closed-form spectral tensors and rate assembly: limits, symmetries,
near-boundary expansions, and frozen quadrature-oracle cross-checks."""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mirroratoms import coefficients as co
from mirroratoms import dynamics as dy
from conftest import random_unit_vector

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def cfg(a=0.5, wl=1.0, yl=0.5, alignment="parallel", d1=X, d2=X):
    return co.PhysicalConfig.from_ratios(a, wl, yl, alignment, d1=d1, d2=d2)


def tensor(part, pair, a, L=1.0, y=1.0):
    """One tensor of ``spectral_tensors`` for a parallel pair at height y:
    free (1, 1) is (1 + a^2) times the identity, free (1, 2) the cross
    tensor at chord L, boundary (1, 1) the self image at chord 2y and
    boundary (1, 2) the cross image at chord sqrt(L^2 + 4 y^2)."""
    c = co.PhysicalConfig(a=a, L=L, y=y, alignment="parallel")
    return co.spectral_tensors(c, part)[pair]


# ---------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------

def test_config_rejects_bad_inputs():
    with pytest.raises(ValueError):
        cfg(a=-0.1)
    with pytest.raises(ValueError):
        cfg(wl=0.0)
    with pytest.raises(ValueError):
        cfg(yl=-1.0)
    with pytest.raises(ValueError):
        co.PhysicalConfig(a=0.5, L=1.0, y=0.5, alignment="diagonal")
    with pytest.raises(ValueError):
        cfg(d1=(1.0, 1.0, 0.0))  # not unit


def test_config_ratio_roundtrip():
    c = cfg(a=0.3, wl=1.7, yl=0.25)
    assert c.L == 1.7
    assert abs(c.y_over_L - 0.25) < 1e-15


# ---------------------------------------------------------------------
# single-atom free tensor
# ---------------------------------------------------------------------

def test_f_single_inertial_is_identity():
    assert_allclose(tensor("free", (1, 1), 0.0), np.eye(3), atol=0)


@pytest.mark.parametrize("a,scale", [(1.0, 2.0), (0.5, 1.25)])
def test_f_single_acceleration_scaling(a, scale):
    # frozen fourier_oracle values: G_22 = pref * (1 + a^2)
    frozen = {1.0: 0.2126036365808801, 0.5: 0.1326295675674943}
    assert_allclose(tensor("free", (1, 1), a), scale * np.eye(3), rtol=1e-14)
    oracle_scale = frozen[a] / co.spectral_prefactor(1.0, a)
    assert abs(oracle_scale - scale) <= 0.01 * scale


# ---------------------------------------------------------------------
# two-atom free tensor
# ---------------------------------------------------------------------

def test_f_cross_xz_mixing_needs_acceleration():
    assert tensor("free", (1, 2), 0.0, L=1.3)[0, 2] == 0.0


def test_f_cross_coincidence_limit():
    # diagonal components converge quadratically; the xz component is odd
    # in the separation and only vanishes linearly
    got = tensor("free", (1, 2), 0.7, L=1e-3)
    want = tensor("free", (1, 1), 0.7)
    assert_allclose(np.diag(got), np.diag(want), atol=1e-4)
    assert abs(got[0, 2]) <= 2e-3
    assert abs(tensor("free", (1, 2), 0.7, L=1e-5)[0, 2]) <= 2e-5


def test_f_cross_antisymmetric_mixing():
    e = tensor("free", (1, 2), 0.9, L=0.8)
    assert e[2, 0] == -e[0, 2]
    assert e[0, 1] == e[1, 0] == e[1, 2] == e[2, 1] == 0.0


# 60-digit evaluations of the closed forms inside the series window
# (regenerate with mpmath at workdps(60) if the threshold ever moves)
_SERIES_REFERENCE = {
    ("f11", 0.0, 0.0002): 0.999999992,
    ("f22", 0.0, 0.0002): 0.999999992,
    ("f33", 0.0, 0.0002): 0.999999996,
    ("f11", 0.0, 0.0009): 0.999999838000007,
    ("f22", 0.0, 0.0009): 0.999999838000007,
    ("f33", 0.0, 0.0009): 0.9999999190000023,
    ("f11", 0.7, 0.0002): 1.4899999647168003,
    ("f22", 0.7, 0.0002): 1.4899999793188001,
    ("f33", 0.7, 0.0002): 1.4899999677564004,
    ("f13", 0.7, 0.0002): -0.00020859999629526402,
    ("f11", 0.7, 0.0009): 1.4899992855153676,
    ("f22", 0.7, 0.0009): 1.4899995812057614,
    ("f33", 0.7, 0.0009): 1.4899993470672621,
    ("f13", 0.7, 0.0009): -0.0009386996624060023,
    ("f11", 2.0, 0.0002): 4.999999320000054,
    ("f22", 2.0, 0.0002): 4.999999720000013,
    ("f33", 2.0, 0.0002): 4.999999260000059,
    ("f13", 2.0, 0.0002): -0.0019999997960000143,
    ("f11", 2.0, 0.0009): 4.999986230022108,
    ("f22", 2.0, 0.0009): 4.999994330005378,
    ("f33", 2.0, 0.0009): 4.9999850150241,
    ("f13", 2.0, 0.0009): -0.00899998141052653,
}


_PARTS = ("f11", "f22", "f33", "f13")  # the order _f_parts returns


def test_small_separation_series_locked_to_high_precision():
    for (which, a, s), want in _SERIES_REFERENCE.items():
        got = co._f_parts(a, s)[_PARTS.index(which)]
        assert abs(got - want) <= 1e-12 * abs(want)


def test_series_joins_the_closed_form_continuously():
    # branch values just below and above the switch must agree once the
    # function's own variation over the gap is factored out (the diagonal
    # components are flat there; f13 is linear in s, so compare f13/s)
    lo, hi = 0.999e-3, 1.001e-3
    for a in (0.0, 0.5, 1.5):
        *diag_lo, f13_lo = co._f_parts(a, lo)
        *diag_hi, f13_hi = co._f_parts(a, hi)
        for below, above in zip(diag_lo, diag_hi):
            assert abs(below - above) <= 1e-8 * abs(below)
        below, above = f13_lo / lo, f13_hi / hi
        assert abs(below - above) <= 1e-8 * max(abs(below), 1e-9)


def test_f_cross_inertial_matches_dipole_dipole_forms():
    # classic free-space collective rates: transverse and longitudinal
    wl = 1.3
    e = tensor("free", (1, 2), 0.0, L=wl)
    x = wl
    transverse = 1.5 * (np.sin(x) / x + np.cos(x) / x**2 - np.sin(x) / x**3)
    longitudinal = 3.0 * (np.sin(x) / x**3 - np.cos(x) / x**2)
    assert_allclose(e[0, 0], transverse, rtol=1e-12)
    assert_allclose(e[1, 1], transverse, rtol=1e-12)
    assert_allclose(e[2, 2], longitudinal, rtol=1e-12)


_FROZEN_F_CROSS = {(1, 1): 0.0877815970787882, (2, 2): 0.10007540235444748,
                   (3, 3): 0.09662548198391653, (1, 3): -0.04917522108066796}


def test_f_cross_matches_frozen_oracle():
    pref = co.spectral_prefactor(1.0, 0.5)
    e = tensor("free", (1, 2), 0.5, L=1.0)
    for (m, n), val in _FROZEN_F_CROSS.items():
        assert abs(pref * e[m - 1, n - 1] - val) <= 0.01 * abs(val)


# ---------------------------------------------------------------------
# boundary tensors, parallel
# ---------------------------------------------------------------------

def test_h_cross_far_mirror_vanishes():
    e = tensor("boundary", (1, 2), 0.5, L=1.0, y=1e3)
    assert np.max(np.abs(e)) <= 1e-6 * (1 + 0.25)


def test_h_cross_inertial_branch_is_continuous():
    # components even in the acceleration agree to 1e-6 at a = 1e-4; the
    # xy and xz components carry an explicit factor a and vanish linearly
    lim = tensor("boundary", (1, 2), 1e-4, L=1.0, y=0.5)
    exact = tensor("boundary", (1, 2), 0.0, L=1.0, y=0.5)
    even = [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)]
    for idx in even:
        assert abs(lim[idx] - exact[idx]) <= 1e-6
    assert exact[0, 1] == 0.0
    assert abs(lim[0, 1]) <= 1e-3
    twice = tensor("boundary", (1, 2), 2e-4, L=1.0, y=0.5)
    assert abs(twice[0, 1] - 2.0 * lim[0, 1]) <= 1e-2 * abs(lim[0, 1])


def test_h_cross_rejects_bad_geometry():
    with pytest.raises(ValueError,
                       match="^boundary distance y must be positive$"):
        co.PhysicalConfig(a=0.5, L=1.0, y=0.0, alignment="parallel")
    with pytest.raises(ValueError, match="^separation L must be positive$"):
        co.PhysicalConfig(a=0.5, L=-1.0, y=1.0, alignment="parallel")


# frozen fourier_oracle values of the boundary-kernel transform
# (equal to minus prefactor times the tensor) at a=0.5, wL=1, y/L=0.7
_FROZEN_H_CROSS = {
    (1, 1): -0.0340060217287148,
    (2, 2): 0.05470773461513236,
    (3, 3): -0.05446005898495842,
    (1, 2): 0.03820872776130329,
    (1, 3): 0.027291948402193154,
    (2, 3): 0.0003611936233405856,
}


def test_h_cross_matches_frozen_oracle():
    pref = co.spectral_prefactor(1.0, 0.5)
    e = tensor("boundary", (1, 2), 0.5, L=1.0, y=0.7)
    for (m, n), val in _FROZEN_H_CROSS.items():
        assert abs(-pref * e[m - 1, n - 1] - val) <= 0.01 * abs(val)


def test_h_cross_coincidence_limit_is_h_self():
    got = tensor("boundary", (1, 2), 0.6, L=1e-9, y=0.9)
    assert_allclose(got, tensor("boundary", (1, 1), 0.6, y=0.9), atol=1e-8)


def test_h_cross_mirror_coincidence_reconstructs_f():
    # at the mirror the tangential parts match f and the normal part flips
    f = tensor("free", (1, 2), 0.7, L=1.3)
    h0 = tensor("boundary", (1, 2), 0.7, L=1.3, y=1e-9)
    for idx in [(0, 0), (2, 2), (0, 2), (2, 0)]:
        assert abs(f[idx] - h0[idx]) <= 1e-8
    assert abs(f[1, 1] + h0[1, 1]) <= 1e-8
    assert abs(h0[0, 1]) <= 1e-8
    assert abs(h0[1, 2]) <= 1e-8


def test_h_self_limits():
    far = tensor("boundary", (1, 1), 0.5, y=1e3)
    assert np.max(np.abs(far)) <= 1e-6
    near = tensor("boundary", (1, 1), 0.5, y=1e-6)
    fs = tensor("free", (1, 1), 0.5)
    assert abs(near[0, 0] - fs[0, 0]) <= 1e-6
    assert abs(near[2, 2] - fs[2, 2]) <= 1e-6
    # normal component doubles the free one as the atom touches the mirror
    assert abs((fs[1, 1] - near[1, 1]) - 2.0 * (1 + 0.25)) <= 1e-6


# ---------------------------------------------------------------------
# vertical tensors
# ---------------------------------------------------------------------

def test_vertical_bounded_parts_vanish_far_away():
    bnd = co.spectral_tensors(cfg(yl=1e3, alignment="vertical"), "boundary")
    for t in bnd.values():
        assert np.max(np.abs(t)) <= 1e-6


def test_vertical_nearer_atom_protection():
    # tangential self rates of the nearer atom die at the mirror while the
    # farther atom keeps a finite rate
    t1, t2, _ = (np.reshape(t, (3, 3)) for t in
                 co._pair_table(cfg(yl=1e-6, alignment="vertical"), True))
    assert abs(t1[0, 0]) <= 1e-5
    assert abs(t1[2, 2]) <= 1e-5
    assert t2[0, 0] > 0.1


def test_vertical_cross_image_distance():
    sc = co.spectral_tensor(cfg(alignment="vertical"), (1, 2), "boundary")
    assert_allclose(sc.entries, tensor("boundary", (1, 1), 0.5, y=1.0),
                    rtol=1e-14)


_FROZEN_S_CROSS = {(1, 1): -0.017058805822999765, (2, 2): 0.04233190997476522,
                   (3, 3): -0.03685571108671043, (1, 2): 0.03959381053214638}


def test_vertical_s_cross_matches_frozen_oracle():
    pref = co.spectral_prefactor(1.0, 0.5)
    sc = co.spectral_tensor(cfg(alignment="vertical"), (1, 2), "boundary")
    for (m, n), val in _FROZEN_S_CROSS.items():
        assert abs(-pref * sc.entries[m - 1, n - 1] - val) <= 0.01 * abs(val)


def test_vertical_g_cross_permutes_axes():
    c = cfg(a=0.8, wl=1.1, alignment="vertical")
    g = co.spectral_tensor(c, (1, 2), "free").entries
    f = tensor("free", (1, 2), 0.8, L=1.1)
    assert g[0, 0] == f[0, 0]
    assert g[1, 1] == f[2, 2]
    assert g[2, 2] == f[1, 1]
    assert g[0, 1] == f[0, 2]
    assert g[1, 0] == -g[0, 1]


# ---------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------

def test_detailed_balance_structure(rng):
    for _ in range(100):
        alignment = "parallel" if rng.uniform() < 0.5 else "vertical"
        c = cfg(a=rng.uniform(0.05, 2.0), wl=rng.uniform(0.5, 2.0),
                yl=rng.uniform(0.1, 3.0), alignment=alignment,
                d1=random_unit_vector(rng), d2=random_unit_vector(rng))
        cs = co.assemble(c)
        th = np.tanh(np.pi / c.a)
        for a_val, b_val in ((cs.A1, cs.B1), (cs.A2, cs.B2), (cs.A3, cs.B3)):
            assert abs(b_val - a_val * th) <= 1e-12 * max(abs(a_val), 1e-12)


def test_inertial_balance_is_exact():
    cs = co.assemble(cfg(a=0.0, d1=Y, d2=Z, alignment="vertical"))
    assert cs.B1 == cs.A1
    assert cs.B2 == cs.A2
    assert cs.B3 == cs.A3


def test_self_rates_are_nonnegative(rng):
    for _ in range(50):
        alignment = "parallel" if rng.uniform() < 0.5 else "vertical"
        c = cfg(a=rng.uniform(0.0, 2.0), wl=rng.uniform(0.5, 2.0),
                yl=rng.uniform(0.05, 3.0), alignment=alignment,
                d1=random_unit_vector(rng), d2=random_unit_vector(rng))
        cs = co.assemble(c)
        assert cs.A1 >= -1e-14
        assert cs.A2 >= -1e-14


def test_factor_two_for_normal_dipoles_at_the_mirror():
    c = cfg(a=0.5, wl=1.0, yl=1e-3, d1=Y, d2=Y)
    with_boundary = co.assemble(c).as_array()
    free = co.assemble(c, include_boundary=False).as_array()
    assert_allclose(with_boundary, 2.0 * free, rtol=1e-3)


def test_tangential_pair_freezes_at_the_mirror():
    c = cfg(a=0.5, wl=1.0, yl=1e-4, d1=X, d2=Z)
    cs = co.assemble(c)
    assert np.max(np.abs(cs.as_array())) <= 1e-6


def test_free_space_recovery_far_from_mirror():
    for alignment in ("parallel", "vertical"):
        c = cfg(a=0.5, wl=1.0, yl=1e3, alignment=alignment, d1=X, d2=Y)
        full = co.assemble(c).as_array()
        free = co.assemble(c, include_boundary=False).as_array()
        assert np.max(np.abs(full - free)) <= 1e-6


def test_exchange_symmetry_parallel(rng):
    # swapping the atoms transposes the cross tensor, so the cross rate
    # computed from (d1, d2) equals the one from (d2, d1) on the transpose
    for _ in range(10):
        d1 = random_unit_vector(rng)
        d2 = random_unit_vector(rng)
        c = cfg(a=0.7, wl=1.2, yl=0.6, d1=d1, d2=d2)
        t12 = co.spectral_tensor(c, (1, 2), "boundary").entries
        t21 = co.spectral_tensor(c, (2, 1), "boundary").entries
        assert abs(d1 @ t12 @ d2 - d2 @ t21 @ d1) <= 1e-14


def test_exchange_symmetry_vertical():
    # relabeling the atoms swaps the self tensors at heights y and y + L
    c = cfg(a=0.5, wl=1.0, yl=0.5, alignment="vertical")
    s1 = co.spectral_tensor(c, (1, 1), "boundary")
    s2 = co.spectral_tensor(c, (2, 2), "boundary")
    assert_allclose(s1.entries, tensor("boundary", (1, 1), c.a, y=c.y),
                    rtol=0)
    assert_allclose(s2.entries,
                    tensor("boundary", (1, 1), c.a, y=c.y + c.L), rtol=0)


def test_continuity_at_the_inertial_branch_point():
    for alignment in ("parallel", "vertical"):
        c_small = cfg(a=1e-4, alignment=alignment, d1=Y, d2=X)
        c_zero = cfg(a=0.0, alignment=alignment, d1=Y, d2=X)
        delta = co.assemble(c_small).as_array() - co.assemble(c_zero).as_array()
        assert np.max(np.abs(delta)) <= 1e-3


# ---------------------------------------------------------------------
# near-boundary expansions
# ---------------------------------------------------------------------

def test_near_boundary_parallel_normal_dipoles():
    c = cfg(a=0.5, wl=1.0, yl=1e-4, d1=Y, d2=Y)
    got = co.assemble(c)
    exp = co.near_boundary_expansion(c)
    assert abs(got.A1 - exp.A1) <= 1e-3 * abs(exp.A1)
    # the printed leading term is coth * (a^2 + 1) / 2
    coth = 1.0 / np.tanh(np.pi / 0.5)
    assert abs(exp.A1 - 0.5 * coth * 1.25) <= 1e-14


def test_near_boundary_vertical_spec_points():
    c = cfg(a=0.5, wl=1.0, yl=1e-4, alignment="vertical", d1=X, d2=Y)
    got = co.assemble(c)
    exp = co.near_boundary_expansion(c)
    assert abs(got.A2 - exp.A2) <= 5e-3 * abs(exp.A2)
    c2 = c.with_(d1=np.array([0.0, 1.0, 0.0]))
    got2 = co.assemble(c2)
    exp2 = co.near_boundary_expansion(c2)
    assert abs(got2.A3 - exp2.A3) <= 5e-3 * abs(exp2.A3)


def test_near_boundary_random_sample_both_alignments(rng):
    for alignment in ("parallel", "vertical"):
        worst = 0.0
        for _ in range(10):
            c = cfg(a=rng.uniform(0.1, 1.5), wl=rng.uniform(0.5, 2.0),
                    yl=1e-4, alignment=alignment,
                    d1=random_unit_vector(rng), d2=random_unit_vector(rng))
            got = co.assemble(c).as_array()
            exp = co.near_boundary_expansion(c).as_array()
            worst = max(worst, np.max(np.abs(got - exp)) / np.max(np.abs(exp)))
        assert worst <= 5e-3


# ---------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------

def test_spectral_prefactor_detailed_balance():
    for a in (0.3, 0.9, 1.7):
        ratio = co.spectral_prefactor(-1.0, a) / co.spectral_prefactor(1.0, a)
        assert abs(ratio - np.exp(-2 * np.pi / a)) <= 1e-12 * ratio
    assert co.spectral_prefactor(-1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        co.spectral_prefactor(0.0, 0.5)


@pytest.mark.parametrize("alignment,keys", [
    ("parallel", [(1, 1), (1, 2)]),
    ("vertical", [(1, 1), (2, 2), (1, 2)]),
])
@pytest.mark.parametrize("part", ["free", "boundary"])
def test_spectral_tensors_table(alignment, keys, part):
    c = cfg(a=0.7, wl=1.2, yl=0.6, alignment=alignment)
    table = co.spectral_tensors(c, part)
    assert list(table) == keys
    t21 = co.spectral_tensor(c, (2, 1), part).entries
    assert np.array_equal(t21, table[(1, 2)].T)
    if alignment == "parallel":
        t22 = co.spectral_tensor(c, (2, 2), part).entries
        assert np.array_equal(t22, table[(1, 1)])
    with pytest.raises(ValueError):
        co.spectral_tensors(c, "image")


def test_spectral_tensor_pair_validation():
    c = cfg()
    with pytest.raises(ValueError):
        co.spectral_tensor(c, (1, 3), "free")
    with pytest.raises(ValueError):
        co.spectral_tensor(c, (1, 2), "image")


# ---------------------------------------------------------------------
# pinned rates and the scalar contraction
# ---------------------------------------------------------------------

# hex rates and generators of 12 axis-dipole configurations, frozen from a
# numpy d @ T @ d contraction.  An axis-dipole contraction is exact in any
# order, so none may move by a bit.  They cover both alignments, a = 0 and
# a > 0, chords under _SMALL_S, y/L = 1e-4 and y/L = 1e3
_PINS = json.loads((Path(__file__).parent / "rate_pins.json").read_text())


@pytest.mark.parametrize("pin", _PINS, ids=lambda p: (
    f"{p['alignment']}-a{p['a_over_omega']}-wl{p['omega_L']}"
    f"-yl{p['y_over_L']}"))
def test_axis_dipole_rates_and_generators_are_pinned(pin):
    c = co.PhysicalConfig.from_ratios(
        pin["a_over_omega"], pin["omega_L"], pin["y_over_L"],
        pin["alignment"], d1=pin["d1"], d2=pin["d2"])
    cs = co.assemble(c)
    gen = dy.build_generator(cs)
    free = co.assemble(c, include_boundary=False)
    assert [v.hex() for v in cs.as_array().tolist()] == pin["rates"]
    assert [v.hex() for v in free.as_array().tolist()] == pin["free_rates"]
    assert ([[v.hex() for v in row] for row in gen.block_pop.tolist()]
            == pin["block_pop"])
    assert gen.rate_ge.hex() == pin["rate_ge"]


# hex spectral tensors of 18 configurations, frozen from the dict-keyed
# tensor tables that preceded the (T11, T22, T12) triples: both
# alignments, a in {0, 2/3, 1e5}, y/L in {0.01, 0.5, 1000}
_TENSOR_PINS = json.loads(
    (Path(__file__).parent / "tensor_pins.json").read_text())


@pytest.mark.parametrize("pin", _TENSOR_PINS, ids=lambda p: (
    f"{p['alignment']}-a{p['a_over_omega']:.3g}-yl{p['y_over_L']}"))
@pytest.mark.parametrize("part", ["free", "boundary"])
def test_spectral_tensors_are_pinned(pin, part):
    c = co.PhysicalConfig.from_ratios(
        pin["a_over_omega"], pin["omega_L"], pin["y_over_L"],
        pin["alignment"])
    got = [[list(k), [v.hex() for v in m.ravel().tolist()]]
           for k, m in co.spectral_tensors(c, part).items()]
    assert got == pin[part]["tensors"]
    for pair, want in pin[part]["spectral_tensor"]:
        entries = co.spectral_tensor(c, tuple(pair), part).entries
        assert entries.shape == (3, 3)
        assert [v.hex() for v in entries.ravel().tolist()] == want, pair


def _unit(v):
    v = np.asarray(v)
    return v / np.linalg.norm(v)


_UNIT = (st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
         .filter(lambda v: np.linalg.norm(v) >= 0.1).map(_unit))


# the spacing of the subnormals: a rounding that underflows is off by at
# most half of it
TINY = math.ulp(0.0)


@settings(max_examples=200, deadline=None)
@given(alignment=st.sampled_from(co.ALIGNMENTS),
       a=st.one_of(st.just(0.0), st.floats(1e-6, 3.0),
                   st.floats(TINY, sys.float_info.min)),
       log_wl=st.floats(-4.0, 1.0), log_yl=st.floats(-4.0, 3.0),
       d1=_UNIT, d2=_UNIT, include_boundary=st.booleans())
# A3 is off the exact contraction by one subnormal spacing, where the
# relative bound underflows to 0.0
@example(alignment="parallel", a=0.0, log_wl=0.0, log_yl=0.0,
         d1=_unit([0.0, 1.0, 0.0]), d2=_unit([0.0, 2.2250738585e-313, 0.5]),
         include_boundary=False)
def test_assembly_is_a_round_off_close_contraction(alignment, a, log_wl,
                                                   log_yl, d1, d2,
                                                   include_boundary):
    # each rate is within 4 eps of scale * sum |d_i| |T_ij| |d_j| of the
    # exact rational contraction of the _pair_table entries, plus half a
    # subnormal spacing for each of its 13 roundings (scale <= 1 here)
    c = co.PhysicalConfig.from_ratios(a, 10.0**log_wl, 10.0**log_yl,
                                      alignment, d1=d1, d2=d2)
    cs = co.assemble(c, include_boundary=include_boundary)
    t1, t2, tc = (np.reshape(t, (3, 3))
                  for t in co._pair_table(c, include_boundary))
    scale = 0.25 * (1.0 / co.tanh_pi_over_a(a))
    for got, u, t, v in ((cs.A1, c.d1, t1, c.d1), (cs.A2, c.d2, t2, c.d2),
                         (cs.A3, c.d1, tc, c.d2)):
        exact = Fraction(scale) * sum(
            Fraction(u[i]) * Fraction(t[i, j]) * Fraction(v[j])
            for i in range(3) for j in range(3))
        bound = 4.0 * sys.float_info.epsilon * scale * float(
            np.abs(u) @ np.abs(t) @ np.abs(v)) + 7.0 * TINY
        assert abs(float(Fraction(got) - exact)) <= bound



@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the free cross tensor cancels at small omega L: "
                   "A3 = 1.2510e-7 > A1 = A2 = 1.2486e-7, which assemble "
                   "neither repairs nor refuses")
def test_rates_at_a_small_separation_are_completely_positive_or_refused():
    # coeffs --a 0.5 --omega-l 1e-3 --y-over-l 0.5
    cfg = co.PhysicalConfig.from_ratios(0.5, 1e-3, 0.5, "parallel")
    try:
        cs = co.assemble(cfg)
    except co.RateError:
        return
    assert cs.A1 >= 0.0 and cs.A2 >= 0.0
    assert cs.A3 * cs.A3 <= cs.A1 * cs.A2
