"""Quadrature-oracle agreement with the closed-form spectral functions.

These run the trapezoid sum on the shifted contour, a few milliseconds
per configuration.  The full 20-configuration randomized battery lives in
the acceptance module; here a smaller seeded sample, the detailed-balance
and rate-assembly equivalences, the Planck-suppressed side component by
component and a lock against values frozen from the earlier
scipy.integrate.quad integrator are exercised.
"""

import warnings

import numpy as np
import pytest

from mirroratoms import coefficients as co
from mirroratoms import correlations as fc
from mirroratoms.cli import _oracle_report


def seeded_configs(n, seed=11):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        alignment = "parallel" if i % 2 == 0 else "vertical"
        out.append(co.PhysicalConfig.from_ratios(
            float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.1, 3.0)), alignment))
    return out


@pytest.mark.parametrize("cfg", seeded_configs(4),
                         ids=lambda c: f"{c.alignment}-a{c.a:.2f}")
def test_every_component_matches_within_one_percent(cfg):
    status, report = _oracle_report(cfg)
    assert status == 0, report
    assert report["max_rel_error"] <= 0.01
    assert not report["failures"]


def test_inertial_configuration_matches():
    cfg = co.PhysicalConfig.from_ratios(0.0, 1.0, 0.6, "parallel")
    status, report = _oracle_report(cfg)
    assert status == 0, report
    assert report["max_rel_error"] <= 0.01


@pytest.mark.parametrize("alignment", ["parallel", "vertical"])
def test_inertial_negative_frequency_components_vanish(alignment):
    # an inertial atom is not excited: W is analytic in the whole lower
    # half-plane, so every component at w < 0 is exactly 0
    cfg = co.PhysicalConfig.from_ratios(0.0, 1.0, 0.6, alignment)
    status, report = _oracle_report(cfg, omega0=-1.0)
    assert status == 0, report
    assert report["max_rel_error"] == 0.0
    # the zero is the contour's limit, not the underflow's: on a line at
    # depth 1.5 the lifted sum already vanishes to round-off
    kernel = fc.CorrelationKernel("free", 0.6, 0.6, 1.0, epsilon=1.5)
    value, _, _ = fc._windowed_transform(kernel, 1, 1, 0.0, -1.0,
                                         fc.default_window(0.0), 1.5 / 8)
    assert abs(value) <= 1e-11


@pytest.mark.parametrize("omega0", [-1.0, -1e-3, -1e-30, -1e-50, -1e-100,
                                    -1e-200])
def test_inertial_negative_frequency_line_keeps_the_kernel_finite(omega0):
    # the line descends to 746/|w|, where the sum's factor e^{w c}
    # underflows to an exact 0; below |w| = 7.46e-48 that depth would
    # overflow s^3 in the kernel, so the line stops at 1e50, where the sum
    # is the window's truncation residue and still converges
    cfg = co.PhysicalConfig.from_ratios(0.0, 1.0, 0.6, "parallel")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fc.fourier_oracle("free", 1, 1, (1, 1), cfg, omega0)
    assert result.converged, result.message
    assert result.depth == min(746.0 / -omega0, 1e50)
    value = complex(result.value, result.imag)
    if result.depth < 1e50:
        assert value == 0.0
    assert abs(value) <= 1e-190, result


def test_negative_frequency_detailed_balance():
    # at a = 1.5 the negative-frequency response is large enough for the
    # quadrature to resolve: G(-w) = exp(-2 pi w / a) G(+w)
    cfg = co.PhysicalConfig.from_ratios(1.5, 1.0, 0.5, "parallel")
    plus = fc.fourier_oracle("free", 2, 2, (1, 2), cfg, 1.0)
    minus = fc.fourier_oracle("free", 2, 2, (1, 2), cfg, -1.0)
    assert plus.converged and minus.converged
    ratio = minus.value / plus.value
    assert abs(ratio - np.exp(-2 * np.pi / 1.5)) <= 0.01 * ratio


@pytest.mark.parametrize("alignment", ["parallel", "vertical"])
@pytest.mark.parametrize("a", [0.3, 0.7, 1.5])
def test_negative_frequency_components_match_the_closed_forms(a, alignment):
    # a quadrature check of B = A tanh(pi/a): at w = -1 every component is
    # the closed-form tensor times spectral_prefactor(-1, a), which carries
    # the Planck factor e^{-2 pi/a} (8.5e-11 in all at a = 0.3).  A component whose
    # closed form vanishes is held to the same bound on its tensor's scale
    cfg = co.PhysicalConfig.from_ratios(a, 1.0, 0.5, alignment)
    pref = co.spectral_prefactor(-1.0, a)
    for part, sign in (("free", 1.0), ("boundary", -1.0)):
        for pair, tens in co.spectral_tensors(cfg, part).items():
            closed = sign * pref * tens
            scale = np.max(np.abs(closed))
            for m in range(1, 4):
                for n in range(1, 4):
                    res = fc.fourier_oracle(part, m, n, pair, cfg, -1.0)
                    assert res.converged, (part, pair, m, n, res.message)
                    want = closed[m - 1, n - 1]
                    bound = 1e-9 * (abs(want) if want else scale)
                    assert abs(res.value - want) <= bound, (part, pair, m, n)


@pytest.mark.parametrize("omega0", [1.0, -1.0])
def test_report_fails_an_oracle_that_returns_zero(monkeypatch, omega0):
    # at w = -1 every closed form carries e^{-2 pi/a} (8.5e-11 in all at
    # a = 0.3), so the report's floor must scale with the report itself
    zero = fc.OracleResult(value=0.0, error=0.0, imag=0.0, tail=0.0,
                           window=1.0, depth=1.0, converged=True)
    monkeypatch.setattr(fc, "fourier_oracle", lambda *args: zero)
    cfg = co.PhysicalConfig.from_ratios(0.3, 1.0, 0.5, "parallel")
    status, report = _oracle_report(cfg, omega0=omega0)
    assert status == 2
    assert report["max_rel_error"] >= 1.0
    assert report["failures"]


def _contracted_spectral(cfg, pair, omega0):
    """Dipole-contracted spectral value from the oracle alone."""
    d = {1: cfg.d1, 2: cfg.d2}
    da, db = d[pair[0]], d[pair[1]]
    total = 0.0
    for m in range(1, 4):
        for n in range(1, 4):
            weight = da[m - 1] * db[n - 1]
            if abs(weight) < 1e-15:
                continue
            for kind in ("free", "boundary"):
                res = fc.fourier_oracle(kind, m, n, pair, cfg, omega0)
                total += weight * res.value
    return total


def test_rate_assembly_equals_oracle_rates():
    """A_i and B_i reconstructed from oracle G(+w), G(-w) match assemble."""
    cfg = co.PhysicalConfig.from_ratios(1.5, 1.0, 0.5, "parallel",
                                        d1=(1, 0, 0), d2=(0, 1, 0))
    cs = co.assemble(cfg)
    for pair, a_closed, b_closed in (((1, 1), cs.A1, cs.B1),
                                     ((1, 2), cs.A3, cs.B3)):
        g_plus = _contracted_spectral(cfg, pair, 1.0)
        g_minus = _contracted_spectral(cfg, pair, -1.0)
        a_oracle = 0.75 * np.pi * (g_plus + g_minus)
        b_oracle = 0.75 * np.pi * (g_plus - g_minus)
        assert abs(a_oracle - a_closed) <= 0.01 * abs(a_closed)
        assert abs(b_oracle - b_closed) <= 0.01 * abs(b_closed)


# fourier_oracle values of every component _oracle_report checks for one
# parallel and one vertical configuration, computed when each panel was
# integrated by scipy.integrate.quad (real and imaginary parts separately)
_QUAD_CONFIGS = {"parallel": (0.6, 1.0, 0.8), "vertical": (0.9, 1.3, 0.5)}
_QUAD_VALUES = {
    ("parallel", "free", (1, 1), 1, 1):
        0.14430460446291232,
    ("parallel", "free", (1, 1), 2, 2):
        0.14430456764699315,
    ("parallel", "free", (1, 1), 3, 3):
        0.14430456764699315,
    ("parallel", "free", (1, 2), 1, 1):
        0.08754530581230903,
    ("parallel", "free", (1, 2), 1, 3):
        -0.0604117224711002,
    ("parallel", "free", (1, 2), 2, 2):
        0.10566882254607016,
    ("parallel", "free", (1, 2), 3, 1):
        0.060411722472546774,
    ("parallel", "free", (1, 2), 3, 3):
        0.09570358569652969,
    ("parallel", "boundary", (1, 1), 1, 1):
        -0.03625857998147884,
    ("parallel", "boundary", (1, 1), 1, 2):
        0.05602554660520406,
    ("parallel", "boundary", (1, 1), 2, 1):
        0.05602554659770554,
    ("parallel", "boundary", (1, 1), 2, 2):
        0.05356904639599228,
    ("parallel", "boundary", (1, 1), 3, 3):
        -0.06315084235499549,
    ("parallel", "boundary", (1, 2), 1, 1):
        -0.017330763979939157,
    ("parallel", "boundary", (1, 2), 1, 2):
        0.039615403093092964,
    ("parallel", "boundary", (1, 2), 1, 3):
        0.024759626931452436,
    ("parallel", "boundary", (1, 2), 2, 1):
        0.03961540308601885,
    ("parallel", "boundary", (1, 2), 2, 2):
        0.04016703335683533,
    ("parallel", "boundary", (1, 2), 2, 3):
        -0.002254382611905757,
    ("parallel", "boundary", (1, 2), 3, 1):
        -0.024759626928305054,
    ("parallel", "boundary", (1, 2), 3, 2):
        0.002254382611905757,
    ("parallel", "boundary", (1, 2), 3, 3):
        -0.04236505640477175,
    ("vertical", "free", (1, 1), 1, 1):
        0.1922255785256907,
    ("vertical", "free", (1, 1), 2, 2):
        0.19222554938247666,
    ("vertical", "free", (1, 1), 3, 3):
        0.19222554938247666,
    ("vertical", "free", (2, 2), 1, 1):
        0.1922255785256907,
    ("vertical", "free", (2, 2), 2, 2):
        0.19222554938247666,
    ("vertical", "free", (2, 2), 3, 3):
        0.19222554938247666,
    ("vertical", "free", (1, 2), 1, 1):
        0.04458551006792092,
    ("vertical", "free", (1, 2), 1, 2):
        -0.08581156774268853,
    ("vertical", "free", (1, 2), 2, 1):
        0.08581156775011531,
    ("vertical", "free", (1, 2), 2, 2):
        0.051901163376890144,
    ("vertical", "free", (1, 2), 3, 3):
        0.09478527719890383,
    ("vertical", "boundary", (1, 1), 1, 1):
        -0.044585542650940745,
    ("vertical", "boundary", (1, 1), 1, 2):
        0.0858115867951716,
    ("vertical", "boundary", (1, 1), 2, 1):
        0.08581158680801738,
    ("vertical", "boundary", (1, 1), 2, 2):
        0.05190115221073061,
    ("vertical", "boundary", (1, 1), 3, 3):
        -0.09478532093193365,
    ("vertical", "boundary", (2, 2), 1, 1):
        0.007975155411900551,
    ("vertical", "boundary", (2, 2), 1, 2):
        -0.0036038292560655874,
    ("vertical", "boundary", (2, 2), 2, 1):
        -0.0036038292825413916,
    ("vertical", "boundary", (2, 2), 2, 2):
        0.01224641182089793,
    ("vertical", "boundary", (2, 2), 3, 3):
        0.014299875792181648,
    ("vertical", "boundary", (1, 2), 1, 1):
        0.01231334731515746,
    ("vertical", "boundary", (1, 2), 1, 2):
        0.016956813546984063,
    ("vertical", "boundary", (1, 2), 2, 1):
        0.016956813548323655,
    ("vertical", "boundary", (1, 2), 2, 2):
        0.0069668784971040265,
    ("vertical", "boundary", (1, 2), 3, 3):
        -0.007526124540067436,
}


@pytest.mark.parametrize("alignment", sorted(_QUAD_CONFIGS))
def test_oracle_matches_frozen_quad_values(alignment):
    # the scale is the largest value of the component's kernel part: the
    # oracle's absolute accuracy is set by the integrand round-off at the
    # part's light-cone peak, not by the size of one component
    cfg = co.PhysicalConfig.from_ratios(*_QUAD_CONFIGS[alignment], alignment)
    for part in ("free", "boundary"):
        keys = [k for k in _QUAD_VALUES if k[:2] == (alignment, part)]
        scale = max(abs(_QUAD_VALUES[k]) for k in keys)
        for key in keys:
            _, _, pair, m, n = key
            res = fc.fourier_oracle(part, m, n, pair, cfg, 1.0)
            assert res.converged, (key, res.message)
            assert abs(res.value - _QUAD_VALUES[key]) <= 1e-6 * scale, key


@pytest.mark.parametrize("alignment", sorted(_QUAD_CONFIGS))
def test_oracle_evaluates_one_integrand_call_per_component(monkeypatch,
                                                           alignment):
    # the trapezoid sum, its error estimate and the window tail all come
    # from the one grid on the shifted contour.  The calls are counted
    # through the module attribute, so an integrator that bypasses it
    # counts none
    calls = []
    corr = fc.electric_correlation

    def counted(*args):
        calls.append(args)
        return corr(*args)

    monkeypatch.setattr(fc, "electric_correlation", counted)
    cfg = co.PhysicalConfig.from_ratios(*_QUAD_CONFIGS[alignment], alignment)
    for key in (k for k in _QUAD_VALUES if k[0] == alignment):
        _, part, pair, m, n = key
        calls.clear()
        fc.fourier_oracle(part, m, n, pair, cfg, 1.0)
        assert len(calls) == 1, (key, len(calls))

