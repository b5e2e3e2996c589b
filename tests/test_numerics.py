"""ruinlab's own root finder and quadrature against scipy as the oracle.

``lundberg._brentq`` is scipy's brentq.c step for step, so the roots agree
bit for bit.  ``distributions.quad`` is adaptive 7-15 Gauss-Kronrod; it
must agree with ``integrate.quad`` within tolerance on the integrand shapes
of its three callers, and a panel cap must warn ``NumericsWarning`` at
each caller.
"""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, special

from ruinlab import (Distribution, NumericsWarning, RegimeSpec,
                     phi_nu_piecewise)
from ruinlab.distributions import _gk15, pointwise, quad
from ruinlab.lundberg import HLaw, _brentq, _gap_mean, _pole_fn, _quad

BRACKETS = [
    (lambda x: x * x - 2.0, 0.0, 2.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 10.0, 0.0, 5.0),
    (lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0),
    (lambda x: x ** 9 - 1e-9, 0.0, 1.5),
    (lambda x: 1e-300 * (x - 0.5), 0.0, 1.0),
    (lambda x: math.atan(x - 0.123456789), -10.0, 10.0),
    # roots at an end of the bracket
    (lambda x: x, 0.0, 1.0),
    (lambda x: x - 1.0, 0.0, 1.0),
    # inf inside the bracket, on either side of the root
    (lambda x: math.inf if x > 0.7 else x - 0.5, 0.0, 1.0),
    (lambda x: -math.inf if x < 0.1 else x - 0.5, 0.0, 1.0),
    (lambda x: math.inf if x > 0.51 else math.log(2.0 * x), 0.1, 3.0),
]


@pytest.mark.parametrize("xtol, rtol", [(1e-300, 1e-15), (2e-12, 1e-12)])
@pytest.mark.parametrize("case", range(len(BRACKETS)))
def test_brentq_matches_scipy_bit_for_bit(case, xtol, rtol):
    f, a, b = BRACKETS[case]
    want = optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)
    assert _brentq(f, a, b, xtol=xtol, rtol=rtol) == want


def test_brentq_refuses_a_same_sign_bracket():
    with pytest.raises(ValueError, match="different signs"):
        optimize.brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_brentq_stops_where_scipy_does():
    # a triple root at 1 takes more than 100 steps
    f = lambda x: (x - 1.0) ** 3
    with pytest.raises(RuntimeError, match="converge"):
        optimize.brentq(f, 0.0, 5.0)
    with pytest.raises(RuntimeError, match="converge"):
        _brentq(f, 0.0, 5.0)


def test_brentq_counts_the_steps_scipy_does():
    calls = []

    def f(x):
        calls.append(x)
        return x * x - 2.0

    _, info = optimize.brentq(f, 0.0, 2.0, xtol=1e-300, rtol=1e-15,
                              full_output=True)
    want, calls[:] = list(calls), []
    _brentq(f, 0.0, 2.0)
    assert calls == want and len(want) == info.function_calls


def _scipy(f, a, b, **kw):
    return integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500,
                          **kw)[0]


def test_rule_tables():
    # Kronrod 15 is exact to degree 22 and Gauss 7 to degree 13, where the
    # error estimate falls to its rounding floor
    val, _ = _gk15(lambda x: 23.0 * x ** 22, 0.0, 1.0)
    assert val == pytest.approx(1.0, rel=1e-14)
    val, err = _gk15(lambda x: 14.0 * x ** 13, 0.0, 1.0)
    assert val == pytest.approx(1.0, rel=1e-14) and err < 1e-13


def test_quad_spike_in_log_coordinates():
    # a gap span starting 1e-9 above the pole: g(h) = (s h)^-1.5 on a
    # density rising from 0.2 to 1.0, the way _gap_mean hands it to _quad
    h0, d0, d1, s = 1e-9, 0.0, 0.3, 0.5
    g = _pole_fn((1.5, s))
    f = lambda x: g(h0 + x) * (0.2 + (0.8 / (d1 - d0)) * (x - d0))
    spike = h0 + d0
    want = _scipy(lambda t: float(f(d0 + spike * math.expm1(t)))
                  * spike * math.exp(t), 0.0, math.log1p((d1 - d0) / spike))
    assert _quad(f, d0, d1, spike=spike) == pytest.approx(want, rel=1e-7)


def test_quad_touch_span_without_a_pole():
    # spike 0: g(h) = phi_tau(a - h) for a bounded tau, smooth at h = 0
    tau, a = Distribution.uniform(0.5, 1.5), 2.0
    f = lambda x: tau.mgf(a - x) * (1.0 - x / 0.4) / 0.2
    want = _scipy(lambda x: float(f(x)), 0.0, 0.4)
    assert _quad(f, 0.0, 0.4) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("k, f0", [(0.5, 2.0), (0.9, 1.0), (1.9, 0.0)])
def test_touch_span_closed_form(k, f0):
    # (s h)^-k on a density f0 + slope h from H = 0: rho - k as small as 0.1
    slope, d1, s = 3.0, 0.25, 0.7
    law = HLaw("pieces", 1.0 if f0 else 2.0,
               spans=((0.0, d1, f0, f0 + slope * d1),))
    want = _scipy(lambda h: (s * h) ** -k * (f0 + slope * h), 0.0, d1)
    assert _gap_mean(law, _pole_fn((k, s)), (k, s)) == pytest.approx(
        want, rel=1e-10)


@pytest.mark.parametrize("shape", [0.3, 0.5, 0.8])
def test_quad_gamma_density_in_r_to_the_shape(shape):
    # phi_nu_piecewise's r = v^p, p = 1/shape, which flattens r^(shape-1)
    law, h, p = Distribution.gamma(shape, 1.5), 0.25, 1.0 / shape
    f = lambda v: p * v ** (p - 1.0) * law.pdf(v ** p)
    got = quad(f, 0.0, h ** shape, 0.0, 1e-13, 300)
    assert got == pytest.approx(special.gammainc(shape, h / 1.5), rel=1e-12)
    want = _scipy(lambda v: float(f(v)), 0.0, h ** shape)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("dist", [Distribution.lognormal(-0.125, 0.5),
                                  Distribution.lognormal(0.0, 1.5),
                                  Distribution.pareto(3.0, 2.0 / 3.0),
                                  Distribution.pareto(0.5, 1.0)],
                         ids=["lognormal", "lognormal_wide", "pareto",
                              "pareto_heavy"])
@pytest.mark.parametrize("q", [-0.01, -0.5, -4.0])
def test_quad_heavy_tail_mgf_on_the_half_line(dist, q):
    f = lambda x: np.exp(q * x) * dist.pdf(x)
    lo = dist.support()[0]
    want = _scipy(lambda x: float(f(x)), lo, math.inf)
    assert quad(f, lo, math.inf, 1e-12, 1e-12, 500) == pytest.approx(
        want, rel=1e-11)
    assert dist.mgf(q) == pytest.approx(want, rel=1e-11)


def _wiggle(x):
    return np.sin(1e6 * np.asarray(x))


def test_cap_warns_in_expect():
    with pytest.warns(NumericsWarning, match="cap"):
        Distribution.uniform(0.0, 1.0).expect(lambda v: float(_wiggle(v)))


def test_cap_warns_in_gap_quadrature():
    with pytest.warns(NumericsWarning, match="cap"):
        _quad(_wiggle, 0.0, 1.0)


def test_cap_warns_in_piecewise_phi(monkeypatch):
    # the tilted tau density, summed over cells, is all that varies in r
    regime = RegimeSpec.piecewise(0.25, Distribution.deterministic(0.06),
                                  Distribution.deterministic(0.2))
    monkeypatch.setattr(Distribution, "pdf",
                        lambda self, x: 1.0 + 0.5 * _wiggle(x))
    with pytest.warns(NumericsWarning, match="cap"):
        phi_nu_piecewise(regime, Distribution.uniform(0.5, 1.5), 1.0)


def test_pointwise_calls_once_per_node_with_floats():
    seen = []
    f = pointwise(lambda v: seen.append(type(v)) or 2.0 * v)
    assert f(np.array([0.5, 1.5])).tolist() == [1.0, 3.0]
    assert seen == [float, float]
