"""Countable-theta sums against 60-digit closed forms of the zeta family.

With Theta_j = (1/j, 1 - 1/j), p_j = j^-p / zeta(p) and tau ~ Exp(1),
<u(q), Theta_j> = A - B/j with A = q(q+1), B = q(q+2), so

    phi_nu(q) = S_{p-1}(c) / ((1 - A) zeta(p)),   c = B / (1 - A),

where S_n(c) = sum_j j^-n / (j + c): S_1(c) = (psi(1 + c) + gamma) / c and
S_n = (zeta(n) - S_{n-1}) / c.  At q_plus (A = 1, B = 1 + q_plus) the gap is
h_j = B/j and phi_tau(1 - h) = h^-k for tau ~ Gamma(k, 1), so the endpoint
value is zeta(p - k) / ((1 + q_plus)^k zeta(p)).
"""

import math

import mpmath as mp
import numpy as np
import pytest

from ruinlab import (EstimationError, classify_endpoint, lundberg_report,
                     phi_nu_analytic, q_plus_compute, zeta_regime_law)
from ruinlab.lundberg import _inner, _touch_values
from ruinlab.theta import SERIES_HEAD, countable_sum
from test_lundberg import (EXP1, FALLING_SERIES, GAMMA2, flat_series,
                           zeta_cfg)

mp.mp.dps = 60
Q_PLUS = mp.findroot(lambda q: q * (q + 1) - 1, 0.6)
QP = float(Q_PLUS)
Q_GRID = (0.05, 0.1, 0.3, 0.5, 0.58, 0.6, 0.615, QP * (1.0 - 1e-6))


def _s(n, c):
    s = (mp.digamma(1 + c) + mp.euler) / c
    for m in range(2, n + 1):
        s = (mp.zeta(m) - s) / c
    return s


def phi_exact(p, q, a=None):
    """Closed-form phi_nu; ``a`` overrides A = q(q+1) (B = A + q)."""
    q = mp.mpf(q)
    a = q * (q + 1) if a is None else mp.mpf(a)
    c = (a + q) / (1 - a)
    return _s(p - 1, c) / ((1 - a) * mp.zeta(p))


def endpoint_exact(p, k=1):
    """zeta(p - k) / ((1 + q_plus)^k zeta(p))."""
    return mp.zeta(p - k) / ((1 + Q_PLUS) ** k * mp.zeta(p))


def rel(x, ref):
    return float(abs((mp.mpf(x) - ref) / ref))


@pytest.mark.parametrize("q", [0.58, 0.6, 0.61, 0.615])
def test_phi_nu_p2_closes_below_q_plus(q):
    # the atom-by-atom sum raised EstimationError here: the 1/j tail could
    # not close before 2^22 atoms
    got = phi_nu_analytic(zeta_regime_law(2), EXP1, q)
    assert rel(got, phi_exact(2, q)) <= 1e-12
    if q == 0.58:   # the closed form rounds to 1.4177097833891712
        assert abs(got - 1.4177097833891712) <= math.ulp(got)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_phi_nu_matches_closed_form(p):
    law = zeta_regime_law(p)
    for q in Q_GRID:
        got = phi_nu_analytic(law, EXP1, q)
        # the sum itself, at the coefficient the code forms: A = fl(q(q+1))
        assert rel(got, phi_exact(p, q, a=q * (q + 1.0))) <= 1e-12, q
        if q <= 0.615 or p > 2:
            assert rel(got, phi_exact(p, q)) <= 1e-12, q


def test_phi_nu_p2_near_q_plus_is_conditioned_by_the_last_bit_of_a():
    # 1 - A is 1.4e-6 at q_plus (1 - 1e-6), so the 7e-17 rounding of
    # q(q+1) moves phi_nu by 3.6e-12; the float-A closed form absorbs it
    q = QP * (1.0 - 1e-6)
    got = phi_nu_analytic(zeta_regime_law(2), EXP1, q)
    shift = rel(phi_exact(2, q, a=q * (q + 1.0)), phi_exact(2, q))
    assert rel(got, phi_exact(2, q)) <= shift + 1e-12
    q = QP * (1.0 - 1e-9)
    got = phi_nu_analytic(zeta_regime_law(2), EXP1, q)
    assert math.isfinite(got)
    assert rel(got, phi_exact(2, q)) <= 1e-8


@pytest.mark.parametrize("p", [3, 4, 5])
def test_endpoint_value(p):
    verdict = classify_endpoint(q_plus_compute(zeta_regime_law(p), 1.0),
                                EXP1)
    assert verdict.verdict == "endpoint_finite"
    assert not verdict.inconclusive
    assert rel(verdict.integral_value, endpoint_exact(p)) <= 1e-12


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_zeta_mean(p):
    ratio = mp.zeta(p + 1) / mp.zeta(p)
    e_mu, e_hs = zeta_regime_law(p).mean()
    assert rel(e_mu, ratio) <= 1e-14
    assert rel(e_hs, 1 - ratio) <= 1e-14


def test_gamma_interarrivals_shift_the_dichotomy():
    # Gamma(2, 1) has a pole of order 2, so the terms decay like j^(2 - p)
    geom = q_plus_compute(zeta_regime_law(3), 1.0)
    verdict = classify_endpoint(geom, GAMMA2)
    assert verdict.verdict == "endpoint_infinite"
    assert not verdict.inconclusive
    geom = q_plus_compute(zeta_regime_law(4), 1.0)
    verdict = classify_endpoint(geom, GAMMA2)
    assert verdict.verdict == "endpoint_finite"
    assert rel(verdict.integral_value, endpoint_exact(4, k=2)) <= 1e-12


def test_zeta_dichotomy_and_root():
    for p in (3, 4, 5):
        rep = lundberg_report(zeta_cfg(p))
        assert rep.status == "no_root"
        assert rel(rep.phi_at_endpoint, endpoint_exact(p)) <= 1e-12
    rep = lundberg_report(zeta_cfg(2))
    assert rep.phi_at_endpoint == math.inf
    beta = mp.findroot(lambda q: phi_exact(2, q) - 1, 0.4088)
    assert abs(rep.beta - beta) <= 1e-14
    assert abs(beta - mp.mpf("0.408809892850221")) <= 1e-15


def test_countable_sum_on_plain_series():
    total = math.fsum(countable_sum(lambda j: 1.0 / (j * (j + 1.0))))
    assert total == pytest.approx(1.0, rel=1e-15)
    assert rel(math.fsum(countable_sum(lambda j: j ** -1.5)),
               mp.zeta(1.5)) <= 1e-13
    with pytest.raises(EstimationError):
        countable_sum(lambda j: 1.0 / j)


def _probe(law, n):
    """The atom rows j = 1, ..., n and then the limit points."""
    j = np.arange(1.0, n + 1.0)
    return np.vstack([np.column_stack(law.point_fn(j)),
                      np.reshape(law.limit_points, (-1, 2))])


@pytest.mark.parametrize("law", [
    zeta_regime_law(2), zeta_regime_law(3), zeta_regime_law(4),
    zeta_regime_law(5), flat_series(0.5), flat_series(0.25, [(0.0, 0.5)]),
    FALLING_SERIES],
    ids=["zeta2", "zeta3", "zeta4", "zeta5", "flat", "flat_below_limit",
         "falling"])
def test_head_candidates_match_full_probe(law):
    # the head atoms and limit points give every bit a scan of the first
    # 100,000 atoms gave: first touch, touching points, box, top levels
    pts, ref = law.candidate_points(), _probe(law, 100_000)
    assert np.array_equal(pts, np.vstack([ref[:SERIES_HEAD - 1],
                                          ref[100_000:]]))
    q_plus = float(np.min(_touch_values(*pts.T, 1.0)))
    assert q_plus == float(np.min(_touch_values(*ref.T, 1.0)))
    levels = _inner(q_plus, *ref.T)
    on_line = np.abs(levels - 1.0) <= 1e-12
    assert (q_plus_compute(law, 1.0).touching_points
            == tuple(dict.fromkeys(map(tuple, ref[on_line].tolist()))))
    mu, hs = ref.T
    assert law.support_box == (mu.min(), mu.max(), hs.min(), hs.max())
    # the contract of ThetaLaw.countable, out to a million atoms
    far = _probe(law, 10 ** 6)
    for q in q_plus * np.array([1e-6, 0.3, 0.9, 1.0 - 1e-8, 1.0]):
        top = np.max(_inner(q, *pts.T))
        assert top == np.max(_inner(q, *ref.T))
        assert np.max(_inner(q, *far.T)) <= top
