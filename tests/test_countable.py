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
from ruinlab.theta import countable_sum
from test_lundberg import EXP1, GAMMA2, zeta_cfg

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
def test_endpoint_value_and_near_part(p):
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


def test_candidate_points_scanned_once_per_law():
    law = zeta_regime_law(2)
    pts = law.candidate_points()
    for q in (0.1, 0.3):
        phi_nu_analytic(law, EXP1, q)
    assert law.candidate_points() is pts
    assert not pts.flags.writeable
    assert np.array_equal(law.candidate_points(j_probe=100), pts[:100].tolist()
                          + [[0.0, 1.0]])
