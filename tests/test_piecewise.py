"""The step-multiplier transform of piecewise regimes in closed form."""

import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from ruinlab import (Distribution, DistributionError, RegimeSpec, ThetaLaw,
                     lundberg_report, phi_nu_analytic, phi_nu_piecewise,
                     sample_nu)
from ruinlab.engine import StepKernel
from ruinlab.lundberg import _cell_mgf, _cell_root
from oracles import phi_nu_mc
from test_ruin import piecewise_cfg

MU = Distribution.uniform(0.05, 0.07)
# h -> 0 limit of beta: 2 E mu / E sigma^2 - 1 with sigma ~ U(0.15, 0.25)
BETA_LIMIT = 2.0 * 0.06 / ((0.15 ** 2 + 0.15 * 0.25 + 0.25 ** 2) / 3.0) - 1.0
Q_NU = 7.95932326155        # the test config with Exp(1) inter-arrivals
TAUS = {
    "exp": Distribution.exponential(1.0),
    "gamma_half": Distribution.gamma(0.5, 2.0),
    "gamma_two": Distribution.gamma(2.0, 0.5),
    "uniform": Distribution.uniform(0.2, 1.8),
    "deterministic": Distribution.deterministic(1.0),
    "discrete": Distribution.discrete([(0.3, 0.5), (1.7, 0.5)]),
    "lognormal": Distribution.lognormal(-0.5, 1.0),
}


@pytest.fixture
def no_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the exact route drew Monte Carlo samples")

    monkeypatch.setattr(StepKernel, "sample", refuse)


def test_report_on_test_config(no_sampling):
    start = time.process_time()
    rep = lundberg_report(piecewise_cfg(), tol=1e-10)
    assert time.process_time() - start < 1.0
    assert rep.status == "root"
    assert abs(rep.beta - 1.93512132) <= 1e-8
    assert rep.q_nu == pytest.approx(Q_NU, rel=1e-9)
    assert rep.phi_at_endpoint == math.inf


def test_gamma_shape_below_one_report_is_fast(no_sampling):
    # Gamma(0.5) tau has a density flat in r^0.5; integrated in r instead,
    # a call took 45 ms of CPU and the report 4 s
    cfg = replace(piecewise_cfg(), interarrival_dist=TAUS["gamma_half"])
    start = time.process_time()
    rep = lundberg_report(cfg, tol=1e-10)
    assert time.process_time() - start < 1.0
    assert rep.status == "root" and rep.phi_at_endpoint == math.inf


def test_lognormal_interarrivals_have_no_root(no_sampling):
    # q_tau = 0: phi_nu stays below 1 up to q_nu and is infinite beyond
    cfg = replace(piecewise_cfg(), interarrival_dist=TAUS["lognormal"])
    rep = lundberg_report(cfg, tol=1e-10)
    assert rep.status == "no_root" and rep.beta is None
    assert rep.q_nu == pytest.approx(1.9349632678, rel=1e-9)
    assert rep.phi_at_endpoint < 1.0
    assert phi_nu_piecewise(cfg.regime, cfg.interarrival_dist,
                            rep.q_nu * (1.0 + 1e-9)) == math.inf


@pytest.mark.parametrize("tau", [TAUS[k] for k in
                                 ("uniform", "deterministic", "discrete")],
                         ids=["uniform", "deterministic", "discrete"])
def test_one_cell_matches_constant_regime(tau):
    # with h >= sup tau every interval is one cell, so the regime is the
    # constant product law of (mu, sigma^2/2)
    sigma = Distribution.discrete([(0.15, 0.3), (0.25, 0.7)])
    regime = RegimeSpec.piecewise(2.0, MU, sigma)
    theta = ThetaLaw.product(MU, Distribution.discrete(
        [(0.15 ** 2 / 2.0, 0.3), (0.25 ** 2 / 2.0, 0.7)]))
    for q in (0.5, 2.0, 5.0):
        assert phi_nu_piecewise(regime, tau, q) == pytest.approx(
            phi_nu_analytic(theta, tau, q), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("tau", list(TAUS.values()), ids=list(TAUS))
def test_matches_monte_carlo(tau):
    cfg = replace(piecewise_cfg(), interarrival_dist=tau)
    q_tau = tau.mgf_endpoint().q_max
    q_nu = _cell_root(cfg.regime, q_tau) if q_tau < math.inf else math.inf
    nu = sample_nu(cfg, 1 << 20, 11)
    for frac in (0.1, 0.25, 0.45):      # 2q < q_nu: e^{q nu} has a variance
        q = frac * min(q_nu, 4.0)
        est, se = phi_nu_mc(cfg, q, len(nu), 11, nu=nu)
        assert abs(phi_nu_piecewise(cfg.regime, tau, q) - est) <= 4.0 * se


def test_beta_deficit_is_first_order_in_h():
    betas = [lundberg_report(replace(piecewise_cfg(), regime=replace(
        piecewise_cfg().regime, h=h)), tol=1e-12).beta
        for h in (1 / 4, 1 / 8, 1 / 16, 1 / 32)]
    deficit = BETA_LIMIT - np.array(betas)
    assert np.all(deficit > 0.0)
    ratios = deficit[:-1] / deficit[1:]
    assert np.all((1.9 <= ratios) & (ratios <= 2.1)), ratios


@pytest.mark.parametrize("tau", [TAUS[k] for k in
                                 ("exp", "gamma_half", "gamma_two")],
                         ids=["exp", "gamma_half", "gamma_two"])
def test_finite_and_increasing_near_q_nu(tau):
    regime = piecewise_cfg().regime
    q_nu = _cell_root(regime, tau.mgf_endpoint().q_max)
    values = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-9):
        q = q_nu * (1.0 - eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = time.process_time()
            value = phi_nu_piecewise(regime, tau, q)
            assert time.process_time() - start < 0.1
        assert math.isfinite(value)
        if tau.kind == "exponential":
            # the geometric cell sum of Exp(1) tau in closed form
            m = lambda w: _cell_mgf(regime, q, w)
            head = integrate.quad(lambda s: math.exp(-s) * m(s), 0.0,
                                  regime.h, epsabs=0.0, epsrel=1e-13)[0]
            tail = -math.expm1(math.log(m(regime.h)) - regime.h)
            assert value == pytest.approx(head / tail, rel=1e-9, abs=0.0)
        values.append(value)
    assert values == sorted(values) and len(set(values)) == 4
    assert phi_nu_piecewise(regime, tau, q_nu) == math.inf


def test_unbounded_sigma_law_rejected():
    regime = RegimeSpec.piecewise(0.25, MU, Distribution.gamma(2.0, 0.1))
    with pytest.raises(DistributionError, match="bounded sigma"):
        phi_nu_piecewise(regime, TAUS["exp"], 1.0)
