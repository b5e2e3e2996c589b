import math

import numpy as np
import pytest

from ruinlab import (Distribution, ModelConfig, PremiumSpec, RegimeSpec,
                     RngStreams, ThetaLaw)
from oracles import (draw_regime, embedded_step, simulate_chain,
                     simulate_continuous)


def make_cfg(premium=None, tau=None, claim=None):
    return ModelConfig(
        claim_dist=claim or Distribution.exponential(1.0),
        interarrival_dist=tau or Distribution.exponential(1.0),
        premium=premium or PremiumSpec(0.1),
        regime=RegimeSpec.constant(ThetaLaw.point_mass(0.06, 0.02)))


class TestEmbeddedStep:
    def test_zero_premium_gives_minus_claim(self):
        cfg = make_cfg(premium=PremiumSpec())
        draw = draw_regime(cfg, 1, grid_step=0.01)
        step = embedded_step(draw, 2.5, cfg.premium, 0.0)
        assert step.zeta == -2.5
        assert step.premium_integral == 0.0

    def test_internal_consistency(self):
        cfg = make_cfg()
        streams = RngStreams.from_seed(2)
        for _ in range(20):
            draw = draw_regime(cfg, streams, grid_step=0.01)
            step = embedded_step(draw, 1.0, cfg.premium, 0.0)
            assert step.lam == pytest.approx(math.exp(-step.nu), rel=1e-15)
            assert step.nu == pytest.approx(-(step.k_total + step.z_total),
                                            rel=1e-12)
            # constant coefficients: K = (mu - sigma^2/2) tau exactly
            assert step.k_total == pytest.approx(0.04 * draw.tau, rel=1e-9)
            # premium-capped increment bound on the same draw
            assert step.zeta <= cfg.premium.c * step.exp_integral - 1.0 + 1e-12
            assert step.zeta >= -1.0

    def test_lambda_lognormal_mean_oracle(self):
        # point regime (0.06, 0.02), tau = 1: E lam = exp(0.04 + 0.04/2)
        cfg = make_cfg(tau=Distribution.deterministic(1.0))
        streams = RngStreams.from_seed(3)
        lams = np.array([
            embedded_step(draw_regime(cfg, streams, grid_step=0.05), 1.0,
                          cfg.premium, 0.0).lam
            for _ in range(50_000)])
        se = lams.std(ddof=1) / math.sqrt(len(lams))
        assert abs(lams.mean() - math.exp(0.06)) < 4 * se

    def test_nu_mean_matches_minus_ek(self):
        cfg = make_cfg(tau=Distribution.deterministic(1.0))
        streams = RngStreams.from_seed(4)
        nus = np.array([
            embedded_step(draw_regime(cfg, streams, grid_step=0.05), 1.0,
                          cfg.premium, 0.0).nu
            for _ in range(50_000)])
        se = nus.std(ddof=1) / math.sqrt(len(nus))
        assert abs(nus.mean() - (-0.04)) < 4 * se
        assert nus.mean() < 0


class TestChain:
    def test_ruin_at_step_one_from_zero(self):
        cfg = make_cfg(premium=PremiumSpec())
        traj = simulate_chain(0.0, cfg, max_steps=10, barrier_multiple=1e3,
                              rng=5, grid_step=0.05)
        assert traj.ruin_index == 1
        assert traj.stopped_reason == "ruin"

    def test_zero_claims_never_ruin(self):
        cfg = make_cfg(premium=PremiumSpec(),
                       claim=Distribution.deterministic(0.0))
        traj = simulate_chain(5.0, cfg, max_steps=500, barrier_multiple=10.0,
                              rng=6, grid_step=0.05)
        assert traj.ruin_index is None
        assert traj.stopped_reason in ("barrier", "max_steps")
        assert np.all(traj.values > 0)

    def test_iterated_form_identity(self):
        # stepwise S_n equals Lam_n u + Lam_n sum_k Lam_k^{-1} zeta_k
        cfg = make_cfg()
        streams = RngStreams.from_seed(7)
        for _ in range(200):
            u = 3.0
            traj = simulate_chain(u, cfg, max_steps=50, barrier_multiple=1e9,
                                  rng=streams, record_steps=True,
                                  grid_step=0.02)
            lams = np.array([s.lam for s in traj.steps])
            zetas = np.array([s.zeta for s in traj.steps])
            big_lam = np.cumprod(lams)
            inner = np.cumsum(zetas / big_lam)
            closed = big_lam * u + big_lam * inner
            assert np.allclose(closed, traj.values[1:], rtol=1e-9, atol=1e-12)

    def test_monotone_in_initial_reserve(self):
        cfg = make_cfg()
        t1 = simulate_chain(2.0, cfg, 40, 1e9, rng=8, grid_step=0.05)
        t2 = simulate_chain(5.0, cfg, 40, 1e9, rng=8, grid_step=0.05)
        n = min(len(t1.values), len(t2.values))
        assert np.all(t1.values[:n] <= t2.values[:n] + 1e-12)

    def test_linearity_under_monetary_scaling(self):
        cfg = make_cfg()
        base = simulate_chain(3.0, cfg, 60, 1e6, rng=9, grid_step=0.05)
        doubled = simulate_chain(6.0, cfg.scaled(2.0), 60, 1e6, rng=9,
                                 grid_step=0.05)
        n = min(len(base.values), len(doubled.values))
        assert np.array_equal(2.0 * base.values[:n], doubled.values[:n])
        assert base.stopped_reason == doubled.stopped_reason


class TestContinuous:
    def test_positive_between_claims(self):
        cfg = make_cfg(claim=Distribution.deterministic(0.0))
        res = simulate_continuous(4.0, cfg, horizon=20.0, rng=10,
                                  grid_step=0.01)
        assert not res.ruined
        assert res.min_value > 0

    def test_matches_chain_at_claim_times(self):
        cfg = make_cfg()
        traj = simulate_chain(20.0, cfg, max_steps=40, barrier_multiple=1e9,
                              rng=12, record_steps=True)
        cont = simulate_continuous(20.0, cfg, horizon=80.0, rng=12)
        n = min(len(traj.values) - 1, cont.n_claims)
        assert n >= 20
        chain_vals = traj.values[1:n + 1]
        diff = np.abs(chain_vals - cont.claim_time_values[:n])
        assert np.all(diff <= 1e-6 * (1.0 + np.abs(chain_vals)))

    def test_indicator_agreement(self):
        # ruin can only happen at claim times, so paired indicators agree
        cfg = make_cfg()
        agree = 0
        n_paths = 300
        for seed in range(n_paths):
            traj = simulate_chain(3.0, cfg, max_steps=120,
                                  barrier_multiple=1e9, rng=seed,
                                  grid_step=1e-2)
            cont = simulate_continuous(3.0, cfg, horizon=130.0, rng=seed,
                                       grid_step=1e-2)
            chain_ruined = traj.stopped_reason == "ruin"
            n_common = min(len(traj.values) - 1, cont.n_claims)
            cont_ruined_by_then = (cont.ruined
                                   and cont.n_claims <= n_common)
            if chain_ruined == cont_ruined_by_then:
                agree += 1
        assert agree / n_paths >= 0.99
