import math

import numpy as np
import pytest

from ruinlab import (Distribution, DistributionError, HypothesisViolation,
                     ModelConfig, PremiumSpec, RegimeSpec, RngStreams,
                     ThetaLaw)
from ruinlab.theta import zeta_regime_law
from oracles import draw_claim, draw_regime
from test_ruin import piecewise_cfg


def beta2_cfg(**overrides):
    kw = dict(
        claim_dist=Distribution.exponential(1.0),
        interarrival_dist=Distribution.exponential(1.0),
        premium=PremiumSpec(0.1),
        regime=RegimeSpec.constant(ThetaLaw.point_mass(0.06, 0.02)))
    kw.update(overrides)
    return ModelConfig(**kw)


class TestValidation:
    def test_interarrival_must_be_positive(self):
        with pytest.raises(DistributionError):
            beta2_cfg(interarrival_dist=Distribution.deterministic(0.0))

    def test_pareto_only_for_claims(self):
        with pytest.raises(DistributionError):
            beta2_cfg(interarrival_dist=Distribution.pareto(3.0, 1.0))
        beta2_cfg(claim_dist=Distribution.pareto(3.0, 1.0))  # allowed

    def test_fully_degenerate_volatility_rejected(self):
        with pytest.raises(DistributionError):
            beta2_cfg(regime=RegimeSpec.constant(ThetaLaw.point_mass(0.06, 0.0)))

    def test_premium_modes(self):
        assert PremiumSpec().rate(3.0) == 0.0
        assert PremiumSpec(0.1).integral(1.0, 3.0) == pytest.approx(0.2, rel=1e-12)
        with pytest.raises(DistributionError):
            PremiumSpec(1.0, 0.5)  # growth not allowed
        with pytest.raises(DistributionError):
            PremiumSpec(-0.1)
        p = PremiumSpec(1.0, -0.5)
        assert p.integral(0.0, 2.0) == pytest.approx(
            (1.0 / -0.5) * (math.exp(-1.0) - 1.0), rel=1e-12)


class TestBounds:
    """(mu_lower, sigma_bar^2/2) are read off the regime's laws."""

    def test_point_mass(self):
        assert beta2_cfg().regime_bounds() == (0.06, 0.02)

    def test_zeta_law(self):
        cfg = beta2_cfg(regime=RegimeSpec.constant(zeta_regime_law(4)))
        assert cfg.regime_bounds() == (0.0, 1.0)

    def test_uniform_product_box(self):
        law = ThetaLaw.product(Distribution.uniform(0.1, 0.3),
                               Distribution.uniform(0.01, 0.05))
        assert beta2_cfg(regime=RegimeSpec.constant(law)).regime_bounds() == (
            0.1, 0.05)

    def test_piecewise_node_laws(self):
        assert piecewise_cfg().regime_bounds() == (0.05, 0.03125)


class TestDrift:
    def test_ek_constant_mode(self):
        # E K = E(mu - sigma^2/2) E tau
        assert beta2_cfg().expected_log_drift() == pytest.approx(0.04, rel=1e-12)
        assert beta2_cfg().expected_log_drift() > 0.0

    def test_ek_negative_raises_on_demand(self):
        cfg = beta2_cfg(regime=RegimeSpec.constant(ThetaLaw.point_mass(0.01, 0.02)))
        assert cfg.expected_log_drift() < 0.0
        with pytest.raises(HypothesisViolation) as err:
            cfg.require_positive_drift()
        assert err.value.condition == "mean_drift_positive"

    def test_classical_has_no_drift_notion(self):
        # without investment every multiplier is 1: no walk, no exponent
        cfg = beta2_cfg(regime=None, premium=PremiumSpec(0.1))
        assert cfg.expected_log_drift() == 0.0
        with pytest.raises(HypothesisViolation) as err:
            cfg.require_positive_drift()
        assert err.value.condition == "mean_drift_positive"


class TestDraws:
    def test_point_mass_regime_paths(self):
        cfg = beta2_cfg(interarrival_dist=Distribution.deterministic(1.0))
        draw = draw_regime(cfg, 3)
        assert draw.tau == 1.0
        assert np.all(draw.mu == 0.06)
        assert np.allclose(draw.sigma, 0.2)
        assert draw.node_times[-1] == pytest.approx(1.0)
        assert not draw.coarse

    def test_coarse_grid_flag(self):
        cfg = beta2_cfg(interarrival_dist=Distribution.deterministic(2.0))
        assert draw_regime(cfg, 0, grid_step=1.0).coarse

    def test_seeded_determinism(self):
        cfg = beta2_cfg()
        a = draw_regime(cfg, RngStreams.from_seed(9))
        b = draw_regime(cfg, RngStreams.from_seed(9))
        assert a.tau == b.tau
        assert np.array_equal(a.dW, b.dW)

    def test_wiener_increment_variance(self):
        cfg = beta2_cfg(interarrival_dist=Distribution.deterministic(1.0))
        streams = RngStreams.from_seed(4)
        incs = np.concatenate([draw_regime(cfg, streams, grid_step=0.01).dW
                               for _ in range(200)])
        assert abs(incs.var() - 0.01) < 0.001

    def test_claim_stream_isolated_from_regime(self):
        # changing the regime law must not perturb the claim draws
        s1, s2 = RngStreams.from_seed(5), RngStreams.from_seed(5)
        cfg1 = beta2_cfg()
        cfg2 = beta2_cfg(regime=RegimeSpec.constant(ThetaLaw.finite(
            [((0.05, 0.01), 0.5), ((0.09, 0.015), 0.5)])))
        claims1 = [draw_claim(cfg1, s1) for _ in range(50)]
        for _ in range(50):
            draw_regime(cfg2, s2)
        claims2 = [draw_claim(cfg2, s2) for _ in range(50)]
        assert claims1 == claims2

    def test_claim_nu_independence(self):
        # empirical correlation between claim draws and nu draws ~ 0
        from ruinlab import sample_nu
        cfg = beta2_cfg()
        streams = RngStreams.from_seed(6)
        n = 100_000
        nu = sample_nu(cfg, n, streams)
        claims = cfg.claim_dist.sample(streams.claims, n)
        corr = np.corrcoef(nu, claims)[0, 1]
        assert abs(corr) < 0.02

    def test_piecewise_regime_draw(self):
        cfg = beta2_cfg(
            regime=RegimeSpec.piecewise(
                0.05, Distribution.uniform(0.03, 0.08),
                Distribution.uniform(0.1, 0.2)),
            interarrival_dist=Distribution.deterministic(0.5))
        draw = draw_regime(cfg, 11)
        assert draw.n_cells == 10
        assert np.all((draw.mu >= 0.03) & (draw.mu <= 0.08))
        assert np.all((draw.sigma > 0) & (draw.sigma <= 0.2))
        assert len(set(draw.mu.tolist())) > 1  # per-node redraws


class TestScaling:
    def test_monetary_scaling(self):
        cfg = beta2_cfg()
        scaled = cfg.scaled(2.0)
        assert scaled.claim_dist.params[0] == 0.5
        assert scaled.premium.c == 0.2
        # regime and time scales untouched
        assert scaled.regime == cfg.regime
        assert scaled.interarrival_dist == cfg.interarrival_dist
