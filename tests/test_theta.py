import numpy as np
import pytest
from scipy.special import zeta

from ruinlab import Distribution, DistributionError, ThetaLaw, zeta_regime_law


def test_finite_validation():
    with pytest.raises(DistributionError):
        ThetaLaw.finite([((0.0, 1.0), 0.5)])
    law = ThetaLaw.finite([((0.06, 0.02), 1.0)])
    assert law.is_point_mass
    assert law.mean() == (0.06, 0.02)


def test_finite_sampling_frequencies():
    law = ThetaLaw.finite([((0.0, 1.0), 0.25), ((1.0, 0.5), 0.75)])
    mu, hs = law.sample(np.random.default_rng(0), 100_000)
    assert abs((mu == 0.0).mean() - 0.25) < 0.01
    assert abs(hs[mu == 1.0].mean() - 0.5) < 1e-12


def test_polytope_uniform_moments():
    square = ThetaLaw.polytope_uniform([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert square.mean() == pytest.approx((0.5, 0.5), abs=1e-12)
    mu, hs = square.sample(np.random.default_rng(1), 200_000)
    assert abs(mu.mean() - 0.5) < 0.005
    assert abs(np.var(mu) - 1.0 / 12.0) < 0.002
    assert mu.min() >= 0.0 and mu.max() <= 1.0


def test_polytope_vertex_ordering_irrelevant():
    a = ThetaLaw.polytope_uniform([(0, 0), (1, 1), (1, 0), (0, 1)])
    b = ThetaLaw.polytope_uniform([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert set(a.vertices) == set(b.vertices)
    assert a.mean() == pytest.approx(b.mean(), abs=1e-12)


def test_product_law():
    law = ThetaLaw.product(Distribution.uniform(0.0, 0.1),
                           Distribution.deterministic(0.02))
    mu, hs = law.sample(np.random.default_rng(2), 1000)
    assert np.all(hs == 0.02)
    assert law.support_box == (0.0, 0.1, 0.02, 0.02)


def test_zeta_family_probabilities_and_points():
    p = 4
    law = zeta_regime_law(p)
    j = np.arange(1.0, 6.0)
    probs = law.prob_fn(j)
    assert probs[0] == pytest.approx(1.0 / zeta(p, 1), rel=1e-12)
    mu, hs = law.point_fn(j)
    assert mu[2] == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert hs[2] == pytest.approx(2.0 / 3.0, rel=1e-15)
    # sampled index frequencies match the weights
    draws = law.index_sampler(np.random.default_rng(3), 200_000)
    freq1 = np.mean(np.asarray(draws) == 1)
    assert abs(freq1 - probs[0]) < 0.005
    # mean sits close to the atom-weighted value
    e_mu, e_hs = law.mean()
    assert e_mu == pytest.approx(zeta(p + 1, 1) / zeta(p, 1), rel=1e-6)
    assert e_hs == pytest.approx(1.0 - e_mu, rel=1e-6)


def test_zeta_family_needs_p_at_least_2():
    with pytest.raises(DistributionError):
        zeta_regime_law(1)


def test_countable_candidate_points_include_limit():
    # the head atoms j = 1, ..., 255, then the limit point
    pts = zeta_regime_law(3).candidate_points()
    assert pts.shape == (256, 2)
    assert pts[0].tolist() == [1.0, 0.0]
    assert pts[-1].tolist() == [0.0, 1.0]
