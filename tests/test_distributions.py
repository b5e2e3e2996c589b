import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from ruinlab import Distribution, DistributionError


def quad_mgf(dist, q):
    """Independent oracle: direct quadrature of E exp(qV), in log space so
    huge-x evaluations underflow cleanly instead of overflowing."""
    lo, hi = dist.support()

    def integrand(x):
        pdf = float(dist.pdf(x))
        if pdf <= 0.0:
            return 0.0
        arg = q * x + math.log(pdf)
        return math.exp(arg) if arg < 700.0 else math.inf

    val, _ = integrate.quad(integrand, lo, hi, epsabs=1e-12, limit=400)
    return val


def quad_moment(dist, p):
    lo, hi = dist.support()
    val, _ = integrate.quad(lambda x: x ** p * float(dist.pdf(x)),
                            lo, hi, epsabs=1e-12, limit=400)
    return val


ALL_KINDS = [
    Distribution.exponential(1.0),
    Distribution.gamma(2.0, 1.0),
    Distribution.deterministic(3.5),
    Distribution.uniform(0.5, 2.0),
    Distribution.discrete([(1.0, 0.25), (2.0, 0.5), (5.0, 0.25)]),
    Distribution.lognormal(0.0, 0.5),
    Distribution.pareto(3.0, 1.0),
]


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(DistributionError):
            Distribution.exponential(0.0)
        with pytest.raises(DistributionError):
            Distribution.uniform(2.0, 1.0)
        with pytest.raises(DistributionError):
            Distribution.discrete([(1.0, 0.5)])
        with pytest.raises(DistributionError):
            Distribution.gamma(-1.0, 1.0)

    def test_discrete_ties_merged(self):
        d = Distribution.discrete([(2.0, 0.3), (2.0, 0.2), (1.0, 0.5)])
        values, probs = d.params
        assert values == (1.0, 2.0)
        assert probs == (0.5, 0.5)


class TestSample:
    def test_deterministic_point_mass(self):
        d = Distribution.deterministic(3.5)
        rng = np.random.default_rng(0)
        assert d.sample(rng) == 3.5

    def test_single_atom(self):
        d = Distribution.discrete([(2.0, 1.0)])
        assert d.sample(np.random.default_rng(1)) == 2.0

    def test_exponential_lln(self):
        # law-of-large-numbers oracle: mean of 1e6 unit-rate draws
        d = Distribution.exponential(1.0)
        x = d.sample(np.random.default_rng(42), 1_000_000)
        assert abs(x.mean() - 1.0) < 0.01

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.kind)
    def test_seeded_determinism(self, dist):
        a = dist.sample(np.random.default_rng(7), 5)
        b = dist.sample(np.random.default_rng(7), 5)
        assert np.array_equal(np.asarray(a), np.asarray(b))

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.kind)
    def test_scaling_equivariance(self, dist):
        k = 2.0
        a = np.asarray(dist.sample(np.random.default_rng(3), 1000))
        b = np.asarray(dist.scaled(k).sample(np.random.default_rng(3), 1000))
        assert np.allclose(b, k * a, rtol=1e-12)


class TestMgf:
    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.kind)
    def test_mgf_at_zero_is_one(self, dist):
        assert dist.mgf(0.0) == 1.0

    def test_exponential_closed_form(self):
        assert Distribution.exponential(1.0).mgf(0.5) == pytest.approx(2.0, abs=1e-14)

    def test_gamma_closed_form_vs_quadrature(self):
        d = Distribution.gamma(2.0, 1.0)
        assert d.mgf(0.5) == pytest.approx(4.0, abs=1e-12)
        assert d.mgf(0.5) == pytest.approx(quad_mgf(d, 0.5), rel=1e-9)
        assert d.mgf(-1.0) == pytest.approx(quad_mgf(d, -1.0), rel=1e-9)

    def test_divergence_beyond_endpoint(self):
        assert Distribution.exponential(1.0).mgf(1.0) == math.inf
        assert Distribution.exponential(1.0).mgf(2.0) == math.inf
        assert Distribution.lognormal(0.0, 1.0).mgf(1e-9) == math.inf
        assert Distribution.pareto(3.0, 1.0).mgf(0.1) == math.inf

    def test_endpoints(self):
        ep = Distribution.exponential(1.0).mgf_endpoint()
        assert ep.q_max == 1.0 and math.isinf(ep.phi_value)
        assert Distribution.deterministic(2.0).mgf_endpoint().q_max == math.inf
        ep = Distribution.pareto(3.0, 1.0).mgf_endpoint()
        assert ep.q_max == 0.0 and ep.phi_value == 1.0 and ep.finite_at_endpoint
        ep = Distribution.gamma(3.0, 0.5).mgf_endpoint()
        assert ep.q_max == 2.0 and not ep.finite_at_endpoint

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.kind)
    def test_infinite_beyond_endpoint(self, dist):
        ep = dist.mgf_endpoint()
        if math.isfinite(ep.q_max):
            assert dist.mgf(ep.q_max + 0.25) == math.inf

    @pytest.mark.parametrize("dist", [
        Distribution.exponential(2.0),
        Distribution.gamma(2.0, 1.0),
        Distribution.uniform(0.0, 3.0),
        Distribution.discrete([(1.0, 0.7), (4.0, 0.3)]),
    ], ids=lambda d: d.kind)
    def test_convexity(self, dist):
        rng = np.random.default_rng(11)
        q_max = min(dist.mgf_endpoint().q_max, 4.0)
        for _ in range(50):
            q1, q2 = sorted(rng.uniform(-1.0, 0.95 * q_max, 2))
            t = rng.uniform(0.0, 1.0)
            lhs = dist.mgf(t * q1 + (1 - t) * q2)
            rhs = t * dist.mgf(q1) + (1 - t) * dist.mgf(q2)
            assert lhs <= rhs * (1.0 + 1e-9)

    @pytest.mark.parametrize("dist,q", [
        (Distribution.exponential(1.0), 0.5),
        (Distribution.gamma(2.0, 1.0), 0.3),
        (Distribution.uniform(0.5, 2.0), 1.0),
    ], ids=["exponential", "gamma", "uniform"])
    def test_monte_carlo_consistency(self, dist, q):
        # empirical mean of exp(qV) over 1e6 seeded draws within 4 SE
        x = np.exp(q * np.asarray(dist.sample(np.random.default_rng(5), 1_000_000)))
        se = x.std(ddof=1) / math.sqrt(len(x))
        assert abs(x.mean() - dist.mgf(q)) < 4.0 * se


def _exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def closed_form_mgf(dist, q):
    """Scalar oracle: each kind's transform written out with ``math``.

    The heavy-tailed kinds have no closed form for q < 0; there the oracle is
    the quadrature behind a float call of ``mgf``.
    """
    k, p = dist.kind, dist.params
    if q == 0.0:
        return 1.0
    if k == "exponential":
        return p[0] / (p[0] - q) if q < p[0] else math.inf
    if k == "gamma":
        shape, scale = p
        return (1.0 - q * scale) ** (-shape) if q < 1.0 / scale else math.inf
    if k == "deterministic":
        x = q * p[0]
        return math.exp(x) if x < 709.0 else math.inf
    if k == "uniform":
        lo, hi = p
        if abs(q) * max(abs(lo), abs(hi)) < 1e-8:
            return 1.0 + q * (lo + hi) / 2.0 + q * q * (hi * hi + hi * lo + lo * lo) / 6.0
        d = abs(q) * (hi - lo)
        return _exp(max(q * lo, q * hi)) * -math.expm1(-d) / d
    if k == "discrete":
        total = 0.0
        for v, w in zip(*p):
            if q * v > 709.0:
                return math.inf
            total += w * math.exp(q * v)
        return total
    return math.inf if q > 0 else dist.mgf(float(q))


def _discrete_law(atoms):
    total = sum(w for _, w in atoms)
    return Distribution.discrete([(v, w / total) for v, w in atoms])


LAWS = st.one_of(
    st.floats(0.1, 10.0).map(Distribution.exponential),
    st.tuples(st.floats(0.2, 5.0), st.floats(0.1, 3.0)).map(
        lambda a: Distribution.gamma(*a)),
    st.floats(-5.0, 5.0).map(Distribution.deterministic),
    st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 4.0)).map(
        lambda a: Distribution.uniform(a[0], a[0] + a[1])),
    st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.1, 1.0)),
             min_size=1, max_size=5).map(_discrete_law),
    st.sampled_from([Distribution.lognormal(0.0, 0.5),
                     Distribution.pareto(3.0, 1.0)]),
)


def _special_qs(dist):
    """q at, just below and just beyond the endpoint, the 709 overflow guard
    of the bounded kinds, and the series switch of the uniform law."""
    qs = [0.0, -0.0]
    q_max = dist.mgf_endpoint().q_max
    if math.isfinite(q_max):
        qs += [q_max, math.nextafter(q_max, -math.inf),
               math.nextafter(q_max, math.inf), 2.0 * q_max + 1.0]
    lo, hi = dist.support()
    v = max(abs(lo), abs(hi))
    if math.isfinite(v) and v > 0:
        for edge in (709.0 / v, 1e-8 / v):
            qs += [edge, -edge, math.nextafter(edge, 0.0),
                   math.nextafter(edge, math.inf)]
    # an atom within 709/DBL_MAX of 0 overflows its edge; mgf takes finite q
    return [q for q in qs if math.isfinite(q)]


def _reach(dist):
    """Bound of the random q: three endpoints out, or past the 709 overflow
    guard of the bounded kinds, and finite for every law."""
    q_max = dist.mgf_endpoint().q_max
    lo, hi = dist.support()
    v = max(abs(lo), abs(hi))
    reach = (3.0 * q_max if math.isfinite(q_max) and q_max > 0
             else 750.0 / v if math.isfinite(v) and v > 0 else 3.0)
    return min(reach, sys.float_info.max)


def test_special_qs_finite_for_tiny_atom():
    # atoms 0 and -DBL_MIN once put 709/v = inf among the q, where mgf and
    # the closed form both computed inf * 0 = nan
    law = Distribution.discrete([(0.0, 0.5), (-2.2250738585072014e-308, 0.5)])
    assert all(math.isfinite(q) for q in _special_qs(law))
    assert math.isfinite(_reach(law))


@settings(max_examples=150, deadline=None)
@given(dist=LAWS, data=st.data())
def test_array_mgf_matches_scalar_closed_forms(dist, data):
    reach = _reach(dist)
    qs = data.draw(st.lists(st.one_of(st.sampled_from(_special_qs(dist)),
                                      st.floats(-reach, reach)),
                            min_size=1, max_size=12))
    got = dist.mgf(np.array(qs))
    assert isinstance(got, np.ndarray) and got.shape == (len(qs),)
    for q, g in zip(qs, got.tolist()):
        want = closed_form_mgf(dist, q)
        scalar = dist.mgf(q)
        assert isinstance(scalar, float)
        # numpy's exp/pow may differ from libm (and between its own array
        # and scalar loops) by an ulp; division alone is exact everywhere
        for value in (g, scalar):
            if q == 0.0 or math.isinf(want) or dist.kind == "exponential":
                assert value == want, (q, value, want)
            else:
                assert value == pytest.approx(want, rel=1e-14, abs=0.0), q


def test_uniform_mgf_near_zero_has_no_cancellation():
    # above the series switch the difference of exponentials used to lose
    # about half the digits; the second-order expansion is exact to 1e-18 here
    d = Distribution.uniform(0.5, 2.0)
    for q in (1e-7, -3e-7, 1e-6):
        series = 1.0 + q * 1.25 + q * q * 5.25 / 6.0
        assert d.mgf(q) == pytest.approx(series, rel=1e-15, abs=0.0)


class TestMoments:
    def test_trivial(self):
        assert Distribution.exponential(1.0).moment(1.0) == 1.0
        assert Distribution.pareto(2.0, 1.0).moment(2.5) == math.inf
        assert Distribution.pareto(2.0, 1.0).moment(2.0) == math.inf

    def test_gamma_vs_quadrature(self):
        d = Distribution.gamma(2.0, 1.0)
        assert d.moment(2.0) == pytest.approx(6.0, abs=1e-12)
        assert d.moment(2.0) == pytest.approx(quad_moment(d, 2.0), rel=1e-9)
        assert d.moment(1.5) == pytest.approx(quad_moment(d, 1.5), rel=1e-9)

    def test_lognormal_and_pareto_closed_forms(self):
        d = Distribution.lognormal(0.1, 0.4)
        assert d.moment(2.0) == pytest.approx(quad_moment(d, 2.0), rel=1e-8)
        p = Distribution.pareto(3.0, 1.5)
        assert p.moment(2.0) == pytest.approx(quad_moment(p, 2.0), rel=1e-8)

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.kind)
    def test_zeroth_moment(self, dist):
        assert dist.moment(0.0) == 1.0
