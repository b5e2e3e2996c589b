import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import zeta

from ruinlab import (Distribution, HypothesisViolation,
                     ModelConfig, PremiumSpec, RegimeSpec, ThetaLaw,
                     lundberg_report, phi_nu_analytic, q_plus_compute,
                     sample_nu, classify_endpoint, u_vector,
                     zeta_regime_law)
from ruinlab import lundberg
from ruinlab.lundberg import _first_root, _touch_values, endpoint_phi_value
from oracles import phi_nu_mc
from test_ruin import piecewise_cfg

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
EXP1 = Distribution.exponential(1.0)
GAMMA2 = Distribution.gamma(2.0, 1.0)
SQUARE = ThetaLaw.polytope_uniform([(0, 0), (1, 0), (0, 1), (1, 1)])
TRIANGLE = ThetaLaw.polytope_uniform([(0, 0), (1, 0), (0.2, 0.8)])


def _rotated_square() -> ThetaLaw:
    """The unit square rotated about (0, 1) until its top edge lies on the
    tangent ray -g mu + sigma^2/2 = 1 at q = g, the golden ratio."""
    s = math.sqrt(2.0 - GOLDEN)
    e1 = (1.0 / s, GOLDEN / s)          # along the ray
    e2 = (GOLDEN / s, -1.0 / s)         # inward normal
    v0 = (0.0, 1.0)
    return ThetaLaw.polytope_uniform(
        [v0, (v0[0] + e1[0], v0[1] + e1[1]),
         (v0[0] + e1[0] + e2[0], v0[1] + e1[1] + e2[1]),
         (v0[0] + e2[0], v0[1] + e2[1])])


ROTATED_SQUARE = _rotated_square()
UNIF_BOX = ThetaLaw.product(Distribution.uniform(0.2, 0.25),
                            Distribution.uniform(0.01, 0.02))
POINT_UNIF_BOX = ThetaLaw.product(Distribution.deterministic(0.2),
                                  Distribution.uniform(0.01, 0.02))
TWO_MU = Distribution.discrete([(0.2, 0.5), (0.22, 0.5)])
ATOMS_UNIF_BOX = ThetaLaw.product(TWO_MU, Distribution.uniform(0.01, 0.02))
# the mass-exponent table: each law's gap exponent rho at q_plus, and the
# pole orders k of the Gamma(k, 1) inter-arrival laws it is paired with
MASS_LAWS = [(ROTATED_SQUARE, 1.0), (SQUARE, 2.0), (TRIANGLE, 2.0),
             (UNIF_BOX, 2.0), (POINT_UNIF_BOX, 1.0), (ATOMS_UNIF_BOX, 1.0)]
MASS_IDS = ["rotated_edge", "square_vertex", "triangle_vertex",
            "uniform_x_uniform", "deterministic_x_uniform",
            "discrete_x_uniform"]
MASS_K = [0.5, 1.0, 1.5, 2.0, 2.5]


def flat_series(y, limits=()):
    """Every atom at (0, y), with p_j = j^-2 / zeta(2)."""
    return ThetaLaw.countable(
        lambda j: (np.zeros_like(j), np.full_like(j, y)),
        lambda j: j ** -2.0 / zeta(2.0), None, limit_points=limits)


# atoms (0, 1/2 + 1/(2j)) falling from (0, 1) to the limit point (0, 1/2)
FALLING_SERIES = ThetaLaw.countable(
    lambda j: (np.zeros_like(j), 0.5 + 0.5 / j),
    lambda j: j ** -2.0 / zeta(2.0), None, limit_points=[(0.0, 0.5)])


def _gamma_tau(k: float) -> Distribution:
    """Gamma(k, 1), written Exp(1) when k = 1."""
    return EXP1 if k == 1.0 else Distribution.gamma(k, 1.0)


def _gap_mean(a: float, b: float, k: float, scale: float,
              h0: float = 0.0) -> float:
    """E (scale H)^-k, the value phi_tau(q_tau - H) takes on average for a
    Gamma(k, scale) tau (Exp(1/scale) when k = 1), in closed form for
    H = h0 + A + B with A ~ U[0, a] and B ~ U[0, b] independent (A = 0 and
    h0 = 0 when a = 0): E g(h0 + A + B) = (G(h0 + a + b) - G(h0 + a)
    - G(h0 + b) + G(h0)) / (a b) with G'' = g."""
    if a == 0.0:
        return (scale * b) ** -k / (1.0 - k)
    if k == 1.0:
        g2 = lambda h: h * math.log(h) if h > 0.0 else 0.0
    else:
        g2 = lambda h: h ** (2.0 - k) / ((1.0 - k) * (2.0 - k))
    return scale ** -k * (g2(h0 + a + b) - g2(h0 + a) - g2(h0 + b)
                          + g2(h0)) / (a * b)


def _shifted_gap_mean(atoms, b: float, k: float, scale: float) -> float:
    """E (scale H)^-k for H = A + B, A on the atoms ((a_i, w_i), ...) and
    B ~ U[0, b] independent, k < 1: sum_i w_i (G(a_i + b) - G(a_i))/b with
    G' = g."""
    big_g = lambda h: h ** (1.0 - k) / (1.0 - k)
    return scale ** -k * sum(w * (big_g(a + b) - big_g(a))
                             for a, w in atoms) / b


def _touch_value(x: float, y: float, q_tau: float) -> float:
    """Scalar oracle: smallest q > 0 with <u(q), (x, y)> = q_tau, or inf.

    For y > 0 this is the positive root of q(q+1) y - q x = q_tau; on the
    y = 0 boundary the functional is -q x, so only x < 0 can ever touch.
    """
    if y > 0.0:
        disc = (x - y) ** 2 + 4.0 * y * q_tau
        return ((x - y) + math.sqrt(disc)) / (2.0 * y)
    if x < 0.0:
        return -q_tau / x
    return math.inf


def zeta_cfg(p):
    return ModelConfig(
        claim_dist=EXP1, interarrival_dist=EXP1,
        premium=PremiumSpec(),
        regime=RegimeSpec.constant(zeta_regime_law(p)))


def constant_cfg(mu, hs, tau=None):
    return ModelConfig(
        claim_dist=Distribution.exponential(1.0),
        interarrival_dist=tau or EXP1,
        premium=PremiumSpec(0.1),
        regime=RegimeSpec.constant(ThetaLaw.point_mass(mu, hs)))


class TestUVector:
    def test_values(self):
        assert u_vector(0.0) == (0.0, 0.0)
        assert u_vector(1.0) == (-1.0, 2.0)

    def test_golden_ratio_identity(self):
        # q^2 + q = 1 at the golden point, so the second coordinate is 1
        assert u_vector(GOLDEN)[1] == pytest.approx(1.0, abs=1e-15)


class TestPhiNuAnalytic:
    def test_at_zero(self):
        assert phi_nu_analytic(ThetaLaw.point_mass(0.06, 0.02), EXP1, 0.0) == 1.0

    def test_point_mass_root_at_two(self):
        # <u(2), (0.06, 0.02)> = -0.12 + 6 * 0.02 = 0, so phi_nu(2) = 1
        val = phi_nu_analytic(ThetaLaw.point_mass(0.06, 0.02), EXP1, 2.0)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_atom_beyond_endpoint_diverges(self):
        law = ThetaLaw.finite([((0.0, 1.0), 0.5), ((0.5, 0.1), 0.5)])
        # at q = 0.7 the first atom has <u(q), theta> = 1.19 >= q_tau = 1
        assert phi_nu_analytic(law, EXP1, 0.7) == math.inf

    def test_endpoint_transition_around_q_plus(self):
        law = ThetaLaw.finite([((0.0, 1.0), 0.5), ((1.0, 0.5), 0.5)])
        geom = q_plus_compute(law, 1.0)
        assert geom.q_plus == pytest.approx(GOLDEN, abs=1e-12)
        assert math.isfinite(phi_nu_analytic(law, EXP1, geom.q_plus * (1 - 1e-6)))
        assert phi_nu_analytic(law, EXP1, geom.q_plus * (1 + 1e-6)) == math.inf

    def test_polytope_value_vs_mc(self):
        law = ThetaLaw.polytope_uniform([(0, 0.1), (0.5, 0.1), (0.5, 0.4),
                                         (0, 0.4)])
        q = 0.4
        val = phi_nu_analytic(law, EXP1, q)
        rng = np.random.default_rng(0)
        mu, hs = law.sample(rng, 400_000)
        tau_arg = -q * mu + q * (q + 1) * hs
        mc = np.mean(1.0 / (1.0 - tau_arg))
        assert val == pytest.approx(float(mc), rel=2e-3)

    @pytest.mark.parametrize("law", [
        SQUARE, ThetaLaw.product(Distribution.uniform(0.0, 1.0),
                                 Distribution.uniform(0.0, 1.0))],
        ids=["polygon", "product"])
    def test_unit_square_with_deterministic_interarrivals(self, law):
        # q_tau = inf: the gap runs from the top level, and with tau = 1 the
        # transform factors into the uniform MGFs of -q mu and q(q+1) s^2/2
        tau = Distribution.deterministic(1.0)
        for q in (0.3, 1.0, 2.5):
            a = q * (q + 1.0)
            want = math.expm1(-q) / -q * math.expm1(a) / a
            assert phi_nu_analytic(law, tau, q) == pytest.approx(
                want, rel=1e-10, abs=0.0)

    def test_zeta_p4_matches_mc_on_grid(self):
        # agreement between the exact series and Monte Carlo at 10 arguments
        cfg = ModelConfig(
            claim_dist=EXP1, interarrival_dist=EXP1,
            premium=PremiumSpec(),
            regime=RegimeSpec.constant(zeta_regime_law(4)))
        nu = sample_nu(cfg, 400_000, 15)
        for q in np.linspace(0.05, 0.9 * GOLDEN, 10):
            exact = phi_nu_analytic(zeta_regime_law(4), EXP1, float(q))
            est, se = phi_nu_mc(cfg, float(q), len(nu), 15, nu=nu)
            assert abs(est - exact) <= 4.0 * se


class TestQPlus:
    def test_single_atom_golden(self):
        geom = q_plus_compute(ThetaLaw.point_mass(0.0, 1.0), 1.0)
        assert geom.q_plus == pytest.approx(GOLDEN, abs=1e-12)
        assert geom.touching_points == ((0.0, 1.0),)

    def test_atom_one_one(self):
        # touch value solves q^2 = 1
        geom = q_plus_compute(ThetaLaw.point_mass(1.0, 1.0), 1.0)
        assert geom.q_plus == pytest.approx(1.0, abs=1e-12)

    def test_unit_square(self):
        geom = q_plus_compute(ThetaLaw.polytope_uniform(
            [(0, 0), (1, 0), (0, 1), (1, 1)]), 1.0)
        assert geom.q_plus == pytest.approx(GOLDEN, abs=1e-12)
        assert geom.touching_points == ((0.0, 1.0),)

    def test_zeta_family_golden_from_limit_point(self):
        geom = q_plus_compute(zeta_regime_law(3), 1.0)
        assert geom.q_plus == pytest.approx(GOLDEN, abs=1e-12)
        assert geom.touching_points == ((0.0, 1.0),)

    def test_unbounded_product_rejected(self):
        law = ThetaLaw.product(Distribution.uniform(0.0, 0.1),
                               Distribution.exponential(1.0))
        with pytest.raises(Exception):
            q_plus_compute(law, 1.0)

    def test_gap_variable_nonnegative(self):
        # H is linear in theta, so the unclipped gap at the candidate points
        # bounds it on the whole support; the touching point has gap 0
        for law in (SQUARE, TRIANGLE, ROTATED_SQUARE, UNIF_BOX,
                    ThetaLaw.point_mass(0.0, 1.0)):
            geom = q_plus_compute(law, 1.0)
            ux, uy = u_vector(geom.q_plus)
            pts = law.candidate_points()
            h = geom.q_tau - (ux * pts[:, 0] + uy * pts[:, 1])
            assert -1e-9 <= float(h.min()) <= 1e-12


class TestTouchOracle:
    """Array touch values and first touch against the scalar oracle."""

    @staticmethod
    def check(law, q_tau):
        pts = law.candidate_points()
        want = [_touch_value(x, y, q_tau) for x, y in pts.tolist()]
        got = _touch_values(pts[:, 0], pts[:, 1], q_tau)
        # numpy squares exactly; the oracle's x ** 2 goes through libm pow
        assert got.tolist() == pytest.approx(want, rel=1e-13, abs=0.0)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        q_plus = min(want)
        geom = q_plus_compute(law, q_tau)
        assert geom.q_plus == pytest.approx(q_plus, rel=1e-15, abs=0.0)
        on_line = [abs(-q_plus * x + q_plus * (q_plus + 1.0) * y - q_tau)
                   <= 1e-12 * max(1.0, q_tau) for x, y in pts.tolist()]
        touching = tuple(dict.fromkeys(
            tuple(p) for p, hit in zip(pts.tolist(), on_line) if hit))
        assert geom.touching_points == touching
        assert all(type(c) is float for p in touching for c in p)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_finite_theta(self, seed):
        rng = np.random.default_rng(seed)
        n = 60
        x = rng.uniform(-1.5, 2.0, n)
        y = rng.uniform(0.0, 2.0, n)
        # boundary rows y = 0: x < 0 touches at -q_tau / x, x >= 0 never does
        y[:8] = 0.0
        x[:4] = -rng.uniform(0.2, 3.0, 4)
        x[4:8] = [0.0, 0.5, 1.0, 2.0]
        law = ThetaLaw.finite([((a, b), 1.0 / n) for a, b in zip(x, y)])
        self.check(law, float(rng.uniform(0.2, 3.0)))

    def test_boundary_row_sets_first_touch(self):
        law = ThetaLaw.finite([((-4.0, 0.0), 0.25), ((0.0, 0.0), 0.25),
                               ((3.0, 0.0), 0.25), ((0.0, 1.0), 0.25)])
        self.check(law, 1.0)
        assert q_plus_compute(law, 1.0).touching_points == ((-4.0, 0.0),)

    def test_touching_points_deduplicated_in_first_appearance_order(self):
        # (1, 1 + g) and (0, 1) both lie on -g x + y = 1, the ray at q = g
        far = (1.0, 1.0 + GOLDEN)
        law = ThetaLaw.finite([(far, 0.25), ((0.5, 0.2), 0.25),
                               ((0.0, 1.0), 0.25), (far, 0.25)])
        self.check(law, 1.0)
        assert q_plus_compute(law, 1.0).touching_points == (far, (0.0, 1.0))

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_zeta_family(self, p):
        self.check(zeta_regime_law(p), 1.0)


class TestZetaPinned:
    """zeta p = 2..5 keep the exact floats of the head-plus-Euler-Maclaurin
    sums; each pin is within 1 ulp of the correctly rounded mpmath value or
    closer to it than the block-sum pin it replaced."""

    PHI_END = {2: math.inf, 3: 0.8457379678887159, 4: 0.6864049476390953,
               5: 0.645090790490696}

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_report_and_endpoint(self, p):
        rep = lundberg_report(zeta_cfg(p))
        assert rep.beta == (0.40880989285022135 if p == 2 else None)
        assert rep.phi_at_endpoint == self.PHI_END[p]
        assert rep.q_nu == 0.6180339887498949
        geom = q_plus_compute(zeta_regime_law(p), 1.0)
        assert geom.q_plus == 0.6180339887498949
        assert geom.touching_points == ((0.0, 1.0),)
        assert classify_endpoint(geom, EXP1).integral_value == self.PHI_END[p]

    # phi_nu at q = 0.1, 0.3, 0.5
    PHI = {2: (0.9634586688427536, 0.9526672381786289, 1.110480172720022),
           3: (0.9287213416637792, 0.8307239448379559, 0.7908227286466796),
           4: (0.9172611981331317, 0.7939505228387829, 0.7128394868261121),
           5: (0.9127474718208074, 0.7800963640273011, 0.6862137075025085)}

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_phi_nu_series(self, p):
        got = tuple(phi_nu_analytic(zeta_regime_law(p), EXP1, q)
                    for q in (0.1, 0.3, 0.5))
        assert got == self.PHI[p]


class TestTheorem2:
    def test_zeta_dichotomy(self):
        for p, want in ((2, "endpoint_infinite"), (3, "endpoint_finite"),
                        (4, "endpoint_finite"), (5, "endpoint_finite")):
            geom = q_plus_compute(zeta_regime_law(p), 1.0)
            verdict = classify_endpoint(geom, EXP1)
            assert verdict.verdict == want, p
            assert not verdict.inconclusive

    def test_atom_at_zero_is_infinite(self):
        geom = q_plus_compute(ThetaLaw.point_mass(0.0, 1.0), 1.0)
        verdict = classify_endpoint(geom, EXP1)
        assert verdict.verdict == "endpoint_infinite"
        assert verdict.integral_value == math.inf

    def test_square_touching_at_vertex_is_finite(self):
        geom = q_plus_compute(ThetaLaw.polytope_uniform(
            [(0, 0), (1, 0), (0, 1), (1, 1)]), 1.0)
        verdict = classify_endpoint(geom, EXP1)
        assert verdict.verdict == "endpoint_finite"

    def test_rotated_square_edge_on_ray_is_infinite(self):
        # the near-ray mass of an edge on the ray is of first order, so the
        # endpoint diverges
        geom = q_plus_compute(ROTATED_SQUARE, 1.0)
        assert geom.q_plus == pytest.approx(GOLDEN, rel=1e-9)
        verdict = classify_endpoint(geom, EXP1)
        assert verdict.verdict == "endpoint_infinite"

    def test_gamma2_triangle_vertex_touch_is_infinite(self):
        # a vertex touch puts mass ~ h^2 below gap h, and Gamma(2) has a
        # double pole, so the gap integral diverges logarithmically
        geom = q_plus_compute(TRIANGLE, 1.0)
        verdict = classify_endpoint(geom, GAMMA2)
        assert verdict.verdict == "endpoint_infinite"
        assert not verdict.inconclusive
        assert endpoint_phi_value(verdict) == math.inf

    @pytest.mark.parametrize("law, want", [(SQUARE, 1.74101),
                                           (TRIANGLE, 1.46755)],
                             ids=["square", "triangle"])
    def test_polygon_endpoint_value_matches_quadrature(self, law, want):
        geom = q_plus_compute(law, 1.0)
        verdict = classify_endpoint(geom, EXP1)
        assert verdict.verdict == "endpoint_finite"
        assert not verdict.inconclusive
        below = phi_nu_analytic(law, EXP1, geom.q_plus * (1.0 - 1e-6))
        assert below == pytest.approx(want, rel=1e-5)
        assert endpoint_phi_value(verdict) == pytest.approx(below, rel=1e-4)

    @pytest.mark.parametrize("k", MASS_K)
    @pytest.mark.parametrize("law, rho", MASS_LAWS, ids=MASS_IDS)
    def test_mass_exponent_rule(self, law, rho, k):
        # P(H <= h) ~ h^rho and phi_tau(q_tau - h) ~ h^-k for Gamma(k) tau,
        # so the gap integral diverges iff rho <= k
        tau = _gamma_tau(k)
        geom = q_plus_compute(law, 1.0)
        assert geom.h_law.rho == rho
        verdict = classify_endpoint(geom, tau)
        assert not verdict.inconclusive
        if rho <= k:
            assert verdict.verdict == "endpoint_infinite"
            assert endpoint_phi_value(verdict) == math.inf
            return
        assert verdict.verdict == "endpoint_finite"

    @pytest.mark.parametrize("law, rho, k", [
        (law, rho, k) for law, rho in MASS_LAWS for k in MASS_K if rho > k]
        + [(ROTATED_SQUARE, 1.0, 0.9)],
        ids=[f"{name}-{k}" for (_, rho), name in zip(MASS_LAWS, MASS_IDS)
             for k in MASS_K if rho > k] + ["rotated_edge-0.9"])
    def test_phi_nu_rises_to_endpoint_value(self, law, rho, k):
        # below q_plus every gap is off zero and phi_nu is the endpoint's gap
        # expectation at a nearby ray: it increases to phi_nu(q_plus), and
        # the deficit falls like eps^(rho - k) where rho - k < 1, to below
        # 1e-5 of the limit at eps = 1e-12 once rho - k >= 0.5
        tau = _gamma_tau(k)
        geom = q_plus_compute(law, 1.0)
        end = phi_nu_analytic(law, tau, geom.q_plus)
        eps = 10.0 ** -np.arange(2.0, 13.0, 2.0)
        vals = np.array([phi_nu_analytic(law, tau, geom.q_plus * (1.0 - e))
                         for e in eps])
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(vals < end)
        if rho - k >= 0.5:
            assert end - vals[-1] <= 1e-5 * end
        if rho - k < 1.0:
            slope = np.polyfit(np.log(eps[3:]), np.log(end - vals[3:]), 1)[0]
            assert abs(slope - (rho - k)) <= 0.01

    @pytest.mark.parametrize("k", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("law, widths, corner", [
        (SQUARE, lambda q: (q, q * (q + 1.0)), (0.0, 1.0)),
        (UNIF_BOX, lambda q: (0.05 * q, 0.01 * q * (q + 1.0)), (0.2, 0.02))],
        ids=["square", "uniform_x_uniform"])
    def test_phi_nu_below_q_plus_against_closed_form(self, law, widths,
                                                     corner, k):
        # at q_plus (1 - 1e-8) the corner's gap h0 is about 1e-8, and H is
        # h0 plus two independent uniforms
        q = q_plus_compute(law, 1.0).q_plus * (1.0 - 1e-8)
        h0 = 1.0 - float(np.dot(u_vector(q), corner))
        want = _gap_mean(*widths(q), k, 1.0, h0)
        assert phi_nu_analytic(law, _gamma_tau(k), q) == pytest.approx(
            want, rel=1e-9)

    @pytest.mark.parametrize("law, rho, mean, k, rate", [
        (ROTATED_SQUARE, 1.0, lambda q, k, s: _gap_mean(
            0.0, math.hypot(q, q * (q + 1.0)), k, s), 0.9, 1.0),
        (SQUARE, 2.0, lambda q, k, s: _gap_mean(q, q * (q + 1.0), k, s),
         1.9, 1.0),
        (SQUARE, 2.0, lambda q, k, s: _gap_mean(q, q * (q + 1.0), k, s),
         1.0, 5e4),
        (SQUARE, 2.0, lambda q, k, s: _gap_mean(q, q * (q + 1.0), k, s),
         1.0, 5e6),
        (UNIF_BOX, 2.0, lambda q, k, s: _gap_mean(
            0.05 * q, 0.01 * q * (q + 1.0), k, s), 1.9, 1.0),
        (POINT_UNIF_BOX, 1.0, lambda q, k, s: _gap_mean(
            0.0, 0.01 * q * (q + 1.0), k, s), 0.9, 1.0),
        (ATOMS_UNIF_BOX, 1.0, lambda q, k, s: _shifted_gap_mean(
            [(0.0, 0.5), (0.02 * q, 0.5)], 0.01 * q * (q + 1.0), k, s),
         0.9, 1.0)],
        ids=["rotated_edge", "square_vertex", "square_rate_5e4",
             "square_rate_5e6", "uniform_x_uniform", "deterministic_x_uniform",
             "discrete_x_uniform"])
    def test_endpoint_value_against_closed_form(self, law, rho, mean, k,
                                                rate):
        # H is uniform, a sum of two uniforms or atoms plus a uniform on
        # each of these laws.  With rho - k = 0.1 a gap below 1e-10 still
        # carries a tenth of the integral.  At rates 5e4 and 5e6 the
        # touching vertex's gap is rounding noise of +7e-12 and +9e-10,
        # which must still count as a touch
        tau = (Distribution.exponential(rate) if k == 1.0
               else Distribution.gamma(k, 1.0 / rate))
        geom = q_plus_compute(law, rate)
        assert geom.h_law.rho == rho
        verdict = classify_endpoint(geom, tau)
        assert verdict.verdict == "endpoint_finite"
        want = mean(geom.q_plus, k, 1.0 / rate)
        assert endpoint_phi_value(verdict) == pytest.approx(want, rel=1e-12)
        assert phi_nu_analytic(law, tau, geom.q_plus) == pytest.approx(
            want, rel=1e-12)

    @pytest.mark.parametrize("tau", [EXP1, _gamma_tau(0.5), GAMMA2],
                             ids=["exp1", "gamma0.5", "gamma2"])
    @pytest.mark.parametrize("law", [
        zeta_regime_law(3), zeta_regime_law(4), zeta_regime_law(5), SQUARE,
        UNIF_BOX, POINT_UNIF_BOX],
        ids=["zeta3", "zeta4", "zeta5", "square", "uniform_x_uniform",
             "deterministic_x_uniform"])
    def test_verdict_value_is_phi_nu_at_q_plus(self, law, tau):
        # one gap expectation serves both, so the bits agree, inf included
        geom = q_plus_compute(law, 1.0)
        assert (classify_endpoint(geom, tau).integral_value
                == phi_nu_analytic(law, tau, geom.q_plus))

    def test_discrete_product_matches_finite_law(self):
        # atoms times atoms is a finite law: the corner atom touches, so
        # rho = 0 and the endpoint diverges, and below q_plus the product
        # sums the same four atoms as the law written out
        hs = Distribution.discrete([(0.01, 0.5), (0.02, 0.5)])
        law = ThetaLaw.product(TWO_MU, hs)
        finite = ThetaLaw.finite([((x, y), 0.25) for x in (0.2, 0.22)
                                  for y in (0.01, 0.02)])
        geom = q_plus_compute(law, 1.0)
        assert geom.h_law.rho == 0.0
        assert geom.q_plus == q_plus_compute(finite, 1.0).q_plus
        assert phi_nu_analytic(law, EXP1, geom.q_plus) == math.inf
        for q in geom.q_plus * np.array([0.1, 0.5, 0.9, 1.0 - 1e-6]):
            assert phi_nu_analytic(law, EXP1, float(q)) == pytest.approx(
                phi_nu_analytic(finite, EXP1, float(q)), rel=1e-12)

    def test_series_without_gap_decay(self):
        # every atom at one point: a touching head atom gives rho = 0; atoms
        # off the ray below a touching limit point never close the gap, so
        # rho = inf and the value is the plain sum p_j phi_tau(q_tau - h)
        for y, limits, rho in ((0.5, (), 0.0), (0.25, [(0.0, 0.5)], math.inf)):
            law = flat_series(y, limits)
            geom = q_plus_compute(law, 1.0)
            assert geom.q_plus == pytest.approx(1.0, rel=1e-12)
            assert geom.h_law.rho == rho
            value = endpoint_phi_value(classify_endpoint(geom, EXP1))
            assert value == (math.inf if rho == 0.0 else pytest.approx(2.0))

    def test_series_head_atom_touches_above_limit_point(self):
        # the first atom touches while the atoms fall away to a limit point
        # below the ray, so the gaps grow with j: rho = 0 all the same
        geom = q_plus_compute(FALLING_SERIES, 1.0)
        assert geom.q_plus == pytest.approx(GOLDEN, abs=1e-12)
        assert geom.h_law.rho == 0.0
        assert phi_nu_analytic(FALLING_SERIES, EXP1, geom.q_plus) == math.inf

    def test_requires_divergent_endpoint(self):
        geom = q_plus_compute(ThetaLaw.point_mass(0.0, 1.0), 1.0)
        with pytest.raises(HypothesisViolation) as err:
            classify_endpoint(geom, Distribution.deterministic(1.0))
        assert err.value.condition == "interarrival_endpoint"


class TestSolveBeta:
    def test_exact_identity_cases(self):
        rep = lundberg_report(constant_cfg(0.06, 0.02))
        assert abs(rep.beta - 2.0) <= 1e-9
        assert rep.beta < rep.q_nu
        rep = lundberg_report(constant_cfg(0.1, 0.02))
        assert abs(rep.beta - 4.0) <= 1e-9

    def test_phi_below_one_then_above(self):
        cfg = constant_cfg(0.06, 0.02)
        theta, tau = cfg.regime.theta, cfg.interarrival_dist
        rep = lundberg_report(cfg)
        q_nu = rep.q_nu
        for q in np.linspace(0.01, 0.99, 10) * rep.beta:
            assert phi_nu_analytic(theta, tau, float(q)) < 1.0
        for q in rep.beta + (q_nu - rep.beta) * np.linspace(0.01, 0.95, 10):
            assert phi_nu_analytic(theta, tau, float(q)) > 1.0

    def test_nonpositive_drift_raises(self):
        cfg = constant_cfg(0.01, 0.02)
        with pytest.raises(HypothesisViolation) as err:
            lundberg_report(cfg)
        assert err.value.condition == "mean_drift_positive"

    def test_root_exists_for_heavy_zeta_family(self):
        # p = 2: the endpoint diverges, so a root must exist below q_plus
        cfg = ModelConfig(
            claim_dist=EXP1, interarrival_dist=EXP1,
            premium=PremiumSpec(),
            regime=RegimeSpec.constant(zeta_regime_law(2)))
        rep = lundberg_report(cfg)
        assert rep.status == "root"
        assert 0.0 < rep.beta < rep.q_nu
        assert rep.phi_at_endpoint == math.inf
        assert abs(phi_nu_analytic(zeta_regime_law(2), EXP1, rep.beta)
                   - 1.0) <= 1e-10

    def test_no_root_for_light_zeta_family(self):
        cfg = ModelConfig(
            claim_dist=EXP1, interarrival_dist=EXP1,
            premium=PremiumSpec(),
            regime=RegimeSpec.constant(zeta_regime_law(4)))
        rep = lundberg_report(cfg)
        assert rep.status == "no_root" and rep.beta is None
        assert rep.q_nu == pytest.approx(GOLDEN, abs=1e-12)
        expected = zeta(3, 1) / (zeta(4, 1) * (1.0 + GOLDEN))
        assert rep.phi_at_endpoint == pytest.approx(expected, rel=1e-6)

    def test_hypothesis_flags(self):
        rep = lundberg_report(constant_cfg(0.06, 0.02))
        assert rep.hypothesis_flags == {"claim_moment_ok": True,
                                        "cond_tau_ok": True}
        # a short-tailed tau breaks the tail-margin condition: beta = 2 and
        # q_tau = 0.05 < beta^2 sigma^2 / 2 = 0.08
        rep = lundberg_report(constant_cfg(
            0.06, 0.02, tau=Distribution.exponential(0.05)))
        assert rep.beta == pytest.approx(2.0, rel=1e-12)
        assert rep.hypothesis_flags["cond_tau_ok"] is False
        # heavy claim tails break the moment condition
        cfg = ModelConfig(
            claim_dist=Distribution.pareto(1.5, 1.0), interarrival_dist=EXP1,
            premium=PremiumSpec(0.1),
            regime=RegimeSpec.constant(ThetaLaw.point_mass(0.06, 0.02)))
        rep = lundberg_report(cfg)
        assert rep.hypothesis_flags["claim_moment_ok"] is False

    def test_first_root_on_plain_curve(self):
        # explicit evaluator: phi(q) = E e^{q nu} for nu ~ N(-1, 1), with
        # its root at 2 and inf from q = 3 on
        phi = lambda q: math.exp(-q + q * q / 2.0) if q < 3.0 else math.inf
        f = lambda q: phi(q) - 1.0
        assert _first_root(f) == pytest.approx(2.0, rel=1e-15)
        assert _first_root(f, cap=2.5) == pytest.approx(2.0, rel=1e-15)
        assert _first_root(f, cap=1.5) is None
        # a root far below q = 1 is reached by halving
        assert _first_root(lambda q: f(q * 1e6) * 1e6) == pytest.approx(
            2e-6, rel=1e-15)

    def test_large_beta_flags(self):
        # beta = 0.9 / 0.004 - 1 = 224: E xi^beta of the Exp(1) claims
        # overflows math.gamma, and the flag comes from the claim law
        rep = lundberg_report(constant_cfg(0.9, 0.004))
        assert rep.beta == pytest.approx(224.0, rel=1e-14)
        assert rep.hypothesis_flags["claim_moment_ok"] is True

    @settings(max_examples=100, deadline=None)
    @given(mu=st.floats(0.05, 1.0), frac=st.floats(1.0 / 150.0, 1.0 / 1.5),
           tau=st.one_of(
               st.just(Distribution.deterministic(1.0)),
               st.floats(0.1, 10.0).map(Distribution.exponential),
               st.builds(Distribution.gamma, st.floats(0.3, 5.0),
                         st.floats(0.1, 3.0))))
    def test_point_mass_root_is_exact(self, mu, frac, tau):
        # a point mass at (mu, s) gives phi_nu(q) = phi_tau(q ((q + 1) s - mu)),
        # which is 1 exactly at q = mu / s - 1
        hs = mu * frac
        rep = lundberg_report(constant_cfg(mu, hs, tau=tau))
        want = mu / hs - 1.0
        assert rep.beta == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("cfg", [zeta_cfg(2), piecewise_cfg()],
                             ids=["zeta_p2", "piecewise"])
    def test_report_phi_calls(self, cfg, monkeypatch):
        calls = []
        for name in ("phi_nu_analytic", "phi_nu_piecewise"):
            real = getattr(lundberg, name)
            monkeypatch.setattr(lundberg, name, lambda *a, real=real:
                                calls.append(a) or real(*a))
        assert lundberg_report(cfg).status == "root"
        assert len(calls) <= 20

    def test_product_box_endpoint_against_closed_form(self):
        # Gamma(0.5, 2) tau: q_tau = 0.5, and H at q_plus is the sum of two
        # uniforms, so phi_nu(q_plus) has the closed form of _gap_mean
        cfg = ModelConfig(
            claim_dist=EXP1, interarrival_dist=Distribution.gamma(0.5, 2.0),
            premium=PremiumSpec(), regime=RegimeSpec.constant(UNIF_BOX))
        rep = lundberg_report(cfg)
        q = rep.q_nu
        want = _gap_mean(0.05 * q, 0.01 * q * (q + 1.0), 0.5, 2.0)
        assert rep.phi_at_endpoint == pytest.approx(want, rel=1e-12)

    def test_product_box_endpoint_value(self):
        # phi_nu(q_plus) = 1.2207 > 1, so the root lies below the endpoint
        law = UNIF_BOX
        cfg = ModelConfig(
            claim_dist=EXP1, interarrival_dist=EXP1,
            premium=PremiumSpec(), regime=RegimeSpec.constant(law))
        rep = lundberg_report(cfg)
        assert rep.status == "root"
        assert rep.beta == pytest.approx(12.513458, abs=1e-5)
        below = phi_nu_analytic(law, EXP1, rep.q_nu * (1.0 - 1e-8))
        assert rep.phi_at_endpoint == pytest.approx(below, rel=1e-5)

    def test_polygon_box_matches_product_box(self):
        # the box above as a polygon is the same law of Theta, so the same
        # beta; near q = 0 every gap is near q_tau and the slope is -E K
        box = ThetaLaw.polytope_uniform(
            [(0.2, 0.01), (0.25, 0.01), (0.25, 0.02), (0.2, 0.02)])
        cfg = ModelConfig(
            claim_dist=EXP1, interarrival_dist=EXP1,
            premium=PremiumSpec(), regime=RegimeSpec.constant(box))
        rep = lundberg_report(cfg)
        assert rep.beta == pytest.approx(12.513458, abs=1e-5)
        slope = (phi_nu_analytic(box, EXP1, 1e-10) - 1.0) / 1e-10
        assert slope == pytest.approx(-(0.225 - 0.015), rel=1e-4)

    def test_mc_estimate_at_root_argument(self):
        # deterministic unit interval: e^{2 nu} has mean exp(0) = 1 exactly
        cfg = constant_cfg(0.06, 0.02, tau=Distribution.deterministic(1.0))
        est, se = phi_nu_mc(cfg, 2.0, 1_000_000, 5)
        assert abs(est - 1.0) <= 4.0 * se

    def test_no_investment_raises(self):
        cfg = ModelConfig(claim_dist=EXP1, interarrival_dist=EXP1,
                          premium=PremiumSpec(2.0))
        with pytest.raises(HypothesisViolation) as err:
            lundberg_report(cfg)
        assert err.value.condition == "mean_drift_positive"
