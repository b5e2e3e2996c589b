import math

import pytest

import ruinlab.engine as engine
import ruinlab.ruin as ruin
from ruinlab import (Distribution, HypothesisViolation,
                     ModelConfig, PremiumSpec, RegimeSpec, RuinEstimate,
                     ThetaLaw, bounds_check, classical_psi,
                     estimate_psi_grid, fit_tail, rw_max_diagnostic)


def beta2_cfg():
    return ModelConfig(
        claim_dist=Distribution.exponential(1.0),
        interarrival_dist=Distribution.exponential(1.0),
        premium=PremiumSpec(0.1),
        regime=RegimeSpec.constant(ThetaLaw.point_mass(0.06, 0.02)))


def piecewise_cfg():
    return ModelConfig(
        claim_dist=Distribution.exponential(1.0),
        interarrival_dist=Distribution.exponential(1.0),
        premium=PremiumSpec(0.1),
        regime=RegimeSpec.piecewise(0.25, Distribution.uniform(0.05, 0.07),
                                    Distribution.uniform(0.15, 0.25)))


def classical_cfg(c=2.0):
    return ModelConfig(
        claim_dist=Distribution.exponential(1.0),
        interarrival_dist=Distribution.exponential(1.0),
        premium=PremiumSpec(c), regime=None)


class TestClassicalFormula:
    def test_at_zero(self):
        assert classical_psi(1.0, 1.0, 2.0, 0.0).value == pytest.approx(0.5)

    def test_closed_form(self):
        got = classical_psi(1.0, 1.0, 2.0, 2.0)
        assert got.loading_ok
        assert got.value == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)

    def test_loading_violation_flagged_not_raised(self):
        got = classical_psi(1.0, 1.0, 0.5, 3.0)
        assert got.value == 1.0 and not got.loading_ok


class TestEstimatePsi:
    def test_no_claims_no_ruin(self):
        cfg = ModelConfig(
            claim_dist=Distribution.deterministic(0.0),
            interarrival_dist=Distribution.exponential(1.0),
            premium=PremiumSpec(), regime=None)
        est = estimate_psi_grid([1.0], cfg, 1000, max_steps=200, seed=0)[0]
        assert est.psi_hat == 0.0

    def test_ruin_from_zero_reserve(self):
        est = estimate_psi_grid([0.0], classical_cfg(), 2000, max_steps=500,
                                barrier_multiple=50.0, seed=1)[0]
        assert est.psi_hat > 0.3

    def test_matches_classical_formula(self):
        est = estimate_psi_grid([1.0], classical_cfg(), 50_000,
                                max_steps=5_000, barrier_multiple=100.0,
                                seed=2)[0]
        exact = classical_psi(1.0, 1.0, 2.0, 1.0).value
        assert abs(est.psi_hat - exact) <= 3.0 * est.ci_halfwidth

    # (config, grid, paths, max_steps); the piecewise grid is fine enough
    # that estimates drawn independently per reserve are not monotone
    @pytest.mark.parametrize("cfg, grid, n, steps", [
        (beta2_cfg(), [1.0, 3.0, 9.0, 27.0], 20_000, 2_000),
        (piecewise_cfg(), [10.0 + 0.5 * i for i in range(9)], 200, 200),
    ], ids=["constant", "piecewise"])
    def test_monotone_in_reserve_under_coupling(self, cfg, grid, n, steps):
        ests = estimate_psi_grid(grid, cfg, n, max_steps=steps, seed=3)
        vals = [e.psi_hat for e in ests]
        assert vals == sorted(vals, reverse=True)

    @pytest.mark.parametrize("cfg, n, steps", [
        (beta2_cfg(), 10_000, 1_000), (piecewise_cfg(), 100, 100),
    ], ids=["constant", "piecewise"])
    def test_scale_invariance_exact(self, cfg, n, steps):
        grid = [2.0, 8.0]
        a = estimate_psi_grid(grid, cfg, n, max_steps=steps, seed=4)
        b = estimate_psi_grid([2.0 * u for u in grid], cfg.scaled(2.0), n,
                              max_steps=steps, seed=4)
        assert [x.psi_hat for x in a] == [y.psi_hat for y in b]

    def test_reserve_estimate_independent_of_grid(self):
        # the stopping rule never reads the reserves, so a path's draws and
        # its indicator at u = 300 do not depend on the rest of the grid
        alone = estimate_psi_grid([300.0], beta2_cfg(), 20_000, seed=42)
        wide = estimate_psi_grid([10.0, 30.0, 100.0, 300.0, 600.0, 1200.0,
                                  2400.0], beta2_cfg(), 20_000, seed=42)
        assert alone[0].psi_hat == wide[3].psi_hat
        assert alone[0].censored_fraction == wide[3].censored_fraction

    def test_deterministic_across_worker_counts(self):
        est1, est2 = (estimate_psi_grid([5.0], beta2_cfg(), 30_000,
                                        max_steps=500, seed=5, workers=w,
                                        chunk_size=8192)[0] for w in (1, 2))
        assert est1.psi_hat == est2.psi_hat
        assert est1.censored_fraction == est2.censored_fraction

    def test_censoring_reported(self):
        est = estimate_psi_grid([5.0], beta2_cfg(), 2_000, max_steps=3,
                                seed=6)[0]
        assert est.censored_fraction > 0.5

    def test_piecewise_regime_fallback(self):
        ests = estimate_psi_grid([2.0, 20.0], piecewise_cfg(), 300,
                                 max_steps=300, seed=7, chunk_size=150)
        assert 0.0 <= ests[1].psi_hat <= ests[0].psi_hat <= 1.0


def synthetic_estimates(fn, grid, n=10**6):
    out = []
    for u in grid:
        p = fn(u)
        half = 1.96 * math.sqrt(p * (1 - p) / n)
        out.append(RuinEstimate(u=u, psi_hat=p, ci_halfwidth=half,
                                n_paths=n, censored_fraction=0.0))
    return out


class TestTailFit:
    def test_exact_power_input(self):
        ests = synthetic_estimates(lambda u: u ** -2.0, [10, 20, 40, 80])
        fit = fit_tail(ests)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_scale_moves_intercept_only(self):
        base = fit_tail(synthetic_estimates(lambda u: u ** -2.0,
                                            [10, 20, 40, 80]))
        lifted = fit_tail(synthetic_estimates(lambda u: 5.0 * u ** -2.0,
                                              [10, 20, 40, 80]))
        assert lifted.slope == pytest.approx(base.slope, abs=1e-12)
        assert lifted.intercept - base.intercept == pytest.approx(
            math.log(5.0), abs=1e-10)

    def test_zero_estimates_dropped_with_warning(self):
        ests = synthetic_estimates(lambda u: u ** -2.0, [10, 20, 40, 80])
        ests[-1] = RuinEstimate(u=80.0, psi_hat=0.0, ci_halfwidth=1e-6,
                                n_paths=10**6, censored_fraction=0.0)
        with pytest.warns(UserWarning):
            fit = fit_tail(ests)
        assert fit.u_grid == (10, 20, 40)

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            fit_tail(synthetic_estimates(lambda u: u ** -2.0, [10, 20, 40]))


class TestBoundsCheck:
    def test_pure_power_has_unit_spread(self):
        ests = synthetic_estimates(lambda u: 3.0 * u ** -2.0, [10, 30, 100])
        bc = bounds_check(2.0, ests)
        assert bc.spread == pytest.approx(1.0, rel=1e-12)

    def test_oscillating_band(self):
        ests = synthetic_estimates(
            lambda u: u ** -2.0 * (2.0 + math.sin(math.log(u))),
            [10, 30, 100, 300])
        bc = bounds_check(2.0, ests)
        assert bc.spread <= 3.0


class TestWalkDiagnostic:
    def test_threshold_zero_in_open_interval(self):
        diag = rw_max_diagnostic(beta2_cfg(), [1.0], 20_000, seed=8)
        assert 0.0 < diag[0]["p_hat"] < 1.0

    def test_requires_investment_drift(self):
        with pytest.raises(HypothesisViolation):
            rw_max_diagnostic(classical_cfg(), [10.0], 1000, seed=9)


@pytest.mark.parametrize("setting", [
    dict(max_steps=0), dict(barrier_multiple=-1.0), dict(barrier_multiple=0.0),
], ids=["max_steps", "negative_barrier", "zero_barrier"])
def test_chain_rejects_silent_stop_settings(setting):
    # a negative barrier stopped every path at once with psi_hat = 0 and
    # nothing censored; max_steps = 0 read every path as censored
    with pytest.raises(ValueError):
        estimate_psi_grid([10.0], beta2_cfg(), 1000, seed=1, **setting)


@pytest.mark.parametrize("setting", [
    dict(max_steps=0), dict(barrier_multiple=1.0), dict(barrier_multiple=0.5),
], ids=["max_steps", "unit_barrier", "sub_unit_barrier"])
def test_walk_rejects_silent_stop_settings(setting):
    # the walk drops ln(barrier_multiple), which is not positive here
    with pytest.raises(ValueError):
        rw_max_diagnostic(beta2_cfg(), [10.0], 1000, seed=1, **setting)


def test_non_finite_path_is_counted_apart(monkeypatch):
    # a NaN increment stops its path, which reads as neither ruined nor
    # censored nor survived but as non-finite
    clean = ruin.estimate_psi_grid([10.0, 30.0], beta2_cfg(), 1000, seed=1)
    real = engine.chain_pairs
    calls = []

    def pairs(kernel, streams, t):
        m, q, tau = real(kernel, streams, t)
        calls.append(None)
        if len(calls) == 3:
            q[0] = math.nan
        return m, q, tau
    monkeypatch.setattr(ruin, "chain_pairs", pairs)
    hit = ruin.estimate_psi_grid([10.0, 30.0], beta2_cfg(), 1000, seed=1)
    assert [e.non_finite_fraction for e in clean] == [0.0, 0.0]
    assert [e.non_finite_fraction for e in hit] == [1e-3, 1e-3]
