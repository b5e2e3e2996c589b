import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import ks_2samp

from ruinlab import (Distribution, EstimationError, HypothesisViolation,
                     ModelConfig, PremiumSpec, RegimeSpec, RngStreams,
                     ThetaLaw, goldie_constant, ks_fixed_point,
                     model_pair_sampler, qbar_pair_sampler, sample_R_values,
                     sample_Rbar_values)
from ruinlab.engine import REL_TOL, StepKernel, run_discounted_sup
from ruinlab.perpetuity import _ks_statistic
from ruinlab.validate import classical_config
from oracles import (PerpetuityPair, deterministic_pair_sampler,
                     iid_pair_sampler, sample_R)
from perpetuity_audit import paired_audit
from test_ruin import piecewise_cfg


def beta2_cfg(c=0.1):
    return ModelConfig(
        claim_dist=Distribution.exponential(1.0),
        interarrival_dist=Distribution.exponential(1.0),
        premium=PremiumSpec(c),
        regime=RegimeSpec.constant(ThetaLaw.point_mass(0.06, 0.02)))


GEOM = deterministic_pair_sampler(PerpetuityPair(0.5, 1.0))
# R and R_bar are the ruin chain at premium 0 and at c_bar on each of these
CHAIN_CFGS = {
    "beta2": beta2_cfg(),
    "decaying_premium": replace(beta2_cfg(), premium=PremiumSpec(0.1, -0.05)),
    "two_atom_theta": replace(beta2_cfg(), regime=RegimeSpec.constant(
        ThetaLaw.finite([((0.06, 0.02), 0.5), ((0.08, 0.03), 0.5)]))),
    "piecewise": piecewise_cfg(),
}


class TestIncreasing:
    def test_geometric_series(self):
        s = sample_R(GEOM, n_max=1000, rel_tol=1e-12, rng=0)
        assert s.converged
        assert s.value == pytest.approx(2.0, abs=1e-9)

    def test_zero_increments(self):
        s = sample_R(deterministic_pair_sampler(PerpetuityPair(0.5, 0.0)),
                     n_max=1000, rel_tol=1e-12, rng=0)
        assert s.value == 0.0

    def test_nan_increment_is_counted_apart(self):
        base = model_pair_sampler(beta2_cfg())
        calls = []

        def sampler(streams, t):
            m, q, tau = base(streams, t)
            calls.append(len(t))
            if len(calls) == 2:          # the second term of every row
                q[0] = np.nan
            return m, q, tau
        batch = sample_R_values(sampler, 1000, seed=2)
        assert batch.non_finite.tolist() == [True] + [False] * 999
        assert not batch.converged[0] and batch.converged[1:].all()

    def test_monotone_in_term_count(self):
        sampler = model_pair_sampler(beta2_cfg())
        vals = [sample_R(sampler, n_max=n, rel_tol=0.0, rng=4).value
                for n in (5, 10, 20, 40)]
        assert vals == sorted(vals)

    def test_mean_matches_fixed_point(self):
        # E R = E Q / (1 - E M) = 50 for the decay-exponent-2 model
        batch = sample_R_values(model_pair_sampler(beta2_cfg()), 100_000,
                                seed=5)
        assert batch.discard_rate == 0.0
        assert abs(batch.values.mean() - 50.0) < 2.0

    @pytest.mark.parametrize("setting", [dict(n_max=0)], ids=["n_max"])
    def test_silent_stop_settings_rejected(self, setting):
        with pytest.raises(ValueError):
            sample_R_values(model_pair_sampler(beta2_cfg()), 1000, seed=1,
                            **setting)
        with pytest.raises(ValueError):
            sample_Rbar_values(beta2_cfg(), 1000, seed=1, **setting)

    def test_divergent_multiplier_rejected(self):
        # E K = (0.02 - 0.025) E tau < 0, so E ln M = -E K > 0: neither
        # factory hands out a sampler whose perpetuity diverges
        bad = replace(beta2_cfg(), regime=RegimeSpec.constant(
            ThetaLaw.point_mass(0.02, 0.025)))
        for factory in (model_pair_sampler, qbar_pair_sampler):
            with pytest.raises(HypothesisViolation) as err:
                factory(bad)
            assert err.value.condition == "mean_drift_positive"

    @pytest.mark.parametrize("mu", [0.025, 0.021], ids=["EK_0.005",
                                                        "EK_0.001"])
    @pytest.mark.parametrize("sample", [
        lambda cfg: sample_R_values(model_pair_sampler(cfg), 1000, seed=1),
        lambda cfg: sample_Rbar_values(cfg, 1000, seed=1)],
        ids=["R", "R_bar"])
    def test_small_positive_drift_runs(self, sample, mu):
        # E ln M = -E K < 0 exactly, however small E K, so the chain
        # contracts where a sampled E ln M + 3 SE can read >= 0
        batch = sample(replace(beta2_cfg(), regime=RegimeSpec.constant(
            ThetaLaw.point_mass(mu, 0.02))))
        assert batch.discard_rate == 0.0 and not batch.non_finite.any()

    @pytest.mark.parametrize("sample", [
        lambda cfg: sample_R_values(model_pair_sampler(cfg), 1000, seed=1),
        lambda cfg: sample_Rbar_values(cfg, 1000, seed=1)],
        ids=["R", "R_bar"])
    def test_chain_without_investment_rejected(self, sample):
        # every multiplier is 1, so neither perpetuity converges
        with pytest.raises(HypothesisViolation) as err:
            sample(classical_config())
        assert err.value.condition == "mean_drift_positive"

    @pytest.mark.parametrize("sample", [
        lambda cfg, **kw: sample_R_values(model_pair_sampler(cfg), **kw),
        sample_Rbar_values], ids=["R", "R_bar"])
    def test_worker_count_leaves_the_bits(self, sample):
        one, two = (sample(beta2_cfg(), n_samples=3 * 4096, seed=5,
                           workers=w, chunk_size=4096) for w in (1, 2))
        np.testing.assert_array_equal(one.values, two.values)
        np.testing.assert_array_equal(one.n_terms, two.n_terms)


class TestSup:
    def test_alternating_signs_vs_enumeration(self):
        # oracle: enumerate every sign path of length 12 exactly
        depth = 12
        weights = 0.5 ** np.arange(depth)
        sups = []
        for signs in itertools.product((1.0, -1.0), repeat=depth):
            partial = np.cumsum(np.array(signs) * weights)
            sups.append(partial.max())
        sups = np.sort(sups)

        sampler = iid_pair_sampler(
            Distribution.deterministic(0.5),
            Distribution.discrete([(-1.0, 0.5), (1.0, 0.5)]))
        run = run_discounted_sup(sampler, 20_000, seed=2, n_max=100_000)
        assert run.stopped.all() and not run.non_finite.any()
        # truncation error of the oracle is below 2^-11
        grid = np.linspace(-0.9, 1.9, 40)
        cdf_oracle = np.searchsorted(sups, grid, side="right") / len(sups)
        cdf_mc = np.searchsorted(np.sort(run.sup), grid,
                                 side="right") / len(run.sup)
        assert np.max(np.abs(cdf_oracle - cdf_mc)) < 0.02

    def test_capped_premium_with_zero_bound_matches_plain(self):
        cfg = beta2_cfg(c=0.0)
        plain = sample_R_values(model_pair_sampler(cfg), 30_000, seed=3)
        capped = sample_Rbar_values(cfg, 30_000, seed=4)
        grid = np.quantile(plain.values, np.linspace(0.05, 0.95, 19))
        cdf_a = [(plain.values <= g).mean() for g in grid]
        cdf_b = [(capped.values <= g).mean() for g in grid]
        assert np.max(np.abs(np.array(cdf_a) - np.array(cdf_b))) < 0.02

    def test_multiplier_above_one_with_positive_increment_occurs(self):
        # the lower-bound machinery needs P(M > 1, Qbar > 0) > 0
        m, q, _ = qbar_pair_sampler(beta2_cfg())(RngStreams.from_seed(6),
                                                 np.zeros(100_000))
        assert np.mean((m > 1.0) & (q > 0.0)) > 0.0

    @pytest.mark.parametrize("cfg", list(CHAIN_CFGS.values()),
                             ids=list(CHAIN_CFGS))
    def test_qbar_caps_the_premium_at_c(self, cfg):
        # R is the chain at premium 0 and R_bar the chain with the premium
        # held at c_bar = premium.c, decaying or not: both read one draw
        blk = StepKernel(cfg).sample(RngStreams.from_seed(6), 1000,
                                     need_exp_integral=True)
        m = np.exp(blk.nu)
        want = {model_pair_sampler: blk.claim * m,
                qbar_pair_sampler: (blk.claim
                                    - cfg.premium.c * blk.exp_integral) * m}
        for factory, q_want in want.items():
            got_m, got_q, tau = factory(cfg)(RngStreams.from_seed(6),
                                             np.zeros(1000))
            np.testing.assert_array_equal(got_m, m)
            np.testing.assert_array_equal(got_q, q_want)
            assert tau is None          # neither chain reads a clock

    def test_rbar_exact_bits_pinned(self):
        # R_bar runs every term through the Brownian bridge, so unlike the
        # ruin counts these floats show any ulp-level drift in the kernel.
        batch = sample_Rbar_values(beta2_cfg(), 2048, seed=3)
        assert batch.values[0] == 45.6003508201988
        assert batch.values.sum() == 81652.13910878537
        assert batch.n_terms.sum() == 488462


def test_default_tolerance_within_a_chunks_bar():
    # one 16,384-row chunk of tests/perpetuity_audit.py: at the default
    # tolerance the truncation moves fewer rows above u than a third of the
    # chunk's own standard error, sqrt(n p (1 - p)) / 3, while 1e-4 moves
    # more at some u.  (The 1e6-sample bar of the full audit, scaled to one
    # chunk, is 0.6 rows at u = 300, which a single moved row exceeds.)
    u_grid = (10.0, 30.0, 100.0, 300.0)
    audits, _ = paired_audit(beta2_cfg(), 16_384, 1, seed=1,
                             tols=(1e-4, REL_TOL), u_grid=u_grid)
    for name, audit in audits.items():
        p = audit.above_ref / audit.n_rows
        bar = np.sqrt(audit.n_rows * p * (1.0 - p)) / 3.0
        loose, default = np.abs(audit.net)
        assert np.all(default < bar), (name, audit.net, bar)
        assert np.any(loose >= bar), (name, audit.net, bar)
        assert audit.largest_prod < 1e-12


class TestFixedPoint:
    def test_degenerate_case_zero_statistic(self):
        vals = np.full(20_000, 2.0)
        assert ks_fixed_point(vals, GEOM, 1) == pytest.approx(0.0, abs=1e-12)

    def test_model_fixed_point_small(self):
        batch = sample_R_values(model_pair_sampler(beta2_cfg()), 100_000,
                                seed=7)
        ks = ks_fixed_point(batch.converged_values(),
                            model_pair_sampler(beta2_cfg()), 8)
        assert ks <= 0.02

    def test_truncation_inflates_statistic(self):
        sampler = model_pair_sampler(beta2_cfg())
        full = sample_R_values(sampler, 50_000, seed=9)
        stunted = sample_R_values(sampler, 50_000, seed=9, n_max=3)
        ks_full = ks_fixed_point(full.values, sampler, 10)
        ks_stunted = ks_fixed_point(stunted.values, sampler, 10)
        assert ks_stunted > 5.0 * ks_full

    @pytest.mark.parametrize("n", [10_001, 65_536, 200_000])
    def test_statistic_matches_scipy_bit_for_bit(self, n):
        # above 10,000 a sample ks_2samp forms the statistic in its
        # asymptotic mode; rounding to 0.01 ties values within and across
        # the two samples
        rng = np.random.default_rng(n)
        a = np.round(rng.standard_normal(n), 2)
        b = np.round(1.01 * rng.standard_normal(n) + 0.01, 2)
        assert _ks_statistic(a, b) == ks_2samp(a, b).statistic

    def test_statistic_near_scipy_exact_mode(self):
        # at 10,000 a sample ks_2samp is exact and rounds D to the 1/n grid
        rng = np.random.default_rng(5)
        a = np.round(rng.standard_normal(10_000), 2)
        b = np.round(1.01 * rng.standard_normal(10_000) + 0.01, 2)
        assert abs(_ks_statistic(a, b) - ks_2samp(a, b).statistic) <= 1e-15


class TestGoldie:
    def test_degenerate_denominator(self):
        vals = np.abs(np.random.default_rng(0).standard_normal(10_000))
        unit = deterministic_pair_sampler(PerpetuityPair(1.0, 1.0))
        with pytest.raises(EstimationError):
            goldie_constant(vals, unit, 2.0, 1)

    def test_closed_form_oracle(self):
        # for the exponent-2 model: numerator = E Q^2 + 2 E[QM] E R = 102,
        # denominator = 2 E[M^2 ln M] = 0.08, so C = 1275 exactly
        cfg = beta2_cfg()
        sampler = model_pair_sampler(cfg)
        batch = sample_R_values(sampler, 200_000, seed=11)
        est = goldie_constant(batch.converged_values(), sampler, 2.0, 12)
        assert est.c_hat > 0
        assert abs(est.c_hat - 1275.0) <= 5.0 * est.stderr

    def test_off_root_alpha_warns(self):
        cfg = beta2_cfg()
        sampler = model_pair_sampler(cfg)
        batch = sample_R_values(sampler, 20_000, seed=13)
        with pytest.warns(UserWarning):
            goldie_constant(batch.values, sampler, 3.0, 14)


class TestTailPower:
    def test_log_log_slope_near_minus_beta(self):
        # tail-index regression over a geometric level grid
        batch = sample_R_values(model_pair_sampler(beta2_cfg()), 400_000,
                                seed=15)
        vals = batch.values
        grid = np.geomspace(100.0, 600.0, 6)
        tail = np.array([(vals > u).mean() for u in grid])
        slope = np.polyfit(np.log(grid), np.log(tail), 1)[0]
        assert abs(slope - (-2.0)) <= 0.3
