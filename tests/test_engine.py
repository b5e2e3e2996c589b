import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ruinlab import (Distribution, ModelConfig, PremiumSpec, RegimeSpec,
                     RngStreams, ThetaLaw, sample_nu)
from ruinlab.engine import _BLOCK_FLOATS, StepKernel
from oracles import _draw_step
from test_ruin import piecewise_cfg


def _bridge_reference(kernel, streams, n, tau, mu, hs, sigma, z, t_start):
    """Full-width oracle: the pinned bridge as one (n, m + 1) computation.

    The kernel walks the rows in blocks with in-place steps; every element
    goes through the same rounding steps here, so results must agree bit for
    bit, and both must consume the same number of Brownian normals.  The
    (n, m + 1) @ (m + 1,) product runs on OpenBLAS threads from 460,800
    elements on; at 65,536 rows they split it on multiples of four rows, as
    a single thread would, when their number is a power of two.
    """
    m = kernel.m
    f = np.arange(m + 1) / m
    cell_sd = np.sqrt(tau / m)
    incr = streams.brownian.standard_normal((n, m)) * cell_sd[:, None]
    w = np.empty((n, m + 1))
    w[:, 0] = 0.0
    np.cumsum(incr, axis=1, out=w[:, 1:])
    w_target = z / sigma
    w += f[None, :] * (w_target - w[:, m])[:, None]
    drift = np.asarray(mu - hs)
    v = (drift * tau)[..., None] * (1.0 - f)[None, :] \
        + np.asarray(sigma)[..., None] * (w_target[:, None] - w)
    np.exp(v, out=v)
    weights = np.full(m + 1, 1.0)
    weights[0] = weights[m] = 0.5
    cell = (tau / m)
    exp_integral = (v @ weights) * cell
    prem = kernel.config.premium
    if prem.is_zero:
        return exp_integral, None
    if prem.mode == "constant":
        return exp_integral, prem.c * exp_integral
    if t_start is None:
        t_start = np.zeros(n)
    s_nodes = t_start[:, None] + tau[:, None] * f[None, :]
    rates = prem.rate(s_nodes)
    premium_int = ((v * rates) @ weights) * cell
    return exp_integral, premium_int


THETAS = {
    "point": ThetaLaw.point_mass(0.06, 0.02),
    "finite": ThetaLaw.finite([((0.06, 0.02), 0.5), ((0.1, 0.08), 0.3),
                               ((0.03, 0.005), 0.2)]),
}
PREMIUMS = {
    "zero": PremiumSpec.zero(),
    "constant": PremiumSpec.constant(0.1),
    "exponential_decay": PremiumSpec.exponential_decay(0.1, -0.05),
}


def _config(theta, premium):
    return ModelConfig(
        claim_dist=Distribution.exponential(1.0),
        interarrival_dist=Distribution.exponential(1.0),
        premium=premium, regime=RegimeSpec.constant(theta),
        mu_lower=0.0, sigma_upper=0.5, c_bar=0.1)


def _inputs(kernel, n, seed):
    """Interval lengths, coefficients and endpoint draws as ``sample`` forms
    them, plus a nonzero premium clock."""
    rng = np.random.default_rng(seed)
    tau = kernel.config.interarrival_dist.sample(rng, n)
    if kernel._point:
        mu, hs = kernel._mu0, kernel._hs0
        sigma = math.sqrt(2.0 * hs)
    else:
        mu, hs = kernel._theta.sample(rng, n)
        sigma = np.sqrt(2.0 * hs)
    z = rng.standard_normal(n) * (sigma * np.sqrt(tau))
    t_start = rng.uniform(0.0, 50.0, n)
    return tau, mu, hs, sigma, z, t_start


@pytest.mark.parametrize("premium", sorted(PREMIUMS))
@pytest.mark.parametrize("theta", sorted(THETAS))
@pytest.mark.parametrize("m", [2, 8, 33])
def test_blocked_bridge_matches_full_width_oracle(m, theta, premium):
    kernel = StepKernel(_config(THETAS[theta], PREMIUMS[premium]), m)
    rows = kernel._rows
    for n in (1, 7, rows - 1, rows, rows + 1, 3 * rows + 5, 65536):
        args = _inputs(kernel, n, seed=n + m)
        ours, ref = RngStreams.from_seed(17, n), RngStreams.from_seed(17, n)
        got = kernel._bridge_integrals(ours, n, *args)
        want = _bridge_reference(kernel, ref, n, *args)
        assert np.array_equal(got[0], want[0]), (n, "exp_integral")
        if want[1] is None:
            assert got[1] is None
        else:
            assert np.array_equal(got[1], want[1]), (n, "premium_int")
        assert ours.brownian.standard_normal() == ref.brownian.standard_normal()


def test_step_allocates_no_full_width_bridge_temporaries():
    # One stray (n, m + 1) float64 temporary at n = 65536, m = 8 adds 4.7 MB;
    # the blocked bridge keeps a whole step near 6 MB.
    beta2 = _config(THETAS["point"], PREMIUMS["constant"])
    kernel = StepKernel(beta2)
    streams = RngStreams.from_seed(3)
    n = 1 << 16
    kernel.sample(streams, n)
    tracemalloc.start()
    try:
        kernel.sample(streams, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _assert_matches_oracle(cfg, n_rows, calls, t0):
    """``calls`` kernel samples of ``n_rows`` rows against the scalar step,
    row by row, on twin streams; row i's premium clock is t0 + i / 2."""
    kernel = StepKernel(cfg)
    ours, ref = RngStreams.from_seed(23), RngStreams.from_seed(23)
    clock = t0 + 0.5 * np.arange(n_rows)
    for _ in range(calls):
        blk = kernel.sample(ours, n_rows, t_start=clock,
                            need_exp_integral=True)
        steps = [_draw_step(cfg, ref, float(c)) for c in clock]
        got = np.c_[blk.tau, blk.nu, blk.zeta, blk.exp_integral]
        want = [[s.tau, s.nu, s.zeta, s.exp_integral] for s in steps]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
    for name in ("claims", "regime", "brownian"):
        assert getattr(ours, name).random() == getattr(ref, name).random()


@pytest.mark.parametrize("premium, t0", [
    (PremiumSpec.constant(0.1), 0.0),
    (PremiumSpec.exponential_decay(0.1, -0.05), 7.5),
], ids=["constant", "exponential_decay"])
def test_piecewise_step_matches_scalar_oracle(premium, t0):
    # one row consumes the three streams in the scalar step's order
    _assert_matches_oracle(replace(piecewise_cfg(), premium=premium), 1, 200,
                           t0)


def test_piecewise_blocks_match_scalar_oracle_row_by_row():
    # With fixed node values only tau, the increments and the claims are
    # drawn, in the same order for one wide sample as for one row at a
    # time; ~4.5 cells a row put 10,000 rows across three cell blocks.
    cfg = replace(piecewise_cfg(), premium=PremiumSpec.exponential_decay(
        0.1, -0.05), regime=RegimeSpec.piecewise(
            0.25, Distribution.deterministic(0.06),
            Distribution.deterministic(0.2)))
    assert 10_000 * 4 > 2 * _BLOCK_FLOATS
    _assert_matches_oracle(cfg, 10_000, 1, 3.0)


def test_piecewise_nu_mean_is_minus_log_drift():
    cfg = piecewise_cfg()
    nu = sample_nu(cfg, 1 << 16, 5)
    se = nu.std(ddof=1) / math.sqrt(len(nu))
    assert abs(nu.mean() + cfg.expected_log_drift()) < 4.0 * se
