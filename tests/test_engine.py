import math
import tracemalloc
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from ruinlab import (Distribution, ModelConfig, PremiumSpec, RegimeSpec,
                     RngStreams, ThetaLaw, sample_nu)
from ruinlab.engine import (_BLOCK_FLOATS, DEFAULT_PREMIUM_NODES, StepKernel,
                            chain_pairs, discounted_sup)
from bridge_audit import ReplayNormals, paired_audit
from oracles import _draw_step
from test_ruin import piecewise_cfg


def _bridge_reference(kernel, normals, tau, nu, sigma, t_start):
    """Per-row oracle of the node-major bridge, one row at a time.

    ``normals[k - 1, i]`` is row i's normal at interior node k.  Every float
    goes through the kernel's rounding steps in the same order, and exp
    through the same numpy loop, so results must agree bit for bit.
    """
    m, prem = kernel.m, kernel.config.premium
    sig = np.broadcast_to(sigma, tau.shape)
    exp_integral, premium_int = np.empty(len(tau)), np.empty(len(tau))
    for i, (t, n_i, s_i, t0) in enumerate(zip(tau, nu, sig, t_start)):
        cell = t / m
        sd = np.sqrt(cell) * s_i
        growth = np.exp(-n_i)
        prem_acc = (growth * prem.rate(t0) + prem.rate(t0 + t)) * 0.5
        acc = (growth + 1.0) * 0.5
        b = 0.0
        for k in range(1, m):
            r = (m - k) / (m - k + 1)
            b = b * r + normals[k - 1, i] * math.sqrt(r)
            e = np.exp(n_i * (-(m - k) / m) - sd * b)
            acc += e
            prem_acc += e * prem.rate(t * (k / m) + t0)
        exp_integral[i], premium_int[i] = acc * cell, prem_acc * cell
    return exp_integral, premium_int if kernel.decay else None


THETAS = {
    "point": ThetaLaw.point_mass(0.06, 0.02),
    "finite": ThetaLaw.finite([((0.06, 0.02), 0.5), ((0.1, 0.08), 0.3),
                               ((0.03, 0.005), 0.2)]),
}
PREMIUMS = {
    "zero": PremiumSpec(),
    "constant": PremiumSpec(0.1),
    "exponential_decay": PremiumSpec(0.1, -0.05),
}


def _config(theta, premium):
    return ModelConfig(
        claim_dist=Distribution.exponential(1.0),
        interarrival_dist=Distribution.exponential(1.0),
        premium=premium, regime=RegimeSpec.constant(theta))


def _inputs(kernel, n, seed):
    """Interval lengths, nu and sigma as ``sample`` forms them, plus a
    nonzero premium clock."""
    rng = np.random.default_rng(seed)
    tau = kernel.config.interarrival_dist.sample(rng, n)
    if kernel._point:
        mu, hs = kernel._mu0, kernel._hs0
        sigma = math.sqrt(2.0 * hs)
    else:
        mu, hs = kernel._theta.sample(rng, n)
        sigma = np.sqrt(2.0 * hs)
    nu = -((mu - hs) * tau + rng.standard_normal(n) * (sigma * np.sqrt(tau)))
    return tau, nu, sigma, rng.uniform(0.0, 50.0, n)


@pytest.mark.parametrize("premium", sorted(PREMIUMS))
@pytest.mark.parametrize("theta", sorted(THETAS))
@pytest.mark.parametrize("m", [1, 2, 8, 33])
def test_node_major_bridge_matches_per_row_reference(m, theta, premium):
    kernel = StepKernel(_config(THETAS[theta], PREMIUMS[premium]), m)
    for n in (1, 7, 300):
        tau, nu, sigma, t_start = _inputs(kernel, n, seed=n + m)
        ours, ref = RngStreams.from_seed(17, n), RngStreams.from_seed(17, n)
        got = kernel._bridge_integrals(ours, tau, nu, sigma, t_start,
                                       kernel.decay)
        normals = ref.brownian.standard_normal((m - 1, n))
        want = _bridge_reference(kernel, normals, tau, nu, sigma, t_start)
        assert np.array_equal(got[0], want[0]), (n, "exp_integral")
        if want[1] is None:
            assert got[1] is None
        else:
            assert np.array_equal(got[1], want[1]), (n, "premium_int")
        # each row consumed exactly m - 1 Brownian normals
        assert ours.brownian.standard_normal() == ref.brownian.standard_normal()


@pytest.mark.parametrize("premium", sorted(PREMIUMS))
@pytest.mark.parametrize("theta", sorted(THETAS))
@pytest.mark.parametrize("m", [2, 8, 33])
def test_blocked_bridge_matches_full_width_oracle(m, theta, premium):
    # A row's integrals depend on its own normals only: the bridge run over
    # uneven row blocks, fed each block's slice of the node-major normals,
    # matches one full-width call bit for bit.
    kernel = StepKernel(_config(THETAS[theta], PREMIUMS[premium]), m)
    n, cuts = 1000, [0, 1, 8, 9, 300, 1000]
    tau, nu, sigma, t_start = _inputs(kernel, n, seed=m)
    full = RngStreams.from_seed(29, m)
    normals = RngStreams.from_seed(29, m).brownian.standard_normal((m - 1, n))
    want = kernel._bridge_integrals(full, tau, nu, sigma, t_start,
                                    kernel.decay)
    for r0, r1 in zip(cuts, cuts[1:]):
        rows = slice(r0, r1)
        block = SimpleNamespace(brownian=ReplayNormals(normals[:, rows]))
        sig = sigma[rows] if isinstance(sigma, np.ndarray) else sigma
        got = kernel._bridge_integrals(block, tau[rows], nu[rows], sig,
                                       t_start[rows], kernel.decay)
        assert np.array_equal(got[0], want[0][rows]), (r0, "exp_integral")
        if want[1] is None:
            assert got[1] is None
        else:
            assert np.array_equal(got[1], want[1][rows]), (r0, "premium_int")


@pytest.mark.parametrize("m", [1, 2, 8])
def test_bridge_mean_is_trapezoid_of_mean_growth(m):
    # E e^{v(s)} = e^{mu (tau - s)} at every node, so E of the m-node
    # integral is the trapezoid of e^{mu (tau - s)}.  The bridge carries
    # E e^{-sigma B_k} = e^{sigma^2 s_k (tau - s_k) / (2 tau)}, up to 6 % at
    # sigma^2 tau = 0.5, so a bridge of the wrong variance moves the mean.
    mu, hs, tau, n = 0.06, 0.05, 5.0, 1 << 16
    cfg = _config(ThetaLaw.point_mass(mu, hs), PREMIUMS["constant"])
    kernel, rng = StepKernel(cfg, m), np.random.default_rng(m)
    sigma = math.sqrt(2.0 * hs)
    taus = np.full(n, tau)
    nu = -((mu - hs) * tau + sigma * math.sqrt(tau) * rng.standard_normal(n))
    got, _ = kernel._bridge_integrals(RngStreams.from_seed(m), taus, nu,
                                      sigma, 0.0, False)
    nodes = np.exp(mu * tau * (1.0 - np.arange(m + 1) / m))
    want = tau / m * (nodes.sum() - (nodes[0] + nodes[-1]) / 2.0)
    assert abs(got.mean() - want) < 4.0 * got.std() / math.sqrt(n)


def test_default_node_count_passes_reduced_audit():
    # One chunk of the audit behind the module docstring's table, with the
    # engine's own integrals at the default m and at 32 nodes: the paired
    # bias is within three of its standard errors of the bar at every
    # audited reserve.  At this size the paired SE at u = 10 and 30 is about
    # 18 paths per 65,536 (5 discordant pairs of 8,192), so the test catches
    # a systematic bias of about 60 paths per 65,536, ten times the bar; the
    # full audit in the table is what resolves the bar itself.
    audit = paired_audit(_config(THETAS["point"], PREMIUMS["constant"]),
                         8192, 1, seed=29, ms=(DEFAULT_PREMIUM_NODES,))
    assert np.all(np.abs(audit.bias) <= audit.bar + 3.0 * audit.bias_se)


def test_default_step_integral_is_closed_form_trapezoid():
    # At the default m = 1 a constant-mode step draws one Brownian normal a
    # row (the endpoint), and its growth integral is tau (e^{-nu} + 1) / 2.
    assert DEFAULT_PREMIUM_NODES == 1
    cfg = _config(THETAS["finite"], PREMIUMS["constant"])
    ours, ref = RngStreams.from_seed(5), RngStreams.from_seed(5)
    blk = StepKernel(cfg).sample(ours, 1000, need_exp_integral=True)
    want = (np.exp(-blk.nu) + 1.0) * 0.5 * blk.tau
    assert np.array_equal(blk.exp_integral, want)
    assert np.array_equal(blk.premium, 0.1 * want)
    ref.brownian.standard_normal(1000)
    assert ours.brownian.standard_normal() == ref.brownian.standard_normal()


def test_step_allocates_no_full_width_bridge_temporaries():
    # One stray (n, m + 1) float64 temporary at n = 65536, m = 8 adds 4.7 MB;
    # the node-major bridge keeps a whole step near 6 MB.
    beta2 = _config(THETAS["point"], PREMIUMS["constant"])
    kernel = StepKernel(beta2, 8)
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


def _nan_on_call(call, pairs):
    """``pairs`` with the increment of row 0 set to NaN on its ``call``-th
    call."""
    calls = []

    def wrapped(streams, t):
        m, q, tau = pairs(streams, t)
        calls.append(None)
        if len(calls) == call:
            q[0] = math.nan
        return m, q, tau
    return wrapped


@pytest.mark.parametrize("rule", [dict(rel_tol=1e-6), dict(drop=20.0)],
                         ids=["contraction", "walk_drop"])
def test_nan_increment_stops_its_row(rule):
    def halving(streams, t):                 # D_n -> 2, prod = 2^-n
        return np.full(len(t), 0.5), np.ones(len(t)), None

    def walk(streams, t):                    # drift -1 a term
        return None, streams.brownian.standard_normal(len(t)) - 1.0, None

    pairs = halving if "rel_tol" in rule else walk
    run = discounted_sup(RngStreams.from_seed(4), 64,
                         pairs=_nan_on_call(3, pairs), n_max=10_000, **rule)
    assert run.non_finite[0] and run.stopped[0] and run.n_terms[0] == 3
    assert not run.non_finite[1:].any() and run.stopped[1:].all()
    assert np.isfinite(run.total[1:]).all() and run.n_terms[1:].min() > 3


DECAYING = PremiumSpec(0.1, -0.05)


@pytest.mark.parametrize("cfg", [
    _config(THETAS["point"], DECAYING),
    replace(piecewise_cfg(), premium=DECAYING),
    replace(_config(THETAS["point"], DECAYING), regime=None),
], ids=["beta2", "piecewise", "no_investment"])
def test_chain_advances_the_premium_clock(cfg):
    # A decaying premium is the one step that reads the clock: the loop
    # must carry each row's clock forward by its tau, as this replay does.
    kernel, n, steps = StepKernel(cfg), 300, 6
    run = discounted_sup(RngStreams.from_seed(31), n,
                         pairs=partial(chain_pairs, kernel), n_max=steps)
    assert not run.stopped.any()
    replay = RngStreams.from_seed(31)
    clock, total, prod = np.zeros(n), np.zeros(n), np.ones(n)
    sup = np.full(n, -np.inf)
    for _ in range(steps):
        blk = kernel.sample(replay, n, t_start=clock)
        m = np.exp(blk.nu)                   # 1 without investment
        total += prod * ((blk.claim - blk.premium) * m)
        sup = np.maximum(sup, total)
        prod *= m
        clock = clock + blk.tau
    assert np.array_equal(run.total, total)
    assert np.array_equal(run.sup, sup)


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
        got = np.c_[blk.tau, blk.nu, blk.premium - blk.claim,
                    blk.exp_integral]
        want = [[s.tau, s.nu, s.zeta, s.exp_integral] for s in steps]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
    for name in ("claims", "regime", "brownian"):
        assert getattr(ours, name).random() == getattr(ref, name).random()


@pytest.mark.parametrize("premium, t0", [
    (PremiumSpec(0.1), 0.0),
    (PremiumSpec(0.1, -0.05), 7.5),
], ids=["constant", "exponential_decay"])
def test_piecewise_step_matches_scalar_oracle(premium, t0):
    # one row consumes the three streams in the scalar step's order
    _assert_matches_oracle(replace(piecewise_cfg(), premium=premium), 1, 200,
                           t0)


def test_piecewise_blocks_match_scalar_oracle_row_by_row():
    # With fixed node values only tau, the increments and the claims are
    # drawn, in the same order for one wide sample as for one row at a
    # time; ~4.5 cells a row put 10,000 rows across three cell blocks.
    cfg = replace(piecewise_cfg(), premium=PremiumSpec(
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
