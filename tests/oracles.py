"""Scalar reference simulators and perpetuity helpers used by the tests.

Between claims the reserve follows a linear SDE with piecewise-constant
random coefficients, so the reserve at claim times obeys the random affine
recursion

    S_n = lam_n * S_{n-1} + zeta_n,      S_0 = u,

with lam_n = exp(K_n + Z_n) built from the integrated drift K_n and the
stochastic integral Z_n over the interval, and zeta_n equal to the
accumulated (growth-adjusted) premium minus the claim.  Ruin can only
happen at claim times, which is why the chain is sufficient for the ruin
probability.

These are one-interval-at-a-time implementations of that recursion: the
oracles that the vectorized ``engine.StepKernel`` is checked against.
Constant regimes resolve the interval on a grid of step ``grid_step``;
piecewise regimes use their own step h.  The continuous simulator advances
the same grid cells with exact per-cell exponential updates and a premium
rule chosen so that, on identical draws, its value at a claim time
reproduces the chain value to rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple, Union

import numpy as np

from ruinlab.distributions import Distribution
from ruinlab.engine import discounted_sup
from ruinlab.errors import DistributionError
from ruinlab.lundberg import sample_nu
from ruinlab.model import ModelConfig, PremiumSpec, RngStreams, as_streams
from ruinlab.perpetuity import PairSampler, _untimed
from ruinlab.ruin import barrier_level

DEFAULT_GRID_STEP = 1e-3


# -- regime and claim draws ------------------------------------------------------

@dataclass
class RegimeDraw:
    """One sampled quadruple restricted to its inter-claim interval.

    The coefficient paths are piecewise constant (right-continuous) on the
    cells of a grid covering [0, tau]; the final cell is prorated.  Wiener
    increments carry variance equal to the cell widths.
    """

    tau: float
    node_times: np.ndarray   # length m + 1, node_times[0] = 0, [-1] = tau
    widths: np.ndarray       # length m
    mu: np.ndarray           # per-cell drift values
    sigma: np.ndarray        # per-cell volatility values
    dW: np.ndarray           # per-cell Wiener increments
    coarse: bool             # fewer than 4 cells cover the interval

    @property
    def n_cells(self) -> int:
        return len(self.widths)


def _grid_for(tau: float, h: float) -> Tuple[np.ndarray, np.ndarray]:
    n = max(1, math.ceil(tau / h - 1e-12))
    nodes = np.minimum(np.arange(n + 1) * h, tau)
    nodes[-1] = tau
    return nodes, np.diff(nodes)


def draw_regime(config: ModelConfig, rng: Union[int, RngStreams],
                grid_step: float = DEFAULT_GRID_STEP) -> RegimeDraw:
    """Sample one quadruple (mu path, sigma path, tau, Wiener increments).

    The interval length and coefficient values come from the ``regime``
    stream, the Wiener increments from the ``brownian`` stream, so the
    increments are independent of (mu, sigma, tau) by construction.
    ``grid_step`` is the cell width for constant regimes.
    """
    if config.regime is None:
        raise DistributionError("no-investment configuration has no regime draws")
    streams = as_streams(rng)
    tau = float(config.interarrival_dist.sample(streams.regime))
    spec = config.regime
    h = spec.h if spec.mode == "piecewise" else grid_step
    nodes, widths = _grid_for(tau, h)
    m = len(widths)
    if spec.mode == "constant":
        mu0, hs0 = spec.theta.sample(streams.regime)
        mu = np.full(m, mu0)
        sigma = np.full(m, math.sqrt(2.0 * hs0))
    else:
        mu = np.atleast_1d(spec.mu_law.sample(streams.regime, m))
        sigma = np.atleast_1d(spec.sigma_law.sample(streams.regime, m))
    dW = streams.brownian.standard_normal(m) * np.sqrt(widths)
    return RegimeDraw(tau=tau, node_times=nodes, widths=widths, mu=mu,
                      sigma=sigma, dW=dW, coarse=m < 4)


def draw_claim(config: ModelConfig, rng: Union[int, RngStreams]) -> float:
    """Positive claim size from the dedicated claims stream."""
    return float(config.claim_dist.sample(as_streams(rng).claims))


# -- the scalar step ----------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddedStep:
    """One step record (lam, zeta, nu) plus its ingredients.

    ``lam == exp(-nu)`` exactly and ``nu == -(k_total + z_total)``;
    ``exp_integral`` is the growth integral over the interval, so the
    premium-capped increment bound is ``c_bar * exp_integral - claim``.
    """

    lam: float
    zeta: float
    nu: float
    k_total: float
    z_total: float
    tau: float
    premium_integral: float
    exp_integral: float


@dataclass
class ChainTrajectory:
    values: np.ndarray            # S_0 .. S_N
    ruin_index: Optional[int]     # first n with S_n < 0, or None
    stopped_reason: str           # "ruin" | "barrier" | "max_steps"
    steps: Optional[List[EmbeddedStep]] = None


@dataclass
class ContinuousResult:
    min_value: float
    ruined: bool
    n_claims: int
    claim_time_values: np.ndarray


def embedded_step(regime: RegimeDraw, claim: float, premium: PremiumSpec,
                  t_start: float) -> EmbeddedStep:
    """Compute (lam, zeta, nu) for one interval from a sampled quadruple.

    K(s) is integrated exactly over the piecewise-constant drift path from s
    to tau, Z(s) sums the per-cell Wiener contributions on [s, tau], and the
    premium integral uses the trapezoid rule on the grid nodes with the
    premium clock started at ``t_start``.
    """
    g = (regime.mu - 0.5 * regime.sigma ** 2) * regime.widths + regime.sigma * regime.dW
    # suffix growth v_k = K(s_k) + Z(s_k) at the grid nodes, v_last = 0
    v = np.zeros(regime.n_cells + 1)
    v[:-1] = np.cumsum(g[::-1])[::-1]
    k_total = float(np.sum((regime.mu - 0.5 * regime.sigma ** 2) * regime.widths))
    z_total = float(np.sum(regime.sigma * regime.dW))
    nu = -(k_total + z_total)
    lam = math.exp(-nu)
    e_nodes = np.exp(v)
    exp_integral = float(np.trapezoid(e_nodes, regime.node_times))
    if premium.is_zero:
        premium_integral = 0.0
    else:
        rates = premium.rate(t_start + regime.node_times)
        premium_integral = float(np.trapezoid(e_nodes * rates, regime.node_times))
    return EmbeddedStep(lam=lam, zeta=premium_integral - claim, nu=nu,
                        k_total=k_total, z_total=z_total, tau=regime.tau,
                        premium_integral=premium_integral,
                        exp_integral=exp_integral)


def classical_step(config: ModelConfig, claim: float, tau: float,
                   t_start: float) -> EmbeddedStep:
    """No-investment step: unit multiplier, premium income minus claim."""
    premium_integral = float(config.premium.integral(t_start, t_start + tau))
    return EmbeddedStep(lam=1.0, zeta=premium_integral - claim, nu=0.0,
                        k_total=0.0, z_total=0.0, tau=tau,
                        premium_integral=premium_integral, exp_integral=tau)


def _draw_step(config: ModelConfig, streams: RngStreams, t_start: float,
               grid_step: float = DEFAULT_GRID_STEP) -> EmbeddedStep:
    if config.has_investment:
        regime = draw_regime(config, streams, grid_step)
        claim = draw_claim(config, streams)
        return embedded_step(regime, claim, config.premium, t_start)
    tau = float(config.interarrival_dist.sample(streams.regime))
    claim = draw_claim(config, streams)
    return classical_step(config, claim, tau, t_start)


# -- scalar simulators ---------------------------------------------------------------

def simulate_chain(u: float, config: ModelConfig, max_steps: int,
                   barrier_multiple: float, rng: Union[int, RngStreams],
                   record_steps: bool = False,
                   grid_step: float = DEFAULT_GRID_STEP) -> ChainTrajectory:
    """Iterate the affine recursion until ruin, barrier escape, or step cap.

    A path above the barrier is declared survived (the positive mean log
    drift makes a later return below zero negligible); hitting ``max_steps``
    censors the path, which callers count separately.
    """
    if u < 0:
        raise ValueError("initial reserve must be >= 0")
    if max_steps < 1 or barrier_multiple <= 1:
        raise ValueError("need max_steps >= 1 and barrier_multiple > 1")
    streams = as_streams(rng)
    barrier = barrier_level(u, config, barrier_multiple)
    values = [float(u)]
    steps: List[EmbeddedStep] = []
    s = float(u)
    t_start = 0.0
    reason = "max_steps"
    ruin_index = None
    for n in range(1, max_steps + 1):
        step = _draw_step(config, streams, t_start, grid_step)
        s = step.lam * s + step.zeta
        t_start += step.tau
        values.append(s)
        if record_steps:
            steps.append(step)
        if s < 0.0:
            ruin_index = n
            reason = "ruin"
            break
        if s > barrier:
            reason = "barrier"
            break
    return ChainTrajectory(values=np.asarray(values), ruin_index=ruin_index,
                           stopped_reason=reason,
                           steps=steps if record_steps else None)


def simulate_continuous(u: float, config: ModelConfig, horizon: float,
                        rng: Union[int, RngStreams],
                        grid_step: float = DEFAULT_GRID_STEP
                        ) -> ContinuousResult:
    """Simulate the reserve path itself on the regime grids up to ``horizon``.

    Cells advance by the exact exponential update
    X <- X * G + (w/2) * (c(t) * G + c(t + w)), G = exp((mu - sigma^2/2) w
    + sigma dW), whose unrolled product over a full interval coincides with
    the trapezoid premium rule of the embedded step.  Claims are subtracted
    at the claim times; with the same seed the path at claim times matches
    the embedded chain to rounding error, and the ruin indicators agree.
    """
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    streams = as_streams(rng)
    x = float(u)
    min_value = x
    t = 0.0
    n_claims = 0
    claim_values = []
    ruined = False
    while t < horizon and not ruined:
        if config.has_investment:
            regime = draw_regime(config, streams, grid_step)
            claim = draw_claim(config, streams)
            growth = np.exp((regime.mu - 0.5 * regime.sigma ** 2) * regime.widths
                            + regime.sigma * regime.dW)
            rates = config.premium.rate(t + regime.node_times)
            full_interval = t + regime.tau <= horizon
            for i in range(regime.n_cells):
                if not full_interval and t + regime.node_times[i + 1] > horizon:
                    break
                x = x * growth[i] + 0.5 * regime.widths[i] * (
                    rates[i] * growth[i] + rates[i + 1])
                min_value = min(min_value, x)
            tau = regime.tau
        else:
            tau = float(config.interarrival_dist.sample(streams.regime))
            claim = draw_claim(config, streams)
            full_interval = t + tau <= horizon
            upto = tau if full_interval else max(0.0, horizon - t)
            x = x + float(config.premium.integral(t, t + upto))
        if not full_interval:
            break
        t += tau
        x -= claim
        n_claims += 1
        claim_values.append(x)
        min_value = min(min_value, x)
        if x < 0.0:
            ruined = True
    return ContinuousResult(min_value=min_value, ruined=ruined,
                            n_claims=n_claims,
                            claim_time_values=np.asarray(claim_values))


# -- perpetuity helpers --------------------------------------------------------------

@dataclass(frozen=True)
class PerpetuityPair:
    """One multiplier/increment pair; multipliers must be positive."""
    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("multiplier must be > 0")


@dataclass(frozen=True)
class PerpetuitySample:
    value: float
    n_terms: int
    converged: bool


def _const_pair(a: float, b: float, streams: RngStreams, n: int):
    return np.full(n, a), np.full(n, b)


def deterministic_pair_sampler(pair: PerpetuityPair) -> PairSampler:
    return partial(_const_pair, pair.a, pair.b)


def _iid_pair(m_dist: Distribution, q_dist: Distribution,
              streams: RngStreams, n: int):
    m = np.atleast_1d(m_dist.sample(streams.regime, n))
    q = np.atleast_1d(q_dist.sample(streams.claims, n))
    return m, q


def iid_pair_sampler(m_dist: Distribution, q_dist: Distribution) -> PairSampler:
    """Independent multiplier and increment laws (test harness helper)."""
    return partial(_iid_pair, m_dist, q_dist)


def sample_R(pair_sampler: PairSampler, n_max: int, rel_tol: float,
             rng: Union[int, RngStreams]) -> PerpetuitySample:
    """Single draw of the increasing perpetuity."""
    run = discounted_sup(as_streams(rng), 1,
                         pairs=partial(_untimed, pair_sampler), n_max=n_max,
                         rel_tol=rel_tol)
    return PerpetuitySample(float(run.total[0]), int(run.n_terms[0]),
                            bool(run.stopped[0]))


# -- Monte Carlo step-multiplier transform ------------------------------------------

def phi_nu_mc(config: ModelConfig, q: float, n: int,
              rng: Union[int, RngStreams], nu: Optional[np.ndarray] = None
              ) -> Tuple[float, float]:
    """Empirical E exp(q nu) over n kernel draws of nu (or the given draws),
    with its standard error."""
    if nu is None:
        nu = sample_nu(config, n, rng)
    w = np.exp(q * nu)
    return float(np.mean(w)), float(np.std(w, ddof=1) / math.sqrt(len(w)))
