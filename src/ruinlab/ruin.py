"""Monte Carlo ruin-probability estimation and tail analysis.

Dividing the chain S_n = lam_n S_{n-1} + zeta_n by P_n = prod_{k<=n} lam_k
gives S_n / P_n = u - D_n with D_n = sum_k Q_k prod_{i<k} M_i and
(M, Q) = (1/lam, -zeta/lam), so ruin at u is the event sup_n D_n > u.
``estimate_psi_grid`` runs ``engine.discounted_sup`` once per path and reads
every reserve off the same supremum: the estimated ruin fraction is exactly
nonincreasing in u (not merely up to noise), for constant and piecewise
regimes alike, and a monetary rescaling by a power of two reproduces the
ruin indicators bit for bit.

A path stops once D_n has dropped ``barrier_multiple`` mean claims below
its supremum (walk drop), or, with investment, once prod M < REL_TOL
max(|sup| / m, 1), m the mean claim (contraction).  The rule reads no
reserve, so psi_hat(u) does not depend on the rest of the grid.  Paths
still running after ``max_steps`` with a supremum at most u count as
survived and are reported in ``censored_fraction``; paths whose state turns
NaN or infinite stop there, count as neither ruined nor censored, and are
reported in ``non_finite_fraction``.

Paired bias of the contraction tolerance eps on beta2 (8-node bridge, seeds
5 / 17): ruined paths of a 65,536-path chunk at the stop minus the same rows
run on with the rule off for 1,600 steps (largest product left below 1e-11):

    eps    steps/path  u = 10    30         100       300 ... 2400
    1e-5   208         -8 / -3   -9 / -14   -1 / -3   0
    3e-6   238         -1 / 0    -3 / -4    0 / 0     0
    1e-6   265         0 / 0     -1 / -2    0 / 0     0

A third of the 1e6-path standard error is 6.2 such paths at u = 10 and
10.8 at u = 30, so 3e-6 is the loosest of the three whose bias stays below
it at every u.  ``engine.REL_TOL`` holds it as ``discounted_sup``'s one
stop tolerance, so the perpetuity samplers stop at the same tolerance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import List, Sequence

import numpy as np

from .engine import (DEFAULT_CHUNK_SIZE, Z_95, StepKernel, chain_pairs,
                     run_discounted_sup, wilson_halfwidth)
from .errors import EstimationError
from .model import ModelConfig

__all__ = ["RuinEstimate", "TailFit", "ClassicalRuin", "estimate_psi_grid",
           "classical_psi", "fit_tail", "bounds_check", "rw_max_diagnostic",
           "barrier_level"]


@dataclass(frozen=True)
class RuinEstimate:
    u: float
    psi_hat: float
    ci_halfwidth: float          # 95% Wilson half-width
    n_paths: int
    censored_fraction: float
    non_finite_fraction: float = 0.0   # paths stopped on a NaN or inf state


@dataclass(frozen=True)
class TailFit:
    slope: float
    slope_stderr: float
    intercept: float
    u_grid: tuple
    r_squared: float


@dataclass(frozen=True)
class ClassicalRuin:
    value: float
    loading_ok: bool


@dataclass(frozen=True)
class BoundsCheck:
    ratio_min: float
    ratio_max: float
    spread: float


# -- chain engine ---------------------------------------------------------------

def barrier_level(u: float, config: ModelConfig, barrier_multiple: float) -> float:
    """Survival barrier used by the stopping rule.

    Scaled off max(u, mean claim) so that small initial reserves still get a
    meaningful barrier; the floor scales with money, which preserves the
    exact monetary-scaling invariance of the ruin indicator.
    """
    floor = config.claim_dist.moment(1.0)
    if not math.isfinite(floor) or floor <= 0.0:
        floor = max(config.claim_dist.support()[0], 1.0)
    return barrier_multiple * max(u, floor)


def estimate_psi_grid(u_grid: Sequence[float], config: ModelConfig,
                      n_paths: int, max_steps: int = 10_000,
                      barrier_multiple: float = 1_000.0, seed: int = 0,
                      workers: int = 1, chunk_size: int = DEFAULT_CHUNK_SIZE
                      ) -> List[RuinEstimate]:
    """Coupled ruin-fraction estimates for every reserve level in the grid."""
    if n_paths < 100:
        raise ValueError("need at least 100 paths")
    if max_steps < 1 or barrier_multiple <= 0.0:
        raise ValueError("need max_steps >= 1 and barrier_multiple > 0")
    if any(u < 0 for u in u_grid):
        raise ValueError("initial reserves must be >= 0")
    u_grid = tuple(float(u) for u in u_grid)
    pairs = partial(chain_pairs, StepKernel(config))
    run = run_discounted_sup(
        pairs, n_paths, seed, workers, chunk_size, n_max=max_steps,
        drop=barrier_level(0.0, config, barrier_multiple),
        scale=barrier_level(0.0, config, 1.0))
    bad_sup = run.sup[run.non_finite]           # no full-width copy of sup
    unstopped_sup = run.sup[~(run.stopped | run.non_finite)]
    ruined = [np.count_nonzero(run.sup > u) - np.count_nonzero(bad_sup > u)
              for u in u_grid]
    censored = [np.count_nonzero(unstopped_sup <= u) for u in u_grid]
    non_finite = np.count_nonzero(run.non_finite) / n_paths
    return [
        RuinEstimate(u=u, psi_hat=ruined[j] / n_paths,
                     ci_halfwidth=wilson_halfwidth(ruined[j], n_paths),
                     n_paths=n_paths,
                     censored_fraction=censored[j] / n_paths,
                     non_finite_fraction=non_finite)
        for j, u in enumerate(u_grid)
    ]


# -- classical closed form --------------------------------------------------------

def classical_psi(lambda_rate: float, claim_mean: float, c: float, u: float
                  ) -> ClassicalRuin:
    """Exact ruin probability for Poisson arrivals and exponential claims.

    psi(u) = (lambda m / c) exp(-(1/m - lambda/c) u) under positive safety
    loading lambda m < c.  When the loading fails, certain ruin is reported
    as a flagged value of 1 rather than an exception.
    """
    if lambda_rate <= 0 or claim_mean <= 0 or c <= 0:
        raise ValueError("rates, means, and premium must be positive")
    if u < 0:
        raise ValueError("initial reserve must be >= 0")
    rho = lambda_rate * claim_mean / c
    if rho >= 1.0:
        return ClassicalRuin(value=1.0, loading_ok=False)
    decay = 1.0 / claim_mean - lambda_rate / c
    return ClassicalRuin(value=rho * math.exp(-decay * u), loading_ok=True)


# -- tail regression and bounds ----------------------------------------------------

def fit_tail(estimates: Sequence[RuinEstimate]) -> TailFit:
    """Weighted log-log regression of the ruin estimates.

    Weights are inverse squared relative interval widths, i.e. inverse
    variance on the log scale.  Zero estimates cannot enter a log fit and
    are dropped with a warning.
    """
    if len(estimates) < 4:
        raise ValueError("tail fit needs at least 4 grid points")
    us = np.array([e.u for e in estimates])
    if np.any(np.diff(us) <= 0):
        raise ValueError("u grid must be strictly increasing")
    keep = [e for e in estimates if e.psi_hat > 0.0]
    if len(keep) < len(estimates):
        warnings.warn(f"dropping {len(estimates) - len(keep)} zero ruin "
                      "estimates from the tail fit", stacklevel=2)
    if len(keep) < 2:
        raise EstimationError("not enough positive estimates for a tail fit")
    x = np.log([e.u for e in keep])
    y = np.log([e.psi_hat for e in keep])
    # sd of log psi_hat ~ (wilson halfwidth / psi_hat) / z
    sd = np.array([e.ci_halfwidth / e.psi_hat for e in keep]) / Z_95
    w = 1.0 / sd ** 2
    xm = np.average(x, weights=w)
    ym = np.average(y, weights=w)
    sxx = np.sum(w * (x - xm) ** 2)
    slope = np.sum(w * (x - xm) * (y - ym)) / sxx
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    ss_res = np.sum(w * resid ** 2)
    ss_tot = np.sum(w * (y - ym) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return TailFit(slope=float(slope), slope_stderr=float(1.0 / math.sqrt(sxx)),
                   intercept=float(intercept),
                   u_grid=tuple(e.u for e in keep), r_squared=float(r2))


def bounds_check(beta: float, estimates: Sequence[RuinEstimate]) -> BoundsCheck:
    """Ratios r(u) = u^beta psi_hat(u); a bounded spread is the two-sided
    power-bound signature."""
    vals = [e.u ** beta * e.psi_hat for e in estimates if e.psi_hat > 0]
    if not vals:
        raise EstimationError("no positive estimates to form ratios")
    return BoundsCheck(ratio_min=min(vals), ratio_max=max(vals),
                       spread=max(vals) / min(vals))


# -- random-walk maximum diagnostic --------------------------------------------------

def _walk_pairs(kernel, streams, t):
    return None, kernel.sample(streams, len(t), need_claim=False).nu, None


def rw_max_diagnostic(config: ModelConfig, u_grid: Sequence[float],
                      n_paths: int, seed: int = 0, max_steps: int = 10_000,
                      barrier_multiple: float = 1_000.0, workers: int = 1,
                      chunk_size: int = DEFAULT_CHUNK_SIZE) -> List[dict]:
    """Estimate P(max of the nu random walk > ln u) on the reserve grid.

    The walk is the discounted supremum with pairs (1, nu): a path stops
    once it falls ln(barrier_multiple) below its running maximum, and the
    step cap ends the rest.  All thresholds are evaluated on the same walks.
    """
    if max_steps < 1 or barrier_multiple <= 1.0:
        raise ValueError("need max_steps >= 1 and barrier_multiple > 1: the "
                         "walk drops ln(barrier_multiple)")
    config.require_positive_drift()
    run = run_discounted_sup(partial(_walk_pairs, StepKernel(config)),
                             n_paths, seed, workers, chunk_size,
                             n_max=max_steps, drop=math.log(barrier_multiple))
    counts = [np.count_nonzero(run.sup > math.log(u)) for u in u_grid]
    return [
        {"u": float(u), "p_hat": counts[j] / n_paths,
         "ci_halfwidth": wilson_halfwidth(counts[j], n_paths)}
        for j, u in enumerate(u_grid)
    ]
