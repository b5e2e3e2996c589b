"""Monte Carlo ruin-probability estimation and tail analysis.

``estimate_psi_grid`` runs one coupled simulation for a whole grid of
initial reserves: every path applies the same (lam, zeta) draws to all
reserve levels at once.  Under this common-random-number coupling the
estimated ruin fraction is exactly nonincreasing in u (not merely up to
noise), and a monetary rescaling of the configuration reproduces the ruin
indicators bit-for-bit when the scale factor is a power of two.

Censoring is explicit: paths that outlive ``max_steps`` count as survived
but are reported through ``censored_fraction``; paths that climb past the
barrier are declared survived, which the positive mean log drift justifies.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .embedded import barrier_level, simulate_chain
from .engine import (DEFAULT_CHUNK_SIZE, DEFAULT_PREMIUM_NODES, StepKernel,
                     run_chunked, wilson_halfwidth)
from .errors import EstimationError, HypothesisViolation
from .model import ModelConfig

__all__ = ["RuinEstimate", "TailFit", "ClassicalRuin", "estimate_psi",
           "estimate_psi_grid", "classical_psi", "fit_tail", "bounds_check",
           "rw_max_diagnostic"]


@dataclass(frozen=True)
class RuinEstimate:
    u: float
    psi_hat: float
    ci_halfwidth: float          # 95% Wilson half-width
    n_paths: int
    censored_fraction: float


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
    ratios: tuple                # (u, u^beta * psi_hat) pairs


# -- chain engine ---------------------------------------------------------------

def _chain_chunk(streams, size, *, config, u_grid, max_steps, barrier_multiple,
                 premium_nodes):
    kernel = StepKernel(config, premium_nodes)
    k = len(u_grid)
    s = np.tile(np.asarray(u_grid, dtype=float), (size, 1))
    active = np.ones((size, k), dtype=bool)
    barriers = np.array([barrier_level(u, config, barrier_multiple)
                         for u in u_grid])
    t_start = np.zeros(size)
    ruined = np.zeros(k, dtype=np.int64)
    mask = np.empty((size, k), dtype=bool)
    for _ in range(max_steps):
        n_rows = len(s)
        blk = kernel.sample(streams, n_rows, t_start=t_start)
        if blk.lam is not None:
            np.multiply(s, blk.lam[:, None], out=s)
        s += blk.zeta[:, None]
        t_start += blk.tau
        hit = np.less(s, 0.0, out=mask[:n_rows])
        hit &= active
        ruined += np.count_nonzero(hit, axis=0)
        active ^= hit                     # hit is a subset of active
        np.greater(s, barriers, out=hit)
        np.logical_not(hit, out=hit)
        active &= hit
        alive = active.any(axis=1)
        n_alive = np.count_nonzero(alive)
        if n_alive == 0:
            break
        if n_alive < 0.7 * n_rows:
            s, active, t_start = s[alive], active[alive], t_start[alive]
    return ruined, np.count_nonzero(active, axis=0).astype(np.int64)


def _scalar_chain_chunk(streams, size, *, config, u_grid, max_steps,
                        barrier_multiple):
    """Piecewise-regime fallback: one path at a time per reserve level."""
    k = len(u_grid)
    ruined = np.zeros(k, dtype=np.int64)
    censored = np.zeros(k, dtype=np.int64)
    for _ in range(size):
        for j, u in enumerate(u_grid):
            traj = simulate_chain(u, config, max_steps, barrier_multiple, streams)
            if traj.stopped_reason == "ruin":
                ruined[j] += 1
            elif traj.stopped_reason == "max_steps":
                censored[j] += 1
    return ruined, censored


def estimate_psi_grid(u_grid: Sequence[float], config: ModelConfig,
                      n_paths: int, max_steps: int = 10_000,
                      barrier_multiple: float = 1_000.0, seed: int = 0,
                      workers: int = 1, chunk_size: int = DEFAULT_CHUNK_SIZE,
                      premium_nodes: int = DEFAULT_PREMIUM_NODES
                      ) -> List[RuinEstimate]:
    """Coupled ruin-fraction estimates for every reserve level in the grid."""
    if n_paths < 100:
        raise ValueError("need at least 100 paths")
    if any(u < 0 for u in u_grid):
        raise ValueError("initial reserves must be >= 0")
    u_grid = tuple(float(u) for u in u_grid)
    vectorizable = (not config.has_investment
                    or config.regime.mode == "constant")
    if vectorizable:
        results = run_chunked(_chain_chunk, n_paths, seed, workers, chunk_size,
                              config=config, u_grid=u_grid, max_steps=max_steps,
                              barrier_multiple=barrier_multiple,
                              premium_nodes=premium_nodes)
    else:
        results = run_chunked(_scalar_chain_chunk, n_paths, seed, workers,
                              chunk_size, config=config, u_grid=u_grid,
                              max_steps=max_steps,
                              barrier_multiple=barrier_multiple)
    ruined = np.sum([r for r, _ in results], axis=0)
    censored = np.sum([c for _, c in results], axis=0)
    return [
        RuinEstimate(u=u, psi_hat=ruined[j] / n_paths,
                     ci_halfwidth=wilson_halfwidth(int(ruined[j]), n_paths),
                     n_paths=n_paths,
                     censored_fraction=censored[j] / n_paths)
        for j, u in enumerate(u_grid)
    ]


def estimate_psi(u: float, config: ModelConfig, n_paths: int,
                 max_steps: int = 10_000, barrier_multiple: float = 1_000.0,
                 seed: int = 0, workers: int = 1,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 premium_nodes: int = DEFAULT_PREMIUM_NODES) -> RuinEstimate:
    """Ruin-probability estimate at a single initial reserve."""
    return estimate_psi_grid([u], config, n_paths, max_steps, barrier_multiple,
                             seed, workers, chunk_size, premium_nodes)[0]


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
    sd = np.array([e.ci_halfwidth / e.psi_hat for e in keep]) / 1.959963984540054
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
    ratios = [(e.u, e.u ** beta * e.psi_hat) for e in estimates if e.psi_hat > 0]
    if not ratios:
        raise EstimationError("no positive estimates to form ratios")
    vals = [r for _, r in ratios]
    return BoundsCheck(ratio_min=min(vals), ratio_max=max(vals),
                       spread=max(vals) / min(vals), ratios=tuple(ratios))


# -- random-walk maximum diagnostic --------------------------------------------------

def _rw_chunk(streams, size, *, config, thresholds, max_steps, drop):
    kernel = StepKernel(config, premium_nodes=2)
    u_walk = np.zeros(size)
    runmax = np.full(size, -np.inf)
    counts = np.zeros(len(thresholds), dtype=np.int64)
    th = np.asarray(thresholds)
    for _ in range(max_steps):
        if len(u_walk) == 0:
            break
        blk = kernel.sample(streams, len(u_walk), need_claim=False)
        u_walk = u_walk + blk.nu
        np.maximum(runmax, u_walk, out=runmax)
        stopped = (u_walk - runmax) < -drop
        if stopped.any():
            counts += (runmax[stopped][:, None] > th[None, :]).sum(axis=0)
            keep = ~stopped
            u_walk, runmax = u_walk[keep], runmax[keep]
    if len(runmax):
        counts += (runmax[:, None] > th[None, :]).sum(axis=0)
    return counts


def rw_max_diagnostic(config: ModelConfig, u_grid: Sequence[float],
                      n_paths: int, seed: int = 0, max_steps: int = 10_000,
                      barrier_multiple: float = 1_000.0, workers: int = 1,
                      chunk_size: int = DEFAULT_CHUNK_SIZE) -> List[dict]:
    """Estimate P(max of the nu random walk > ln u) on the reserve grid.

    The walk mirrors the chain's stopping discipline: a path whose level
    falls ln(barrier_multiple) below its running maximum is frozen, and the
    step cap censors the rest.  All thresholds are evaluated on the same
    walks.
    """
    config.require_positive_drift()
    if not config.has_investment:
        raise HypothesisViolation(
            "mean_drift_positive",
            "the log-return walk is degenerate without investment")
    thresholds = [math.log(u) for u in u_grid]
    results = run_chunked(_rw_chunk, n_paths, seed, workers, chunk_size,
                          config=config, thresholds=thresholds,
                          max_steps=max_steps, drop=math.log(barrier_multiple))
    counts = np.sum(results, axis=0)
    return [
        {"u": float(u), "p_hat": counts[j] / n_paths,
         "ci_halfwidth": wilson_halfwidth(int(counts[j]), n_paths)}
        for j, u in enumerate(u_grid)
    ]
