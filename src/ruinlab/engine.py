"""Vectorized lockstep sampling kernels for the Monte Carlo estimators.

Paths are advanced in lockstep across a chunk: every step draws the
interval length, coefficients, Wiener summary, and claim for all live rows
at once, then applies the affine update.  Rows whose every target has
stopped are compacted away.  Work is split into fixed-size chunks, each
owning generator streams derived from (master seed, chunk index), so a
result depends only on (seed, chunk size) and never on the worker count.

``StepKernel`` is the one step implementation for both regime modes.  In
constant-coefficient mode the interval aggregate uses the exact closed
forms K = (mu - sigma^2/2) tau and Z ~ Normal(0, sigma^2 tau); a Brownian
bridge over a small node grid is used only for the growth integral that
feeds the premium (and the premium-capped increment bound).  In piecewise
mode every grid cell of step h draws its own (mu, sigma) and Wiener
increment; nu sums the cells of a row and both integrals are the trapezoid
over the cell nodes.

``discounted_sup`` is the one lockstep loop over step pairs (M, Q): it runs
D_n = sum_k Q_k prod_{i<k} M_i and its running supremum for a chunk of rows,
which serves the ruin chain, the log-return walk and both perpetuities.

The bridge runs node-major: one standard normal per interior node and row,
m - 1 a row, and every operation a contiguous pass over all rows, so no
(rows, m) array is formed and the bits depend on no BLAS kernel.  Piecewise
rows go through blocks of about ``_BLOCK_FLOATS`` cells.

Node count m, by a paired audit on beta2 (``tests/bridge_audit.py``, 24
chunks of 65,536 paths, seed 11) in which every m reads its nodes off one
32-cell bridge on the same draws and integrates them with this bridge:
ruined paths per 65,536 at m minus at 32 nodes / paired SE; bar, a third of
the 1e6-path SE of psi_hat; KS, 1e4 times the KS statistic of one step's
growth integral against the 32-node one (524,288 steps, 5 % point 27 for
independent samples), for the trapezoid / the log-linear cell rule
h (e^b - e^a) / (b - a):

    m    u = 10    30        100       300       1000      2400      KS
    1    -3.0/1.3  +0.3/1.5  +1.2/0.6  -0.1/0.2  +0.1/0.1  -0.1/0.1  15/16
    2    -0.9/0.9  -0.2/1.0  +0.4/0.5  -0.1/0.2   0.0/0.1   0.0/0.0   6/9
    4    -0.2/0.6  +1.2/0.7  -0.5/0.3   0.0/0.2   0.0/0.0   0.0/0.0   3/6
    8    -0.3/0.5  +0.7/0.5   0.0/0.2  +0.1/0.1   0.0/0.0   0.0/0.0   2/4
    bar   6.2      10.9       5.8       2.2       0.7       0.3

Every m is below the bar at every u, so the default is the smallest, m = 1:
no bridge normals, and the growth integral tau (e^L + 1) / 2 with L = -nu.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Union

import numpy as np

from .model import ModelConfig, RngStreams

__all__ = ["StepKernel", "StepBlock", "SupRun", "chain_pairs", "discounted_sup",
           "run_discounted_sup", "run_chunked", "wilson_halfwidth",
           "DEFAULT_CHUNK_SIZE", "DEFAULT_PREMIUM_NODES", "REL_TOL", "Z_95"]

DEFAULT_CHUNK_SIZE = 1 << 16
DEFAULT_PREMIUM_NODES = 1
# Contraction tolerance of the ruin chain and both perpetuities; paired bias
# audits in the ``ruin`` (chain) and ``perpetuity`` (R, R_bar, c_hat)
# docstrings.
REL_TOL = 3e-6
Z_95 = 1.959963984540054          # two-sided 95% standard normal quantile
_BLOCK_FLOATS = 1 << 14           # float64s per piecewise cell block


@dataclass
class StepBlock:
    """Per-step draw for a block of paths (all arrays share one length);
    ``premium`` is the step's premium integral, None where no claim is drawn
    or the premium is 0."""

    tau: np.ndarray
    nu: np.ndarray
    claim: Optional[np.ndarray]
    premium: Optional[np.ndarray]
    exp_integral: Optional[np.ndarray]


class StepKernel:
    """Draws step blocks for a configuration, in either regime mode.

    ``premium_nodes`` is the Brownian-bridge node count m of the growth
    integral in constant mode; the integral enters only through the premium
    term, and the audit in the module docstring sets the default.  The
    audit runs its 32-node reference and every m through this bridge.
    Piecewise regimes integrate over their own cell nodes instead.
    """

    def __init__(self, config: ModelConfig, premium_nodes: int = DEFAULT_PREMIUM_NODES):
        self.config = config
        self.m = int(premium_nodes)
        if self.m < 1:
            raise ValueError("premium_nodes must be >= 1")
        self.investment = config.has_investment
        self._piecewise = self.investment and config.regime.mode == "piecewise"
        if self.investment and not self._piecewise:
            theta = config.regime.theta
            self._point = theta.is_point_mass
            if self._point:
                (self._mu0, self._hs0), _ = theta.atoms[0]
            self._theta = theta
        prem = config.premium             # only a decaying one reads the clock
        self.decay = prem.c != 0.0 and prem.gamma_rate != 0.0

    def sample(self, streams: RngStreams, n: int,
               t_start: Union[float, np.ndarray] = 0.0,
               need_claim: bool = True,
               need_exp_integral: bool = False) -> StepBlock:
        cfg = self.config
        tau = np.atleast_1d(cfg.interarrival_dist.sample(streams.regime, n))
        want_premium = need_claim and cfg.premium.c != 0.0
        want_integrals = need_exp_integral or want_premium
        decay = want_premium and self.decay
        exp_integral = premium = None
        if not self.investment:
            nu, exp_integral = np.zeros(n), tau
            if decay:
                premium = cfg.premium.integral(t_start, t_start + tau)
        elif self._piecewise:
            nu, exp_integral, premium = self._cell_steps(
                streams, tau, t_start, want_integrals, decay)
        else:
            if self._point:
                mu, hs = self._mu0, self._hs0
                sigma = math.sqrt(2.0 * self._hs0)
            else:
                mu, hs = self._theta.sample(streams.regime, n)
                sigma = np.sqrt(2.0 * hs)
            k_tot = (mu - hs) * tau
            z = streams.brownian.standard_normal(n) * (sigma * np.sqrt(tau))
            nu = -(k_tot + z)
            if want_integrals:
                exp_integral, premium = self._bridge_integrals(
                    streams, tau, nu, sigma, t_start, decay)
        if want_premium and not decay:
            premium = cfg.premium.c * exp_integral
        # drawn last: the claim array carries Q out of the step
        claim = (np.atleast_1d(cfg.claim_dist.sample(streams.claims, n))
                 if need_claim else None)
        return StepBlock(tau=tau, nu=nu, claim=claim, premium=premium,
                         exp_integral=exp_integral if need_exp_integral else None)

    def _cell_steps(self, streams, tau, t_start, want_integrals, decay):
        """nu and the growth and decaying-premium integrals of piecewise cells.

        Cell k of a row spans [k h, min((k + 1) h, tau)] and draws its own mu,
        sigma and Wiener increment; nu is minus the sum of a row's cell log
        growths.  v at a cell's left node is the log growth from that node to
        tau, and both integrals are the trapezoid over the cell nodes.  v is
        one suffix sum over the block less the sum beyond the row, exact to
        rounding of order eps times the block's summed log growth.  Rows go
        through blocks of about ``_BLOCK_FLOATS`` cells; a block draws mu for
        all its cells, then sigma, then the increments.
        """
        spec, prem, n = self.config.regime, self.config.premium, len(tau)
        counts = np.maximum(1, np.ceil(tau / spec.h - 1e-12).astype(np.int64))
        ends = np.cumsum(counts)
        nu = np.empty(n)
        exp_integral = np.empty(n) if want_integrals else None
        premium_int = np.empty(n) if decay else None
        r1 = 0
        while r1 < n:
            r0, base = r1, ends[r1 - 1] if r1 else 0
            r1 = max(r0 + 1, int(np.searchsorted(ends, base + _BLOCK_FLOATS,
                                                 side="right")))
            cnt, total = counts[r0:r1], int(ends[r1 - 1] - base)
            first = ends[r0:r1] - cnt - base
            last = first + cnt - 1
            node = (np.arange(total) - np.repeat(first, cnt)) * spec.h
            end = np.empty(total)
            end[:-1] = node[1:]
            end[last] = tau[r0:r1]
            width = end - node
            mu = np.atleast_1d(spec.mu_law.sample(streams.regime, total))
            sig = np.atleast_1d(spec.sigma_law.sample(streams.regime, total))
            dw = streams.brownian.standard_normal(total) * np.sqrt(width)
            g = (mu - 0.5 * sig ** 2) * width + sig * dw
            nu[r0:r1] = -np.add.reduceat(g, first)
            if not want_integrals:
                continue
            v = np.cumsum(g[::-1])[::-1]          # suffix sums over the block
            v -= np.repeat(np.append(v[first[1:]], 0.0), cnt)   # ... per row
            e0 = np.exp(v)
            e1 = np.empty(total)
            e1[:-1] = e0[1:]
            e1[last] = 1.0
            exp_integral[r0:r1] = np.add.reduceat(width * (e0 + e1) / 2.0, first)
            if decay:
                t0 = np.repeat(np.broadcast_to(t_start, n)[r0:r1], cnt)
                area = e0 * prem.rate(t0 + node) + e1 * prem.rate(t0 + end)
                premium_int[r0:r1] = np.add.reduceat(width * area / 2.0, first)
        return nu, exp_integral, premium_int

    def _bridge_integrals(self, streams, tau, nu, sigma, t0, decay):
        """Growth and decaying-premium integrals via a pinned bridge.

        v_k = (1 - k/m) L - sigma B_k is the log growth from s_k = (k/m) tau
        to tau, L = -nu.  The bridge B from 0 to 0 is built node by node from
        one normal per interior node and row: in units of sqrt(tau / m),
        b_k = r_k b_{k-1} + sqrt(r_k) N_k with r_k = (m - k) / (m - k + 1).
        """
        m, prem, premium_int = self.m, self.config.premium, None
        cell = tau / m
        growth = np.exp(-nu)
        if decay:
            premium_int = (growth * prem.rate(t0) + prem.rate(t0 + tau)) * 0.5
        exp_integral = (growth + 1.0) * 0.5
        if m > 1:
            sd = np.sqrt(cell) * sigma
            b, node, v = (np.zeros(len(tau)), np.empty(len(tau)),
                          np.empty(len(tau)))
        for k in range(1, m):
            r = (m - k) / (m - k + 1)
            streams.brownian.standard_normal(out=node)
            node *= math.sqrt(r)
            b *= r
            b += node
            np.multiply(nu, -(m - k) / m, out=v)
            v -= np.multiply(sd, b, out=node)
            np.exp(v, out=v)
            exp_integral += v
            if decay:
                v *= prem.rate(tau * (k / m) + t0)
                premium_int += v
        exp_integral *= cell
        if decay:
            premium_int *= cell
        return exp_integral, premium_int


def chain_pairs(kernel: StepKernel, streams: RngStreams, t: np.ndarray):
    """(M, Q, tau) = (1/lam, (claim - premium)/lam, tau) of the ruin chain
    for the rows whose clocks are ``t``, Q formed in the claim array.  M is
    None without investment, and tau is None unless the premium decays, the
    only step that reads the clock."""
    blk = kernel.sample(streams, len(t), t_start=t)
    q = blk.claim
    if blk.premium is not None:
        q -= blk.premium
    tau = blk.tau if kernel.decay else None
    if kernel.investment:
        m = np.exp(blk.nu, out=blk.nu)
        return m, np.multiply(q, m, out=q), tau
    return None, q, tau


# -- the discounted-supremum loop ------------------------------------------------

class SupRun(NamedTuple):
    """Per-row read-out of ``discounted_sup``, taken at each row's first stop."""

    total: np.ndarray            # D_n
    sup: np.ndarray              # max_{k <= n} D_k
    n_terms: np.ndarray          # n
    stopped: np.ndarray          # False for rows still live at the term cap
    non_finite: np.ndarray       # rows stopped on a NaN or infinite state


def discounted_sup(streams: RngStreams, size: int, *, pairs: Callable,
                   n_max: int, drop: float = math.inf, scale: float = 1.0,
                   rel_tol: float = REL_TOL) -> SupRun:
    """Run D_n = sum_{k<=n} Q_k prod_{i<k} M_i and its supremum on ``size`` rows.

    ``pairs(streams, t)`` draws (M, Q, tau) for the rows whose clocks are
    ``t``; M is None when every multiplier is 1, tau None when no clock is
    needed.  The state is updated in place: total += prod Q, sup = max(sup,
    total), prod *= M, t += tau.  A row stops after a term once the walk has
    dropped more than ``drop`` below its supremum, or, when the pairs carry
    multipliers, once prod scale < rel_tol max(|sup|, scale): the rest of the
    sum is prod times a fresh copy of the whole, of order ``scale``.  The
    package's callers all stop at the default, ``REL_TOL``.  The rule reads no
    reserve or threshold of the caller.  A row whose state turns NaN stops
    too, and ``non_finite`` marks the rows whose total is not finite.
    Stopped rows are dropped once fewer than 70 % are live.
    """
    total, prod, t, buf = (np.zeros(size), np.ones(size), np.zeros(size),
                           np.empty(size))
    sup = np.full(size, -np.inf)
    rows, live = np.arange(size), np.ones(size, dtype=bool)
    hit, flag = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    out = SupRun(np.empty(size), np.empty(size),
                 np.full(size, n_max, dtype=np.int64), np.zeros(size, bool),
                 np.empty(size, bool))
    for k in range(1, n_max + 1):
        n = len(total)
        m, q, tau = pairs(streams, t)
        total += np.multiply(prod, q, out=buf[:n])
        np.maximum(sup, total, out=sup)
        if tau is not None:
            t += tau
        # written as "keep going" so that a NaN compares as a stop
        keep = np.less_equal(np.subtract(sup, total, out=buf[:n]), drop,
                             out=hit[:n])
        if m is not None:          # prod < rel_tol max(|sup| / scale, 1)
            prod *= m
            lim = np.abs(sup, out=buf[:n])
            lim *= rel_tol / scale
            keep &= np.greater_equal(prod, np.maximum(lim, rel_tol, out=lim),
                                     out=flag[:n])
        stop = np.greater(live, keep, out=hit[:n])      # live and not keep
        if stop.any():
            r = rows[stop]
            out.total[r], out.sup[r] = total[stop], sup[stop]
            out.n_terms[r], out.stopped[r] = k, True
            live ^= stop
        n_live = np.count_nonzero(live)
        if n_live == 0:
            break
        if n_live < 0.7 * n:
            total, sup, prod, t, rows = (total[live], sup[live], prod[live],
                                         t[live], rows[live])
            live = np.ones(n_live, dtype=bool)
    out.total[rows[live]], out.sup[rows[live]] = total[live], sup[live]
    np.logical_not(np.isfinite(out.total), out=out.non_finite)
    return out


def run_discounted_sup(pairs: Callable, total: int, seed: int,
                       workers: int = 1, chunk_size: int = DEFAULT_CHUNK_SIZE,
                       **rule) -> SupRun:
    """``discounted_sup`` over deterministic chunks, merged in chunk order."""
    runs = run_chunked(discounted_sup, total, seed, workers, chunk_size,
                       pairs=pairs, **rule)
    return SupRun(*map(np.concatenate, zip(*runs)))


# -- chunked deterministic-parallel evaluation ---------------------------------

def _run_one_chunk(args):
    fn, seed, chunk_index, size, kwargs = args
    streams = RngStreams.from_seed(seed, chunk_index)
    return fn(streams, size, **kwargs)


def run_chunked(fn: Callable, total: int, seed: int,
                workers: Optional[int] = 1,
                chunk_size: int = DEFAULT_CHUNK_SIZE, **kwargs) -> List:
    """Evaluate ``fn(streams, size, **kwargs)`` over deterministic chunks.

    Chunk i always receives the generator triple derived from
    (seed, chunk i); results come back in chunk order, so any merge done by
    the caller is reproducible bit-for-bit for a fixed (seed, chunk_size),
    whatever ``workers`` is.  ``workers=None`` runs one process per chunk,
    up to the core count.
    """
    sizes = []
    left = int(total)
    while left > 0:
        take = min(chunk_size, left)
        sizes.append(take)
        left -= take
    tasks = [(fn, int(seed), i, s, kwargs) for i, s in enumerate(sizes)]
    if workers is None:
        workers = min(os.cpu_count() or 1, len(tasks))
    if workers <= 1 or len(tasks) == 1:
        return [_run_one_chunk(t) for t in tasks]
    # imported here: multiprocessing costs every start-up that never pools
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one_chunk, tasks))


def wilson_halfwidth(successes: int, n: int) -> float:
    """Half-width of the 95% Wilson score interval for a binomial fraction."""
    if n == 0:
        return 1.0
    p, z = successes / n, Z_95
    denom = 1.0 + z * z / n
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return half

