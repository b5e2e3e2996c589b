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

Bridge rows go through cache-sized blocks, in place.  Blocks draw normals
in row order and round every element as one full-width pass does; block
sizes are multiples of four and the last is never one row, since BLAS rounds
a trapezoid row by its place among groups of four.  Blocks stay below
OpenBLAS's threading threshold, so bits never depend on its thread count.
Piecewise rows go through blocks of about ``_BLOCK_FLOATS`` cells.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from .model import ModelConfig, RngStreams

__all__ = ["StepKernel", "StepBlock", "SupRun", "discounted_sup",
           "run_discounted_sup", "run_chunked", "wilson_halfwidth",
           "DEFAULT_CHUNK_SIZE", "DEFAULT_PREMIUM_NODES"]

DEFAULT_CHUNK_SIZE = 1 << 16
DEFAULT_PREMIUM_NODES = 8
_BLOCK_FLOATS = 1 << 14           # float64s per bridge scratch array


@dataclass
class StepBlock:
    """Per-step draw for a block of paths (all arrays share one length)."""

    tau: np.ndarray
    nu: np.ndarray
    claim: Optional[np.ndarray]
    zeta: Optional[np.ndarray]
    exp_integral: Optional[np.ndarray]


class StepKernel:
    """Draws step blocks for a configuration, in either regime mode.

    ``premium_nodes`` controls the Brownian-bridge resolution of the growth
    integral in constant mode; the integral enters only through the premium
    term, so a small node count is enough at Monte Carlo accuracy.
    Piecewise regimes integrate over their own cell nodes instead.
    """

    def __init__(self, config: ModelConfig, premium_nodes: int = DEFAULT_PREMIUM_NODES):
        self.config = config
        self.m = int(premium_nodes)
        if self.m < 2:
            raise ValueError("premium_nodes must be >= 2")
        self._fractions = np.arange(self.m + 1) / self.m
        self._one_minus_f = 1.0 - self._fractions
        self._weights = np.r_[0.5, np.ones(self.m - 1), 0.5]
        self._rows = max(8, _BLOCK_FLOATS // (self.m + 1) & ~3)
        self.investment = config.has_investment
        self._piecewise = self.investment and config.regime.mode == "piecewise"
        if self.investment and not self._piecewise:
            theta = config.regime.theta
            self._point = theta.is_point_mass
            if self._point:
                (self._mu0, self._hs0), _ = theta.atoms[0]
            self._theta = theta
        prem = config.premium
        self._premium_mode = prem.mode if not prem.is_zero else "zero"

    def sample(self, streams: RngStreams, n: int,
               t_start: Optional[np.ndarray] = None,
               need_claim: bool = True,
               need_exp_integral: bool = False) -> StepBlock:
        cfg = self.config
        tau = np.atleast_1d(cfg.interarrival_dist.sample(streams.regime, n))
        want_integrals = need_exp_integral or (
            need_claim and self._premium_mode != "zero")
        exp_integral = premium_int = None
        if not self.investment:
            nu = np.zeros(n)
            exp_integral = tau
            premium_int = self._classical_premium(tau, t_start, n)
        elif self._piecewise:
            nu, exp_integral, premium_int = self._cell_steps(
                streams, tau, t_start, want_integrals)
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
                exp_integral, premium_int = self._bridge_integrals(
                    streams, n, tau, mu, hs, sigma, z, t_start)
        claim = None
        zeta = None
        if need_claim:
            claim = np.atleast_1d(cfg.claim_dist.sample(streams.claims, n))
            zeta = -claim if premium_int is None else premium_int - claim
        return StepBlock(tau=tau, nu=nu, claim=claim, zeta=zeta,
                         exp_integral=exp_integral if need_exp_integral else None)

    def _classical_premium(self, tau, t_start, n):
        prem = self.config.premium
        if self._premium_mode == "zero":
            return None
        if t_start is None:
            t_start = np.zeros(n)
        return prem.integral(t_start, t_start + tau)

    def _cell_steps(self, streams, tau, t_start, want_integrals):
        """nu and the growth and premium integrals over piecewise cells.

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
        decay = want_integrals and self._premium_mode == "exponential_decay"
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
                t0 = 0.0 if t_start is None else np.repeat(t_start[r0:r1], cnt)
                area = e0 * prem.rate(t0 + node) + e1 * prem.rate(t0 + end)
                premium_int[r0:r1] = np.add.reduceat(width * area / 2.0, first)
        if want_integrals and self._premium_mode == "constant":
            premium_int = prem.c * exp_integral
        return nu, exp_integral, premium_int

    def _bridge_integrals(self, streams, n, tau, mu, hs, sigma, z, t_start):
        """Growth integral (and premium integral) via a pinned bridge.

        Nodes sit at s_k = (k/m) tau.  The interior Wiener values are built
        from free increments re-pinned so the terminal value matches the
        exact draw z / sigma; v_k = K(s_k) + Z(s_k) then feeds a trapezoid.
        """
        m, f, weights = self.m, self._fractions, self._weights
        rows = min(n, self._rows)
        incr = np.empty((rows, m))
        w, tmp = np.empty((rows, m + 1)), np.empty((rows, m + 1))
        cell = tau / m
        cell_sd, w_target = np.sqrt(cell), z / sigma
        drift_tau, sig = np.asarray(mu - hs) * tau, np.broadcast_to(sigma, n)
        prem, decay = self.config.premium, self._premium_mode == "exponential_decay"
        exp_integral = np.empty(n)
        premium_int = np.empty(n) if decay else None
        r1 = 0
        while r1 < n:
            r0, r1 = r1, min(r1 + rows, n)
            if r1 == n - 1:           # no one-row last block (module doc)
                r1 -= 4
            bi, bw, bt = incr[:r1 - r0], w[:r1 - r0], tmp[:r1 - r0]
            target = w_target[r0:r1, None]
            streams.brownian.standard_normal(out=bi)
            bi *= cell_sd[r0:r1, None]
            bw[:, 0] = 0.0
            np.cumsum(bi, axis=1, out=bw[:, 1:])
            np.subtract(target, bw[:, m:], out=bi[:, :1])   # pin gap
            bw += np.multiply(f, bi[:, :1], out=bt)
            np.subtract(target, bw, out=bw)
            bw *= sig[r0:r1, None]
            bw += np.multiply(drift_tau[r0:r1, None], self._one_minus_f, out=bt)
            np.exp(bw, out=bw)
            np.matmul(bw, weights, out=exp_integral[r0:r1])
            if decay:
                np.multiply(tau[r0:r1, None], f, out=bt)
                bt += 0.0 if t_start is None else t_start[r0:r1, None]
                np.matmul(np.multiply(bw, prem.rate(bt), out=bt), weights,
                          out=premium_int[r0:r1])
        exp_integral *= cell
        if decay:
            premium_int *= cell
        elif self._premium_mode == "constant":
            premium_int = prem.c * exp_integral
        return exp_integral, premium_int


# -- the discounted-supremum loop ------------------------------------------------

class SupRun(NamedTuple):
    """Per-row read-out of ``discounted_sup``, taken at each row's first stop."""

    total: np.ndarray            # D_n
    sup: np.ndarray              # max_{k <= n} D_k
    n_terms: np.ndarray          # n
    stopped: np.ndarray          # False for rows still live at the term cap


def discounted_sup(streams: RngStreams, size: int, *, pairs: Callable,
                   n_max: int, drop: float = math.inf, scale: float = 1.0,
                   rel_tol: float = 0.0) -> SupRun:
    """Run D_n = sum_{k<=n} Q_k prod_{i<k} M_i and its supremum on ``size`` rows.

    ``pairs(streams, t)`` draws (M, Q, tau) for the rows whose clocks are
    ``t``; M is None when every multiplier is 1, tau None when no clock is
    needed.  The state is updated in place: total += prod Q, sup = max(sup,
    total), prod *= M, t += tau.  A row stops after a term once the walk has
    dropped more than ``drop`` below its supremum, or once prod scale <
    rel_tol max(|sup|, scale): the rest of the sum is prod times a fresh copy
    of the whole, of order ``scale``.  The rule reads no reserve or threshold
    of the caller.  Stopped rows are dropped once fewer than 70 % are live.
    """
    total, prod, t, buf = (np.zeros(size), np.ones(size), np.zeros(size),
                           np.empty(size))
    sup = np.full(size, -np.inf)
    rows, live = np.arange(size), np.ones(size, dtype=bool)
    hit, flag = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    out = SupRun(np.empty(size), np.empty(size),
                 np.full(size, n_max, dtype=np.int64), np.zeros(size, bool))
    for k in range(1, n_max + 1):
        n = len(total)
        m, q, tau = pairs(streams, t)
        total += np.multiply(prod, q, out=buf[:n])
        np.maximum(sup, total, out=sup)
        if m is not None:
            prod *= m
        if tau is not None:
            t += tau
        stop = np.greater(np.subtract(sup, total, out=buf[:n]), drop,
                          out=hit[:n])
        if rel_tol > 0.0:          # prod < rel_tol max(|sup| / scale, 1)
            lim = np.abs(sup, out=buf[:n])
            lim *= rel_tol / scale
            stop |= np.less(prod, np.maximum(lim, rel_tol, out=lim),
                            out=flag[:n])
        stop &= live
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


def run_chunked(fn: Callable, total: int, seed: int, workers: int = 1,
                chunk_size: int = DEFAULT_CHUNK_SIZE, **kwargs) -> List:
    """Evaluate ``fn(streams, size, **kwargs)`` over deterministic chunks.

    Chunk i always receives the generator triple derived from
    (seed, chunk i); results come back in chunk order, so any merge done by
    the caller is reproducible bit-for-bit for a fixed (seed, chunk_size),
    whatever ``workers`` is.
    """
    sizes = []
    left = int(total)
    while left > 0:
        take = min(chunk_size, left)
        sizes.append(take)
        left -= take
    tasks = [(fn, int(seed), i, s, kwargs) for i, s in enumerate(sizes)]
    if workers <= 1 or len(tasks) == 1:
        return [_run_one_chunk(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one_chunk, tasks))


def wilson_halfwidth(successes: int, n: int, z: float = 1.959963984540054
                     ) -> float:
    """Half-width of the 95% Wilson score interval for a binomial fraction."""
    if n == 0:
        return 1.0
    p = successes / n
    denom = 1.0 + z * z / n
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    return half

