"""Paired audit of the Brownian-bridge node count on the ruin chain.

Every step draws the interval, the endpoint normal, one fine bridge of
``fine`` cells and the claim, once for all rows.  Each node count m reads
the fine bridge at every (fine / m)-th node, so every m sees the same draws
and its nodes carry the law of an m-node bridge.  The normals that build
those nodes in the engine's recursion are fed to ``StepKernel`` with m
nodes, so every growth integral, the fine reference's too, is the engine's
own.  Each m runs its own copy of the ruin chain D_n with the engine's
stopping rule, and the fine trapezoid runs the reference copy; rows are
never compacted, and a chunk ends when every copy of every row has stopped.
Reported per m:

* the net paired ruin count, ruined at m minus ruined at the reference, per
  65,536 paths, with its standard error sqrt(discordant pairs);
* the KS statistic of the first step's growth integral against the fine
  trapezoid's, for the trapezoid and for the log-linear cell rule
  h (e^b - e^a) / (b - a), exact for a path that is linear in log scale.

Run the full audit (the table in the ``engine`` docstring) with

    PYTHONPATH=src:tests python tests/bridge_audit.py --chunks 24
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, Sequence, Tuple

import numpy as np
from scipy import stats

from ruinlab import load_experiment
from ruinlab.engine import REL_TOL, StepKernel
from ruinlab.model import ModelConfig, RngStreams
from ruinlab.ruin import barrier_level

U_AUDIT = (10.0, 30.0, 100.0, 300.0, 1000.0, 2400.0)
PER = 1 << 16                  # counts are reported per this many paths


@dataclass
class Audit:
    ms: Tuple[int, ...]
    u_grid: Tuple[float, ...]
    n_paths: int
    ruined_ref: np.ndarray     # (u,) ruined paths at the fine reference
    net: np.ndarray            # (m, u) ruined at m minus at the reference
    discordant: np.ndarray     # (m, u) paths ruined at exactly one of the two
    ks: Dict[str, np.ndarray]  # rule -> (m,) KS against the fine trapezoid

    def per_paths(self, counts: np.ndarray) -> np.ndarray:
        return counts * (PER / self.n_paths)

    @property
    def bias(self) -> np.ndarray:
        return self.per_paths(self.net)

    @property
    def bias_se(self) -> np.ndarray:
        return self.per_paths(np.sqrt(self.discordant))

    @property
    def bar(self) -> np.ndarray:
        """A third of the 1e6-path standard error of psi_hat, in paths per
        ``PER``, at the reference's psi_hat."""
        psi = self.ruined_ref / self.n_paths
        return np.sqrt(psi * (1.0 - psi) / 1e6) / 3.0 * PER


class ReplayNormals:
    """Stands in for ``streams.brownian``: hands out one given row of normals
    per ``standard_normal(out=...)`` call."""

    def __init__(self, normals):
        self._nodes = iter(normals)

    def standard_normal(self, out):
        out[...] = next(self._nodes)
        return out


def _node_normals(b: np.ndarray, m: int) -> np.ndarray:
    """The m - 1 normals whose bridge recursion in ``StepKernel`` rebuilds
    the fine bridge ``b`` (rows 0..fine, in units of sqrt(tau / fine)) at
    every (fine / m)-th node."""
    fine = len(b) - 1
    nodes = b[::fine // m] * math.sqrt(m / fine)    # units of sqrt(tau / m)
    r = ((m - np.arange(1, m)) / (m - np.arange(1, m) + 1))[:, None]
    return (nodes[1:m] - r * nodes[:m - 1]) / np.sqrt(r)


def _loglinear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(e^b - e^a) / (b - a), e^a where b == a."""
    d = b - a
    ratio = np.divide(np.expm1(d), d, out=np.ones_like(d), where=d != 0.0)
    return np.exp(a) * ratio


def _chunk(config: ModelConfig, streams: RngStreams, n: int, ms, fine: int,
           u_grid, max_steps: int, barrier_multiple: float):
    """Ruin indicators (copy, u, row) and first-step integrals of one chunk."""
    theta, prem, c = config.regime.theta, config.premium, config.premium.c
    if prem.gamma_rate != 0.0 or config.regime.mode != "constant":
        raise ValueError("the audit runs constant regimes and premiums")
    drop = barrier_level(0.0, config, barrier_multiple)
    scale = barrier_level(0.0, config, 1.0)
    every = ms + (fine,)                     # the ms, then the reference
    kernels = {m: StepKernel(config, m) for m in every}
    total, sup = np.zeros((len(every), n)), np.full((len(every), n), -np.inf)
    sup_at, live = np.empty_like(sup), np.ones(sup.shape, dtype=bool)
    prod = np.ones(n)
    first = None
    for _ in range(max_steps):
        tau = np.atleast_1d(config.interarrival_dist.sample(streams.regime, n))
        mu, hs = theta.sample(streams.regime, n)
        sigma = np.sqrt(2.0 * np.asarray(hs, dtype=float))
        z = streams.brownian.standard_normal(n) * (sigma * np.sqrt(tau))
        nu = -((mu - hs) * tau + z)
        normals = streams.brownian.standard_normal((fine - 1, n))
        b = np.zeros((fine + 1, n))          # b[0] = b[fine] = 0
        for j in range(1, fine):
            r = (fine - j) / (fine - j + 1)
            b[j] = r * b[j - 1] + math.sqrt(r) * normals[j - 1]
        v = (-nu * (1.0 - np.arange(fine + 1) / fine)[:, None]
             - np.sqrt(tau / fine) * sigma * b)
        integrals = {}
        for m in every:
            coarse = normals if m == fine else _node_normals(b, m)
            replay = SimpleNamespace(brownian=ReplayNormals(coarse))
            trap, _ = kernels[m]._bridge_integrals(replay, tau, nu, sigma,
                                                   0.0, False)
            vm = v[::fine // m]
            integrals[m] = (trap, _loglinear(vm[:-1], vm[1:]).sum(axis=0)
                            * (tau / m))
        if first is None:
            first = integrals
        growth = np.exp(nu)
        claim = np.atleast_1d(config.claim_dist.sample(streams.claims, n))
        q = np.stack([(claim - c * integrals[m][0]) * growth for m in every])
        total += prod * q
        np.maximum(sup, total, out=sup)
        prod *= growth
        stop = sup - total > drop
        stop |= prod < np.maximum(np.abs(sup) * (REL_TOL / scale), REL_TOL)
        stop &= live
        sup_at[stop] = sup[stop]
        live &= ~stop
        if not live.any():
            break
    sup_at[live] = sup[live]
    ruined = sup_at[:, None, :] > np.asarray(u_grid)[None, :, None]
    return ruined, first


def paired_audit(config: ModelConfig, n_paths: int, chunks: int, seed: int,
                 ms: Sequence[int] = (1, 2, 4, 8), fine: int = 32,
                 u_grid: Sequence[float] = U_AUDIT, max_steps: int = 10_000,
                 barrier_multiple: float = 1_000.0, ks_chunks: int = 8
                 ) -> Audit:
    """Paired ruin counts and growth-integral KS of each m against ``fine``.

    The KS statistics pool the first ``ks_chunks`` chunks' first steps.
    """
    ms = tuple(ms)
    if any(fine % m for m in ms):
        raise ValueError("every m must divide the fine cell count")
    net = np.zeros((len(ms), len(u_grid)), dtype=np.int64)
    disc = np.zeros_like(net)
    ref = np.zeros(len(u_grid), dtype=np.int64)
    firsts = []
    for i in range(chunks):
        ruined, first = _chunk(config, RngStreams.from_seed(seed, i), n_paths,
                               ms, fine, tuple(u_grid), max_steps,
                               barrier_multiple)
        ref += ruined[-1].sum(axis=1)
        net += ruined[:-1].sum(axis=2) - ruined[-1].sum(axis=1)
        disc += (ruined[:-1] != ruined[-1]).sum(axis=2)
        if i < ks_chunks:
            firsts.append(first)
    every = ms + (fine,)
    pooled = {m: [np.concatenate([f[m][rule] for f in firsts])
                  for rule in (0, 1)] for m in every}
    ks = {name: np.array([stats.ks_2samp(pooled[m][rule], pooled[fine][0],
                                         method="asymp").statistic
                          for m in every])
          for rule, name in enumerate(("trapezoid", "loglinear"))}
    return Audit(ms, tuple(u_grid), n_paths * chunks, ref, net, disc, ks)


def _table(audit: Audit, fine: int) -> str:
    us = "  ".join(f"{u:>12g}" for u in audit.u_grid)
    lines = [f"m     u = {us}   KS trap  KS loglin"]
    for i, m in enumerate(audit.ms):
        cells = "  ".join(f"{b:+6.1f} ({s:4.1f})"
                          for b, s in zip(audit.bias[i], audit.bias_se[i]))
        lines.append(f"{m:<5d}    {cells}   {audit.ks['trapezoid'][i]:.5f}"
                     f"  {audit.ks['loglinear'][i]:.5f}")
    bars = "  ".join(f"{b:12.1f}" for b in audit.bar)
    lines.append(f"bar      {bars}")
    lines.append(f"ref {fine}: KS loglin {audit.ks['loglinear'][-1]:.5f}; "
                 f"psi_ref {audit.ruined_ref / audit.n_paths}")
    return "\n".join(lines)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default="configs/beta2.json")
    ap.add_argument("--paths", type=int, default=PER)
    ap.add_argument("--chunks", type=int, default=24)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--fine", type=int, default=32)
    args = ap.parse_args(argv)
    config = load_experiment(args.config).model
    audit = paired_audit(config, args.paths, args.chunks, args.seed,
                         fine=args.fine)
    print(f"{audit.n_paths} paths, {args.fine}-cell reference, seed "
          f"{args.seed}; net ruined per {PER} paths (paired SE):")
    print(_table(audit, args.fine))


if __name__ == "__main__":
    main()
