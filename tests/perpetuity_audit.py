"""Paired audit of the contraction tolerance of the perpetuity samplers.

Every row draws the pairs of R (``model_pair_sampler``) or of R_bar
(``qbar_pair_sampler``) term by term, and rows are never compacted.  For each
candidate tolerance eps a row's value is read at the first term where the
engine's rule, prod < eps max(|sup|, 1), would stop it; the reference is the
same row run on for ``N_REF`` terms.  R's increments are positive, so its
partial sum is its running supremum, and both samplers are read off the
supremum.  Running on can only raise it, so every discordant pair counts
against the stop.  Reported per eps:

* the mean number of terms at the stop;
* the net paired count above each checkpoint u, stopped minus reference,
  per 65,536 rows;
* for R, the Goldie constant c_hat at eps minus c_hat at the reference, both
  taken at the config's beta on the same fresh pairs and permutation.

The bar is a third of the standard error of a 1e6-sample estimate at the
reference: sqrt(p (1 - p) / 1e6) / 3 per row for P(. > u), and for c_hat its
batch-means standard error scaled to 1e6 samples.

Run the full audit (the table in the ``perpetuity`` docstring) with

    PYTHONPATH=src:tests python tests/perpetuity_audit.py --chunks 24
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ruinlab import load_experiment, lundberg_report
from ruinlab.engine import run_chunked
from ruinlab.model import ModelConfig
from ruinlab.perpetuity import (goldie_constant, model_pair_sampler,
                                qbar_pair_sampler)

TOLS = (1e-4, 1e-5, 3e-6, 1e-6, 1e-8)
U_AUDIT = (10.0, 30.0, 100.0, 300.0, 1000.0, 1280.0, 2560.0, 5120.0)
PER = 1 << 16                  # counts are reported per this many rows
N_REF = 2_000
REF_SAMPLES = 1_000_000        # the bar is a third of this many samples' SE


@dataclass
class SamplerAudit:
    tols: Tuple[float, ...]
    u_grid: Tuple[float, ...]
    n_rows: int
    above_ref: np.ndarray      # (u,) rows above u at the reference
    net: np.ndarray            # (tol, u) above at tol minus at the reference
    terms_mean: np.ndarray     # (tol,) mean terms at the stop
    largest_prod: float        # largest product left after N_REF terms

    @property
    def bias(self) -> np.ndarray:
        return self.net * (PER / self.n_rows)

    @property
    def bar(self) -> np.ndarray:
        p = self.above_ref / self.n_rows
        return np.sqrt(p * (1.0 - p) / REF_SAMPLES) / 3.0 * PER

    def passes(self) -> np.ndarray:
        """(tol,) whether |bias| stays below the bar at every u; a u that no
        row reaches has no bar and no bias."""
        return np.all((self.net == 0) | (np.abs(self.bias) < self.bar),
                      axis=1)


@dataclass
class GoldieAudit:
    c_ref: float
    diff: np.ndarray           # (tol,) c_hat at tol minus at the reference
    bar: float

    def passes(self) -> np.ndarray:
        return np.abs(self.diff) < self.bar


def _chunk(streams, n: int, *, sampler, tols):
    """Supremum at every tolerance's stop and at the reference, (tol + 1, n);
    terms at every stop, (tol, n); and the largest product at the end."""
    total, sup, prod = np.zeros(n), np.full(n, -np.inf), np.ones(n)
    lim = np.asarray(tols, dtype=float)[:, None]
    at = np.empty((len(tols) + 1, n))
    terms = np.full((len(tols), n), N_REF, dtype=np.int64)
    live, t = np.ones((len(tols), n), dtype=bool), np.zeros(n)
    for k in range(1, N_REF + 1):
        m, q, _ = sampler(streams, t)
        total += prod * q
        np.maximum(sup, total, out=sup)
        prod *= m
        stop = live & (prod < lim * np.maximum(np.abs(sup), 1.0))
        if stop.any():
            at[:-1][stop] = np.broadcast_to(sup, stop.shape)[stop]
            terms[stop] = k
            live &= ~stop
    at[:-1][live] = np.broadcast_to(sup, live.shape)[live]
    at[-1] = sup
    return at, terms, float(prod.max())


def _sampler_audit(sampler, n_rows: int, chunks: int, seed: int, tols,
                   u_grid, workers: int):
    runs = run_chunked(_chunk, n_rows * chunks, seed, workers, n_rows,
                       sampler=sampler, tols=tuple(tols))
    at = np.concatenate([r[0] for r in runs], axis=1)
    terms = np.concatenate([r[1] for r in runs], axis=1)
    above = (at[:, None, :] > np.asarray(u_grid)[None, :, None]).sum(axis=2)
    audit = SamplerAudit(tuple(tols), tuple(u_grid), at.shape[1], above[-1],
                         above[:-1] - above[-1], terms.mean(axis=1),
                         max(r[2] for r in runs))
    return audit, at


def goldie_audit(values: np.ndarray, config: ModelConfig,
                 seed: int) -> GoldieAudit:
    """c_hat on each row of ``values`` (the reference last), on one set of
    fresh pairs."""
    sampler = model_pair_sampler(config)
    beta = lundberg_report(config).beta
    est = [goldie_constant(v, sampler, beta, seed) for v in values]
    ref = est[-1]
    bar = ref.stderr * math.sqrt(ref.n_samples / REF_SAMPLES) / 3.0
    return GoldieAudit(ref.c_hat, np.array([e.c_hat - ref.c_hat
                                            for e in est[:-1]]), bar)


def paired_audit(config: ModelConfig, n_rows: int, chunks: int, seed: int,
                 tols: Sequence[float] = TOLS,
                 u_grid: Sequence[float] = U_AUDIT, workers: int = 1
                 ) -> Tuple[Dict[str, SamplerAudit], GoldieAudit]:
    """Paired audits of R and R_bar (seeds ``seed`` and ``seed + 1``) and of
    c_hat on the R rows."""
    r, r_at = _sampler_audit(model_pair_sampler(config), n_rows, chunks,
                             seed, tols, u_grid, workers)
    rbar, _ = _sampler_audit(qbar_pair_sampler(config), n_rows, chunks,
                             seed + 1, tols, u_grid, workers)
    return {"R": r, "R_bar": rbar}, goldie_audit(r_at, config, seed + 2)


def _table(audits: Dict[str, SamplerAudit], c: GoldieAudit) -> str:
    first = next(iter(audits.values()))
    us = " ".join(f"{u:>7g}" for u in first.u_grid)
    lines = [f"         eps     terms  u = {us}   c_hat"]
    for name, a in audits.items():
        for i, tol in enumerate(a.tols):
            cells = " ".join(f"{b:+7.2f}" for b in a.bias[i])
            tail = f"  {c.diff[i]:+7.2f}" if name == "R" else ""
            lines.append(f"{name:<6} {tol:7.0e}  {a.terms_mean[i]:8.1f}"
                         f"      {cells}{tail}")
        bars = " ".join(f"{b:7.2f}" for b in a.bar)
        tail = f"  {c.bar:7.2f}" if name == "R" else ""
        lines.append(f"{name:<6} bar                    {bars}{tail}")
        lines.append(f"{name:<6} P(. > u) at the reference: "
                     + " ".join(f"{p:.4g}" for p in a.above_ref / a.n_rows)
                     + f"; largest product left {a.largest_prod:.2g}")
    lines.append(f"c_hat at the reference {c.c_ref:.1f}")
    return "\n".join(lines)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default="configs/beta2.json")
    ap.add_argument("--rows", type=int, default=PER)
    ap.add_argument("--chunks", type=int, default=24)
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)
    config = load_experiment(args.config).model
    audits, c = paired_audit(config, args.rows, args.chunks, args.seed,
                             workers=args.workers)
    n = args.rows * args.chunks
    print(f"{n} rows a sampler, reference at {N_REF} terms, seed "
          f"{args.seed}; net count above u per {PER} rows, c_hat difference:")
    print(_table(audits, c))
    for name, a in audits.items():
        print(f"{name}: passes {dict(zip(a.tols, a.passes().tolist()))}")
    print(f"c_hat: passes {dict(zip(TOLS, c.passes().tolist()))}")


if __name__ == "__main__":
    main()
