"""Stochastic perpetuities, their distributional fixed points, and tail constants.

The ruin bounds rest on two perpetuities of the ruin chain's pairs (M, Q) =
(1/lam, -zeta/lam), drawn by ``engine.chain_pairs`` under another premium:

* the increasing perpetuity R = sum_k Q_k prod_{i<k} M_i of the chain at
  premium 0 (Q = claim M), whose tail bounds the ruin probability from
  above, and
* the running supremum R_bar of the same sums with the premium held at its
  bound c_bar = premium.c (Q = (claim - c_bar growth integral) M), which
  bounds it from below and satisfies Y = Q + M Y^+ in distribution.

Both run on ``engine.discounted_sup``, the loop that also serves the ruin
chain: R is its final partial sum, R_bar its running supremum.  A slot
stops once its running product is below eps max(1, |sup|); what is left is
that product times a fresh copy of the perpetuity.  eps is the chain's one
stop tolerance, ``engine.REL_TOL`` = 3e-6, set by a paired audit on
beta2 (``tests/perpetuity_audit.py``, 24 chunks of 65,536 rows a sampler,
seed 17): rows above u at the stop minus the same rows run on for 2,000
terms (largest product left below 2e-13), per 65,536 rows; for c_hat, the
Goldie constant of R at the stop minus at the reference (1271.8), on the
same fresh pairs.  The bar is a third of the 1e6-sample standard error:

           eps  terms  u = 10     30    100    300   1000   1280   2560  5120
    R      1e-4   148   -50.3 -141.5  -43.7   -7.4   -0.8   -0.5   -0.1 -0.04
           1e-5   205    -5.3  -12.9   -4.7   -0.9   -0.2      0      0     0
           3e-6   235    -1.5   -3.5   -1.4   -0.3  -0.04      0      0     0
           1e-6   263    -0.7   -1.0   -0.6  -0.04      0      0      0     0
           1e-8   378       0      0      0      0      0      0      0     0
           bar            5.3   10.9    6.3    2.5    0.8    0.6    0.3  0.15
    R_bar  1e-4   151   -59.2 -120.4  -35.4   -5.5   -0.4   -0.4      0     0
           1e-5   208    -6.1  -12.9   -3.4   -0.6      0      0      0     0
           3e-6   238    -1.9   -4.3   -1.1   -0.3      0      0      0     0
           1e-6   266    -0.5   -1.3   -0.4   -0.1      0      0      0     0
           1e-8   381       0      0      0      0      0      0      0     0
           bar            6.2   10.9    5.8    2.2    0.7    0.6    0.3  0.14
    c_hat  eps = 1e-4 -5.29, 1e-5 -0.54, 3e-6 -0.16, 1e-6 -0.05, 1e-8 0.00;
           bar 3.58

3e-6 is the loosest tolerance whose bias stays below the bar everywhere:
1e-5 misses it at u = 30 for both samplers, 1e-4 at every u up to 300.
It cuts the terms of a sample from about 610 at 1e-12 to 235 for R and
238 for R_bar.  The ruin module has the chain's audit of the same
tolerance.  The implicit-renewal tail constant is estimated by the
expectation-ratio formula on paired draws.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Union

import numpy as np

from .engine import (DEFAULT_CHUNK_SIZE, StepKernel, chain_pairs,
                     run_discounted_sup)
from .errors import EstimationError, HypothesisViolation
from .model import ModelConfig, PremiumSpec, RngStreams, as_streams

__all__ = [
    "PerpetuityBatch", "GoldieEstimate", "model_pair_sampler",
    "qbar_pair_sampler", "sample_R_values", "sample_Rbar_values",
    "ks_fixed_point", "goldie_constant",
]

# A pair sampler draws (M, Q, tau) for the slots whose clocks are t, as
# ``engine.chain_pairs`` does: M None when every multiplier is 1, tau None
# when no step reads the clock.  The two factories below check that E ln M =
# -E K < 0 exactly; a hand-built sampler must contract (E ln M < 0) itself,
# or its perpetuity does not converge.
PairSampler = Callable[[RngStreams, np.ndarray], tuple]

DEFAULT_N_MAX = 100_000
GOLDIE_BATCHES = 100             # batch means behind goldie_constant's stderr


@dataclass
class PerpetuityBatch:
    values: np.ndarray
    n_terms: np.ndarray
    converged: np.ndarray
    non_finite: np.ndarray       # slots stopped on a NaN or infinite state

    def converged_values(self) -> np.ndarray:
        return self.values[self.converged]

    @property
    def discard_rate(self) -> float:
        return 1.0 - float(np.mean(self.converged))


@dataclass(frozen=True)
class GoldieEstimate:
    c_hat: float
    stderr: float
    n_samples: int


# -- pair samplers ---------------------------------------------------------------

def model_pair_sampler(config: ModelConfig) -> PairSampler:
    """The chain's pairs at premium 0, (M, claim M), for the upper-bound
    perpetuity R."""
    config.require_positive_drift()
    return partial(chain_pairs,
                   StepKernel(replace(config, premium=PremiumSpec())))


def qbar_pair_sampler(config: ModelConfig) -> PairSampler:
    """The chain's pairs with the premium held at c_bar = premium.c, (M,
    Q_bar) with Q_bar = (claim - c_bar * growth integral) * M, for the lower
    bound.  Q_bar can take either sign, so the associated perpetuity is the
    running supremum of its partial sums.
    """
    config.require_positive_drift()
    return partial(chain_pairs, StepKernel(
        replace(config, premium=PremiumSpec(config.premium.c))))


def _fresh_pairs(sampler: PairSampler, streams: RngStreams, n: int):
    """(M, Q) for n slots at time 0."""
    m, q, _ = sampler(streams, np.zeros(n))
    if m is None:
        raise HypothesisViolation("mean_drift_positive", "every multiplier "
                                  "is 1 without investment")
    return m, q


# -- lockstep samplers ------------------------------------------------------------

def _run(read, sampler, n_samples, seed, n_max, workers, chunk_size):
    """Each slot's ``read`` field of the loop: its final sum or supremum."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    run = run_discounted_sup(sampler, n_samples, seed, workers, chunk_size,
                             n_max=n_max)
    return PerpetuityBatch(getattr(run, read), run.n_terms,
                           run.stopped & ~run.non_finite, run.non_finite)


def sample_R_values(pair_sampler: PairSampler, n_samples: int, seed: int = 0,
                    n_max: int = DEFAULT_N_MAX, workers: int = 1,
                    chunk_size: int = DEFAULT_CHUNK_SIZE) -> PerpetuityBatch:
    """Sample the increasing perpetuity; values are truncated partial sums.

    A slot stops once its running product is below ``engine.REL_TOL``
    max(1, sum): what is left is that product times an independent copy of
    the perpetuity, negligible against sampling noise.
    """
    return _run("total", pair_sampler, n_samples, seed, n_max, workers,
                chunk_size)


def sample_Rbar_values(config: ModelConfig, n_samples: int, seed: int = 0,
                       n_max: int = DEFAULT_N_MAX, workers: int = 1,
                       chunk_size: int = DEFAULT_CHUNK_SIZE
                       ) -> PerpetuityBatch:
    """Supremum perpetuity for the premium-capped lower bound (increments of
    either sign); a slot stops once its running product is below
    ``engine.REL_TOL`` max(1, |sup|)."""
    return _run("sup", qbar_pair_sampler(config), n_samples, seed, n_max,
                workers, chunk_size)


# -- fixed point and tail constant --------------------------------------------------

def ks_fixed_point(values_R: np.ndarray, pair_sampler: PairSampler,
                   rng: Union[int, RngStreams]) -> float:
    """Two-sample KS statistic between R and Q + M R' (independent pairing).

    An independent random permutation decouples the perpetuity draws from
    the fresh pairs, which is what the right-hand side of the fixed point
    requires; a small statistic certifies distributional self-consistency.
    """
    values_R = np.asarray(values_R)
    n = len(values_R)
    if n < 10_000:
        raise ValueError("fixed-point check needs at least 1e4 samples")
    streams = as_streams(rng)
    m, q = _fresh_pairs(pair_sampler, streams, n)
    perm = streams.regime.permutation(n)
    rhs = q + m * values_R[perm]
    return _ks_statistic(values_R, rhs)


def _ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Largest gap between the empirical CDFs of ``a`` and ``b`` over the
    pooled sample: ``scipy.stats.ks_2samp``'s statistic as its asymptotic
    mode forms it, which it uses for every sample above 10,000."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    gap = (np.searchsorted(a, pooled, side="right") / len(a)
           - np.searchsorted(b, pooled, side="right") / len(b))
    return float(np.max(np.abs(gap)))


def goldie_constant(values_Z: np.ndarray, pair_sampler: PairSampler,
                    alpha: float, rng: Union[int, RngStreams]
                    ) -> GoldieEstimate:
    """Implicit-renewal tail constant via the expectation-ratio formula.

    c_hat estimates E[((B + A Z)^+)^alpha - ((A Z^+))^alpha] divided by
    alpha E[A^alpha ln A] on paired draws, with a batch-means standard
    error.  Requires E A^alpha = 1 (checked within Monte Carlo tolerance)
    and a non-degenerate denominator.
    """
    values_Z = np.asarray(values_Z)
    n = len(values_Z)
    if n < GOLDIE_BATCHES * 10:
        raise ValueError("too few samples for batch-means error bars")
    streams = as_streams(rng)
    a, b = _fresh_pairs(pair_sampler, streams, n)
    if np.any(a <= 0):
        raise EstimationError("multipliers must be positive")
    perm = streams.regime.permutation(n)
    z = values_Z[perm]

    a_alpha = a ** alpha
    mean_a, se_a = float(np.mean(a_alpha)), float(np.std(a_alpha) / math.sqrt(n))
    if abs(mean_a - 1.0) > 4.0 * max(se_a, 1e-12):
        warnings.warn(
            f"E A^alpha = {mean_a:.4f} (+/- {se_a:.4f}) is not 1 within MC "
            "tolerance; alpha is off the implicit-renewal root", stacklevel=2)

    num = np.maximum(b + a * z, 0.0) ** alpha - (a * np.maximum(z, 0.0)) ** alpha
    den = a_alpha * np.log(a)
    den_mean = float(np.mean(den))
    den_se = float(np.std(den, ddof=1) / math.sqrt(n))
    if abs(den_mean) <= 2.0 * den_se:
        raise EstimationError(
            "degenerate denominator: E A^alpha ln A is indistinguishable "
            "from 0")
    c_hat = float(np.mean(num)) / (alpha * den_mean)
    # batch means on the ratio
    nb = (n // GOLDIE_BATCHES) * GOLDIE_BATCHES
    num_b = num[:nb].reshape(GOLDIE_BATCHES, -1).mean(axis=1)
    den_b = den[:nb].reshape(GOLDIE_BATCHES, -1).mean(axis=1)
    c_b = num_b / (alpha * den_b)
    stderr = float(np.std(c_b, ddof=1) / math.sqrt(GOLDIE_BATCHES))
    return GoldieEstimate(c_hat=c_hat, stderr=stderr, n_samples=n)
