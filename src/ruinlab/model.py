"""Model configuration and the seeded generator streams.

A configuration bundles the claim-size law, the inter-arrival law, the
premium rate and the regime of the investment coefficients.  The bounds
mu_lower, sigma_bar and c_bar that the paper assumes are read off these
laws, by ``ModelConfig.regime_bounds`` and as ``premium.c``.

Randomness is organized as three decorrelated sub-streams derived from one
master seed: ``claims`` (claim sizes), ``regime`` (inter-arrival times and
coefficient values), and ``brownian`` (Wiener increments and bridge nodes).
Changing, say, the claim law therefore never perturbs the regime draws,
which is what makes the common-random-number monotonicity and scaling
checks exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

import numpy as np

from .distributions import Distribution
from .errors import DistributionError, HypothesisViolation
from .theta import ThetaLaw

__all__ = ["RngStreams", "PremiumSpec", "RegimeSpec", "ModelConfig"]

_STREAM_LABELS = {"claims": 101, "regime": 202, "brownian": 303}


@dataclass
class RngStreams:
    """One generator triple; workers own disjoint triples via chunk ids."""

    claims: np.random.Generator
    regime: np.random.Generator
    brownian: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int, chunk: int = 0) -> "RngStreams":
        gens = {
            name: np.random.default_rng(
                np.random.SeedSequence(entropy=int(seed),
                                       spawn_key=(label, int(chunk))))
            for name, label in _STREAM_LABELS.items()
        }
        return cls(**gens)


def as_streams(rng: Union[int, "RngStreams"]) -> "RngStreams":
    return rng if isinstance(rng, RngStreams) else RngStreams.from_seed(rng)


@dataclass(frozen=True)
class PremiumSpec:
    """Premium rate c(t) = c e^{gamma_rate t}, c >= 0 and gamma_rate <= 0, so
    c is the bound c_bar = sup c(t)."""

    c: float = 0.0
    gamma_rate: float = 0.0

    def __post_init__(self):
        if self.c < 0:
            raise DistributionError("premium rate c must be >= 0")
        if self.gamma_rate > 0:
            raise DistributionError("decay exponent must be <= 0")

    def rate(self, t):
        """c(t), vectorized over t."""
        return self.c * np.exp(self.gamma_rate * np.asarray(t, float))

    def integral(self, t0, t1):
        """Exact integral of c over [t0, t1] (used by the no-investment path)."""
        g = self.gamma_rate
        if g == 0.0:
            return self.c * (np.asarray(t1) - np.asarray(t0))
        return self.c / g * (np.exp(g * np.asarray(t1)) - np.exp(g * np.asarray(t0)))

    def scaled(self, k: float) -> "PremiumSpec":
        return replace(self, c=self.c * k)


@dataclass(frozen=True)
class RegimeSpec:
    """Coefficient processes between claims.

    ``constant`` draws one (mu, sigma^2/2) per interval from a ThetaLaw and
    holds it until the next claim.  ``piecewise`` redraws the coefficients
    from per-node laws on a time grid of step ``h`` inside each interval
    (piecewise-constant, right-continuous paths).
    """

    mode: str  # "constant" | "piecewise"
    theta: Optional[ThetaLaw] = None
    mu_law: Optional[Distribution] = None
    sigma_law: Optional[Distribution] = None
    h: float = 0.0

    def __post_init__(self):
        if self.mode not in ("constant", "piecewise"):
            raise DistributionError(f"unknown regime mode {self.mode!r}")
        if self.mode == "constant" and self.theta is None:
            raise DistributionError("constant regime needs a coefficient law")
        if self.mode == "piecewise":
            if self.mu_law is None or self.sigma_law is None:
                raise DistributionError("piecewise regime needs node laws")
            if self.h <= 0:
                raise DistributionError("piecewise regime needs grid step h > 0")

    @classmethod
    def constant(cls, theta: ThetaLaw) -> "RegimeSpec":
        return cls("constant", theta=theta)

    @classmethod
    def piecewise(cls, h: float, mu_law: Distribution, sigma_law: Distribution
                  ) -> "RegimeSpec":
        return cls("piecewise", mu_law=mu_law, sigma_law=sigma_law, h=float(h))


@dataclass(frozen=True)
class ModelConfig:
    """Full model specification.

    ``regime=None`` selects the no-investment baseline: unit step multiplier
    and step increment (premium income over the interval) minus the claim.
    """

    claim_dist: Distribution
    interarrival_dist: Distribution
    premium: PremiumSpec
    regime: Optional[RegimeSpec] = None

    def __post_init__(self):
        if not self.claim_dist.nonnegative_support:
            raise DistributionError("claim law must have nonnegative support")
        if not self.interarrival_dist.positive_a_s:
            raise DistributionError("inter-arrival times must be positive")
        if self.interarrival_dist.kind == "pareto":
            raise DistributionError("pareto is permitted for claims only")
        if self.regime is None:
            return
        if self.regime.mode == "piecewise":
            if not self.regime.sigma_law.positive_a_s:
                raise DistributionError("sigma node law must be positive")
            return
        _, _, hs_min, hs_max = self.regime.theta.support_box
        if hs_min < 0:
            raise DistributionError("sigma^2/2 support must be >= 0")
        if hs_max <= 0:
            raise DistributionError(
                "volatility must be positive with positive probability")

    # -- derived quantities --------------------------------------------------

    @property
    def has_investment(self) -> bool:
        return self.regime is not None

    def regime_bounds(self) -> Tuple[float, float]:
        """(mu_lower, sigma_bar^2/2), the tightest bounds mu >= mu_lower and
        sigma <= sigma_bar on what the regime can draw."""
        if self.regime.mode == "constant":
            mu_min, _, _, hs_max = self.regime.theta.support_box
            return mu_min, hs_max
        return (self.regime.mu_law.support()[0],
                0.5 * self.regime.sigma_law.support()[1] ** 2)

    def expected_log_drift(self) -> float:
        """E K, the mean integrated drift of log returns over one interval.

        Zero for the no-investment baseline.  For both regime modes the
        coefficient draws are independent of the interval length, so
        E K = E(mu - sigma^2/2) * E tau exactly.
        """
        if self.regime is None:
            return 0.0
        e_tau = self.interarrival_dist.mean()
        if self.regime.mode == "constant":
            e_mu, e_hs = self.regime.theta.mean()
        else:
            e_mu = self.regime.mu_law.mean()
            e_hs = 0.5 * self.regime.sigma_law.moment(2.0)
        return (e_mu - e_hs) * e_tau

    def require_positive_drift(self) -> float:
        """E K, after checking it is positive.  Without investment every step
        multiplier is 1, which this also rejects."""
        if self.regime is None:
            raise HypothesisViolation(
                "mean_drift_positive",
                "without investment every step multiplier is 1: the "
                "log-return walk and the decay exponent do not exist")
        ek = self.expected_log_drift()
        if not ek > 0.0:
            raise HypothesisViolation(
                "mean_drift_positive",
                "mean log-return drift E(mu - sigma^2/2) * E tau = "
                f"{ek:.6g} is not positive; the decay exponent does not "
                "exist and ruin is certain in the constant-coefficient case")
        return ek

    def scaled(self, k: float) -> "ModelConfig":
        """Monetary rescaling: claims and premium by k; time and regime kept."""
        return replace(self, claim_dist=self.claim_dist.scaled(k),
                       premium=self.premium.scaled(k))
