"""Scalar distributions with sampling, exact moments, and moment generating functions.

The families below cover claim sizes, inter-arrival times, premium-free
regime ingredients, and the marginals of product coefficient laws:

========================  =========================================
kind                      parameters
========================  =========================================
``exponential``           rate > 0
``gamma``                 shape > 0, scale > 0
``deterministic``         value
``uniform``               lo < hi
``discrete``              atoms: sequence of (value, prob)
``lognormal``             mu, sigma > 0  (parameters of log V)
``pareto``                index > 0, scale > 0   (P(V > x) = (scale/x)^index)
========================  =========================================

Divergent quantities are represented by ``math.inf``, never by a large
finite float.  The Pareto family exists to exercise moment-failure
detection and is only meaningful as a claim-size law.

Sampling is scale equivariant: for every kind, ``d.scaled(k).sample(rng)``
consumes exactly the same generator stream as ``d.sample(rng)`` and returns
``k`` times the value (bit-exact when ``k`` is a power of two).  The
monetary-scaling invariance tests rely on this.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import DistributionError, NumericsWarning

__all__ = ["Distribution", "MgfEndpoint", "DistributionError"]

_PROB_TOL = 1e-12
_QUAD_ABS_TOL = 1e-10
_QUAD_LIMIT = 500

_KINDS = ("exponential", "gamma", "deterministic", "uniform", "discrete",
          "lognormal", "pareto")


@dataclass(frozen=True)
class MgfEndpoint:
    """Right endpoint q_V = sup{q : E exp(qV) < oo} and the MGF value at it.

    ``phi_value`` is the MGF evaluated at ``q_max`` (``math.inf`` when the
    MGF diverges there, which is the typical case for a finite endpoint).
    When ``q_max`` is infinite the endpoint value is reported as ``inf``.
    """

    q_max: float
    phi_value: float

    @property
    def finite_at_endpoint(self) -> bool:
        return math.isfinite(self.phi_value)


@dataclass(frozen=True)
class Distribution:
    """Immutable tagged scalar law.  Use the classmethod constructors."""

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DistributionError(f"unknown distribution kind {self.kind!r}")
        p = self.params
        if self.kind == "exponential":
            if p[0] <= 0:
                raise DistributionError("exponential rate must be > 0")
        elif self.kind == "gamma":
            if p[0] <= 0 or p[1] <= 0:
                raise DistributionError("gamma shape and scale must be > 0")
        elif self.kind == "uniform":
            if not p[0] < p[1]:
                raise DistributionError("uniform requires lo < hi")
        elif self.kind == "discrete":
            values, probs = p
            if len(values) == 0:
                raise DistributionError("discrete law needs at least one atom")
            if any(q <= 0 for q in probs):
                raise DistributionError("discrete probabilities must be > 0")
            if abs(sum(probs) - 1.0) > _PROB_TOL:
                raise DistributionError("discrete probabilities must sum to 1")
        elif self.kind == "lognormal":
            if p[1] <= 0:
                raise DistributionError("lognormal sigma must be > 0")
        elif self.kind == "pareto":
            if p[0] <= 0 or p[1] <= 0:
                raise DistributionError("pareto index and scale must be > 0")

    # -- constructors ------------------------------------------------------

    @classmethod
    def exponential(cls, rate: float) -> "Distribution":
        return cls("exponential", (float(rate),))

    @classmethod
    def gamma(cls, shape: float, scale: float) -> "Distribution":
        return cls("gamma", (float(shape), float(scale)))

    @classmethod
    def deterministic(cls, value: float) -> "Distribution":
        return cls("deterministic", (float(value),))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "Distribution":
        return cls("uniform", (float(lo), float(hi)))

    @classmethod
    def discrete(cls, atoms) -> "Distribution":
        """Finite discrete law from (value, prob) pairs; ties are merged."""
        merged: dict = {}
        for v, q in atoms:
            v = float(v)
            merged[v] = merged.get(v, 0.0) + float(q)
        values = tuple(sorted(merged))
        probs = tuple(merged[v] for v in values)
        return cls("discrete", (values, probs))

    @classmethod
    def lognormal(cls, mu: float, sigma: float) -> "Distribution":
        return cls("lognormal", (float(mu), float(sigma)))

    @classmethod
    def pareto(cls, index: float, scale: float) -> "Distribution":
        return cls("pareto", (float(index), float(scale)))

    # -- basic structure ---------------------------------------------------

    def support(self) -> Tuple[float, float]:
        k, p = self.kind, self.params
        if k in ("exponential", "gamma"):
            return (0.0, math.inf)
        if k == "deterministic":
            return (p[0], p[0])
        if k == "uniform":
            return (p[0], p[1])
        if k == "discrete":
            return (p[0][0], p[0][-1])
        if k == "lognormal":
            return (0.0, math.inf)
        return (p[1], math.inf)  # pareto

    @property
    def nonnegative_support(self) -> bool:
        return self.support()[0] >= 0.0

    @property
    def positive_a_s(self) -> bool:
        """True when V > 0 almost surely."""
        k = self.kind
        if k in ("exponential", "gamma", "lognormal", "pareto"):
            return True
        if k == "deterministic":
            return self.params[0] > 0
        if k == "uniform":
            return self.params[0] >= 0
        return self.params[0][0] > 0  # discrete: smallest atom

    def scaled(self, k: float) -> "Distribution":
        """The law of k*V, k > 0.  Stream-compatible with ``self``."""
        if k <= 0:
            raise DistributionError("scale factor must be > 0")
        kind, p = self.kind, self.params
        if kind == "exponential":
            return Distribution.exponential(p[0] / k)
        if kind == "gamma":
            return Distribution.gamma(p[0], p[1] * k)
        if kind == "deterministic":
            return Distribution.deterministic(p[0] * k)
        if kind == "uniform":
            return Distribution.uniform(p[0] * k, p[1] * k)
        if kind == "discrete":
            values, probs = p
            return Distribution("discrete", (tuple(v * k for v in values), probs))
        if kind == "lognormal":
            return Distribution.lognormal(p[0] + math.log(k), p[1])
        return Distribution.pareto(p[0], p[1] * k)

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: Optional[int] = None
               ) -> Union[float, np.ndarray]:
        """Draw from the law; deterministic given the generator state."""
        k, p = self.kind, self.params
        if k == "exponential":
            return rng.standard_exponential(size) / p[0]
        if k == "gamma":
            return rng.standard_gamma(p[0], size) * p[1]
        if k == "deterministic":
            return p[0] if size is None else np.full(size, p[0])
        if k == "uniform":
            return p[0] + (p[1] - p[0]) * rng.random(size)
        if k == "discrete":
            values, probs = p
            u = rng.random(size)
            idx = np.searchsorted(np.cumsum(probs), u, side="right")
            idx = np.minimum(idx, len(values) - 1)
            out = np.asarray(values)[idx]
            return float(out) if size is None else out
        if k == "lognormal":
            return np.exp(p[0] + p[1] * rng.standard_normal(size))
        # pareto via inverse CDF of the survival function (scale/x)^index
        u = rng.random(size)
        return p[1] * u ** (-1.0 / p[0])

    # -- transforms and moments --------------------------------------------

    def mgf(self, q: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """E exp(qV), exactly; ``math.inf`` beyond the finite domain.

        Elementwise over an array ``q`` of finite values; a float argument
        gives a float.
        """
        k, p = self.kind, self.params
        qa = np.asarray(q, dtype=float)
        x = qa.reshape(-1)  # 1-d, so a float also takes the in-place steps
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if k == "exponential":
                rate = p[0]
                out = rate - x
                np.divide(rate, out, out=out)
                out[~(x < rate)] = math.inf
            elif k == "gamma":
                shape, scale = p
                out = (1.0 - x * scale) ** (-shape)
                out[~(x < 1.0 / scale)] = math.inf
            elif k == "deterministic":
                arg = x * p[0]
                out = np.exp(arg)
                out[~(arg < 709.0)] = math.inf
            elif k == "uniform":
                lo, hi = p
                series = (1.0 + x * (lo + hi) / 2.0
                          + x * x * (hi * hi + hi * lo + lo * lo) / 6.0)
                # e^m (1 - e^-d) / d with m the larger exponent: no cancellation
                d = np.abs(x) * (hi - lo)
                exact = np.exp(np.maximum(x * lo, x * hi)) * -np.expm1(-d) / d
                out = np.where(np.abs(x) * max(abs(lo), abs(hi)) < 1e-8,
                               series, exact)
            elif k == "discrete":
                out, over = np.zeros(x.shape), np.zeros(x.shape, dtype=bool)
                for v, w in zip(*p):
                    arg = x * v
                    over |= arg > 709.0
                    out += w * np.exp(arg)
                out[over] = math.inf
            else:
                # lognormal and pareto: no positive exponential moments
                out = np.full(x.shape, math.inf)
                for i in np.flatnonzero(x < 0):
                    out[i] = self._quad_expectation(float(x[i]))
        out[x == 0.0] = 1.0
        return float(out[0]) if qa.ndim == 0 else out.reshape(qa.shape)

    def mgf_endpoint(self) -> MgfEndpoint:
        """q_V and the MGF value there (finite or ``inf``)."""
        k, p = self.kind, self.params
        if k == "exponential":
            return MgfEndpoint(p[0], math.inf)
        if k == "gamma":
            return MgfEndpoint(1.0 / p[1], math.inf)
        if k in ("deterministic", "uniform", "discrete"):
            return MgfEndpoint(math.inf, math.inf)
        # lognormal and pareto: no exponential moments, phi(0) = 1
        return MgfEndpoint(0.0, 1.0)

    def moment(self, p_order: float) -> float:
        """E V^p for p >= 0; ``math.inf`` when divergent."""
        if p_order < 0:
            raise DistributionError("moment order must be >= 0")
        if p_order == 0:
            return 1.0
        k, p = self.kind, self.params
        if k == "exponential":
            return math.gamma(p_order + 1.0) / p[0] ** p_order
        if k == "gamma":
            shape, scale = p
            return scale ** p_order * math.exp(
                math.lgamma(shape + p_order) - math.lgamma(shape))
        if k == "deterministic":
            return _real_power(p[0], p_order)
        if k == "uniform":
            lo, hi = p
            if lo < 0:
                raise DistributionError(
                    "fractional moments of a negatively supported uniform law")
            r = p_order + 1.0
            return (hi ** r - lo ** r) / (r * (hi - lo))
        if k == "discrete":
            values, probs = p
            return sum(w * _real_power(v, p_order) for v, w in zip(values, probs))
        if k == "lognormal":
            mu, sigma = p
            return math.exp(p_order * mu + 0.5 * (p_order * sigma) ** 2)
        index, scale = p
        if p_order >= index:
            return math.inf
        return index * scale ** p_order / (index - p_order)

    def mean(self) -> float:
        return self.moment(1.0)

    # -- density (used by quadrature fallbacks) -----------------------------

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Density where one exists; raises for point masses and atoms."""
        k, p = self.kind, self.params
        x = np.asarray(x, dtype=float)
        if k == "exponential":
            rate = p[0]
            return np.where(x >= 0, rate * np.exp(-np.minimum(rate * x, 700.0)), 0.0)
        if k == "gamma":
            shape, scale = p
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.where(
                    x > 0,
                    np.exp((shape - 1.0) * np.log(np.maximum(x, 1e-300))
                           - x / scale - math.lgamma(shape) - shape * math.log(scale)),
                    0.0)
            return out
        if k == "uniform":
            lo, hi = p
            return np.where((x >= lo) & (x <= hi), 1.0 / (hi - lo), 0.0)
        if k == "lognormal":
            mu, sigma = p
            out = np.zeros_like(x)
            pos = x > 0
            lx = np.log(np.where(pos, x, 1.0))
            out[pos] = (np.exp(-0.5 * ((lx - mu) / sigma) ** 2)
                        / (np.where(pos, x, 1.0) * sigma * math.sqrt(2 * math.pi)))[pos]
            return out
        if k == "pareto":
            index, scale = p
            return np.where(x >= scale, index * scale ** index / x ** (index + 1.0), 0.0)
        raise DistributionError(f"{k} law has no density")

    # -- internals -----------------------------------------------------------

    def _quad_expectation(self, q: float) -> float:
        """Adaptive quadrature of E exp(qV) for the heavy-tailed kinds."""
        from scipy import integrate     # only the lognormal and Pareto mgf
        lo, hi = self.support()

        def integrand(x):
            return math.exp(q * x) * float(self.pdf(x))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            val, _ = integrate.quad(integrand, lo, hi,
                                    epsabs=_QUAD_ABS_TOL, limit=_QUAD_LIMIT)
        if any(issubclass(w.category, integrate.IntegrationWarning)
               for w in caught):
            warnings.warn("quadrature node cap hit; value is approximate",
                          NumericsWarning, stacklevel=3)
        return val


def _real_power(v: float, p: float) -> float:
    if v < 0 and p != round(p):
        raise DistributionError("fractional moment of a negative value")
    if v == 0.0:
        return 0.0
    return math.copysign(abs(v) ** p, 1.0 if v > 0 or round(p) % 2 == 0 else -1.0)
