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

import heapq
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import DistributionError, NumericsWarning

__all__ = ["Distribution", "MgfEndpoint", "DistributionError"]

_PROB_TOL = 1e-12
_QUAD_TOL = 1e-12        # absolute and relative
_QUAD_LIMIT = 500

_KINDS = ("exponential", "gamma", "deterministic", "uniform", "discrete",
          "lognormal", "pareto")


@dataclass(frozen=True)
class MgfEndpoint:
    """Right endpoint q_V = sup{q : E exp(qV) < oo} and the MGF's pole there.

    ``pole`` is (k, s) with E exp((q_V - h) V) = (s h)^-k for every h > 0:
    (1, 1/rate) for exponential and (shape, scale) for gamma, the laws with
    a finite endpoint where the MGF diverges; None for every other kind.
    Written in the gap h, (s h)^-k keeps gaps that q_V - h would round away
    below about 1e-16 q_V.
    """

    q_max: float
    pole: Optional[Tuple[float, float]] = None


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
                    out[i] = self.expect(
                        lambda v, qi=float(x[i]): math.exp(qi * v))
        out[x == 0.0] = 1.0
        return float(out[0]) if qa.ndim == 0 else out.reshape(qa.shape)

    def mgf_endpoint(self) -> MgfEndpoint:
        """q_V and the pole of the MGF there, if it has one."""
        k, p = self.kind, self.params
        if k == "exponential":
            return MgfEndpoint(p[0], (1.0, 1.0 / p[0]))
        if k == "gamma":
            return MgfEndpoint(1.0 / p[1], p)
        if k in ("deterministic", "uniform", "discrete"):
            return MgfEndpoint(math.inf)
        # lognormal and pareto: no exponential moments, phi(0) = 1
        return MgfEndpoint(0.0)

    def atoms(self) -> Optional[Tuple[tuple, tuple]]:
        """(values, probs) of a deterministic or discrete law; None for a
        law with a density."""
        if self.kind == "discrete":
            return self.params
        if self.kind == "deterministic":
            return self.params, (1.0,)
        return None

    def expect(self, f: Callable[[float], float]) -> float:
        """E f(V): atoms summed by ``math.fsum``, a density integrated by
        ``quad`` (one call of ``f`` per node).  A quadrature that hits its
        panel cap warns with ``NumericsWarning``; its value is then
        approximate."""
        atoms = self.atoms()
        if atoms is not None:
            return math.fsum(w * f(v) for v, w in zip(*atoms))
        f_nodes = pointwise(f)
        return quad(lambda x: f_nodes(x) * self.pdf(x), *self.support(),
                    _QUAD_TOL, _QUAD_TOL, _QUAD_LIMIT)

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


def _real_power(v: float, p: float) -> float:
    if v < 0 and p != round(p):
        raise DistributionError("fractional moment of a negative value")
    if v == 0.0:
        return 0.0
    return math.copysign(abs(v) ** p, 1.0 if v > 0 or round(p) % 2 == 0 else -1.0)


# -- adaptive Gauss-Kronrod quadrature ------------------------------------------

# QUADPACK's qk15 (Piessens et al. 1983) on [-1, 1]: the Kronrod nodes from
# the right end to the centre, their weights, and the 7-point Gauss weights,
# zero at the nodes that only the Kronrod rule has; the rule mirrors them
_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327])
_GK_NODES = np.concatenate([-_XK, _XK[-2::-1]])
_GK_KRONROD = np.concatenate([_WK, _WK[-2::-1]])
_GK_GAUSS = np.concatenate([_WG, _WG[-2::-1]])
_ROUNDING = 50.0 * np.finfo(float).eps    # QUADPACK's floor on an error
_TINY = np.finfo(float).tiny


def pointwise(f: Callable[[float], float]
              ) -> Callable[[np.ndarray], np.ndarray]:
    """A scalar ``f`` made to take an array of nodes: one call per node,
    each with a Python float."""
    return lambda x: np.array([f(v) for v in x.tolist()], dtype=float)


def _gk15(f: Callable, a: float, b: float) -> Tuple[float, float]:
    """The 15-point Kronrod value of the integral of f over [a, b] and
    QUADPACK's error estimate, from one call of f on the 15 nodes."""
    half = 0.5 * (b - a)
    fx = f(0.5 * (a + b) + half * _GK_NODES)
    resk = float(_GK_KRONROD @ fx)
    err = abs((resk - float(_GK_GAUSS @ fx)) * half)
    resabs = float(_GK_KRONROD @ np.abs(fx)) * abs(half)
    resasc = float(_GK_KRONROD @ np.abs(fx - 0.5 * resk)) * abs(half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _TINY / _ROUNDING:
        err = max(_ROUNDING * resabs, err)
    return resk * half, err


def quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
         epsabs: float, epsrel: float, limit: int) -> float:
    """The integral of f over [a, b], b finite or inf, by adaptive 7-15
    Gauss-Kronrod (QUADPACK's QAG without extrapolation).

    ``f`` maps an array of nodes to an array of values (wrap a scalar
    function in ``pointwise``).  The panel with the largest error estimate
    is halved until the summed estimate is at most max(epsabs, epsrel |I|).
    An infinite upper end is mapped to (0, 1] by x = a + (1 - t)/t, as
    QUADPACK's QAGI does.  Stopping at ``limit`` panels, or at a panel too
    narrow to halve, warns with ``NumericsWarning``; the value is then
    approximate.
    """
    if b == math.inf:
        g = f
        f = lambda t: g(a + (1.0 - t) / t) / (t * t)
        a, b = 0.0, 1.0
    val, err = _gk15(f, a, b)
    panels = [(-err, a, b, val)]           # a heap: the worst panel first
    total, error = val, err
    while error > max(epsabs, epsrel * abs(total)):
        neg_err, lo, hi, v = panels[0]
        mid = 0.5 * (lo + hi)
        if len(panels) >= limit or not lo < mid < hi:
            warnings.warn("quadrature panel cap hit; value is approximate",
                          NumericsWarning, stacklevel=2)
            break
        heapq.heappop(panels)
        total, error = total - v, error + neg_err
        for lo_, hi_ in ((lo, mid), (mid, hi)):
            v_, err_ = _gk15(f, lo_, hi_)
            heapq.heappush(panels, (-err_, lo_, hi_, v_))
            total, error = total + v_, error + err_
    return math.fsum(v for *_, v in panels)
