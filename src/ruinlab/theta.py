"""Bivariate laws for the per-interval investment coefficients (mu, sigma^2/2).

Four support shapes are enough for every configuration the toolkit handles:

* ``finite``           : finitely many atoms,
* ``countable``        : an infinite atom family given by closed-form index
                         functions, plus the declared limit points of its
                         support; the head atoms j < SERIES_HEAD and the
                         limit points span every later atom, so they are
                         the candidate points of the tangent geometry,
* ``polytope_uniform`` : the uniform law on a convex polygon given by its
                         vertices,
* ``product``          : independent marginals for mu and sigma^2/2.

The one countable family shipped with the package is the zeta-weighted
family P(Theta = (1/j, 1 - 1/j)) = j^(-p) / zeta(p), j >= 1, whose support
accumulates at (0, 1): its atoms lie on the segment from (1, 0), j = 1,
to the limit (0, 1).  Countable sums go through ``countable_sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .distributions import Distribution
from .errors import DistributionError, EstimationError

__all__ = ["ThetaLaw", "zeta_regime_law"]

Point = Tuple[float, float]

SERIES_HEAD = 256        # J: countable sums add f(1), ..., f(J - 1) exactly


@lru_cache(maxsize=1)
def _series_nodes() -> Tuple[np.ndarray, np.ndarray]:
    # j = 1, ..., J + 2, then x = J/t for 12-point Gauss-Legendre on the
    # t-panels [2^-(k+1), 2^-k], k < 40, with the weights of dx = J/t^2 dt
    g, w = np.polynomial.legendre.leggauss(12)
    lo = 0.5 ** np.arange(1.0, 41.0)[:, None]
    t = lo * (1.5 + 0.5 * g)
    j = np.arange(1.0, SERIES_HEAD + 3.0)
    return np.append(j, SERIES_HEAD / t), 0.5 * lo * w * SERIES_HEAD / t ** 2


def countable_sum(f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Sum_{j >= 1} f(j) of a summand vectorized over float j, smooth in j
    and decaying like a power, as parts for ``math.fsum``: the head terms
    f(1), ..., f(J - 1), then the Euler-Maclaurin tail (DLMF 2.10.1)

        Sum_{j >= J} f(j) = int_J^inf f + f(J)/2 - f'(J)/12 + f'''(J)/720,

    the integral by Gauss-Legendre in t = J/x, closed below t = 2^-40 by the
    geometric continuation of the last two panels (exact for a pure power),
    the derivatives by central differences at unit step.  f must be finite
    and accurate out to j = J 2^40, about 2.8e14.
    """
    j, weights = _series_nodes()
    vals = f(j)
    n = SERIES_HEAD
    f_m2, f_m1, f_0, f_p1, f_p2 = vals[n - 3:n + 2]
    panels = (vals[n + 2:].reshape(weights.shape) * weights).sum(axis=1)
    r = float(panels[-1] / panels[-2]) if panels[-1] else 0.0
    if not 0.0 <= r < 1.0:
        raise EstimationError("countable tail does not decay")
    integral = float(panels.sum()) + float(panels[-1]) * r / (1.0 - r)
    d1 = (f_m2 - 8.0 * f_m1 + 8.0 * f_p1 - f_p2) / 12.0
    d3 = (f_p2 - 2.0 * f_p1 + 2.0 * f_m1 - f_m2) / 2.0
    return np.append(vals[:n - 1], integral + f_0 / 2 - d1 / 12 + d3 / 720)


@dataclass(frozen=True)
class ThetaLaw:
    """Law of the coefficient vector Theta = (mu, sigma^2/2)."""

    kind: str
    atoms: Optional[tuple] = None            # finite: (((mu, hs), prob), ...)
    vertices: Optional[tuple] = None         # polytope_uniform
    dist_mu: Optional[Distribution] = None   # product
    dist_halfsig2: Optional[Distribution] = None
    # countable: vectorized j -> (mu_j, hs_j) and j -> prob_j
    point_fn: Optional[Callable] = None
    prob_fn: Optional[Callable] = None
    index_sampler: Optional[Callable] = None
    limit_points: tuple = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def finite(cls, atoms: Sequence[Tuple[Point, float]]) -> "ThetaLaw":
        pts = tuple(((float(x), float(y)), float(w)) for (x, y), w in atoms)
        if not pts:
            raise DistributionError("finite coefficient law needs atoms")
        if any(w <= 0 for _, w in pts):
            raise DistributionError("atom probabilities must be > 0")
        if abs(sum(w for _, w in pts) - 1.0) > 1e-12:
            raise DistributionError("atom probabilities must sum to 1")
        return cls("finite", atoms=pts)

    @classmethod
    def point_mass(cls, mu: float, half_sigma2: float) -> "ThetaLaw":
        return cls.finite([((mu, half_sigma2), 1.0)])

    @classmethod
    def polytope_uniform(cls, vertices: Sequence[Point]) -> "ThetaLaw":
        verts = _order_convex(vertices)
        if len(verts) < 3:
            raise DistributionError("polytope needs at least 3 vertices")
        return cls("polytope_uniform", vertices=verts)

    @classmethod
    def product(cls, dist_mu: Distribution, dist_halfsig2: Distribution
                ) -> "ThetaLaw":
        return cls("product", dist_mu=dist_mu, dist_halfsig2=dist_halfsig2)

    @classmethod
    def countable(cls, point_fn, prob_fn, index_sampler,
                  limit_points: Sequence[Point] = ()) -> "ThetaLaw":
        """Atoms point_fn(j) with probabilities prob_fn(j), j >= 1.

        Contract: every atom j >= SERIES_HEAD lies in the convex hull of the
        head atoms j = 1, ..., SERIES_HEAD - 1 and ``limit_points``, so a
        linear functional's maximum over the support sits at one of them.
        """
        return cls("countable", point_fn=point_fn, prob_fn=prob_fn,
                   index_sampler=index_sampler,
                   limit_points=tuple((float(x), float(y))
                                      for x, y in limit_points))

    # -- sampling and moments ----------------------------------------------

    def sample(self, rng: np.random.Generator, size: Optional[int] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw (mu, sigma^2/2); arrays when ``size`` is given."""
        n = 1 if size is None else size
        if self.kind == "finite":
            pts = np.array([p for p, _ in self.atoms])
            probs = np.cumsum([w for _, w in self.atoms])
            idx = np.minimum(np.searchsorted(probs, rng.random(n), side="right"),
                             len(self.atoms) - 1)
            mu, hs = pts[idx, 0], pts[idx, 1]
        elif self.kind == "countable":
            j = self.index_sampler(rng, n)
            mu, hs = self.point_fn(np.asarray(j, dtype=float))
        elif self.kind == "polytope_uniform":
            mu, hs = _sample_polygon(np.asarray(self.vertices), rng, n)
        else:
            mu = np.atleast_1d(self.dist_mu.sample(rng, n))
            hs = np.atleast_1d(self.dist_halfsig2.sample(rng, n))
        if size is None:
            return float(mu[0]), float(hs[0])
        return np.asarray(mu, dtype=float), np.asarray(hs, dtype=float)

    def mean(self) -> Tuple[float, float]:
        """(E mu, E sigma^2/2); a countable law sums p_j Theta_j by
        ``countable_sum``."""
        if self.kind == "finite":
            mu = sum(w * p[0] for p, w in self.atoms)
            hs = sum(w * p[1] for p, w in self.atoms)
            return mu, hs
        if self.kind == "countable":
            mu, hs = (math.fsum(countable_sum(
                lambda j: self.prob_fn(j) * self.point_fn(j)[i])) for i in (0, 1))
            return mu, hs
        if self.kind == "polytope_uniform":
            cx, cy = _polygon_centroid(np.asarray(self.vertices))
            return cx, cy
        return self.dist_mu.mean(), self.dist_halfsig2.mean()

    # -- support geometry ----------------------------------------------------

    @property
    def is_point_mass(self) -> bool:
        return self.kind == "finite" and len(self.atoms) == 1

    @property
    def support_box(self) -> Tuple[float, float, float, float]:
        """(mu_min, mu_max, hs_min, hs_max) of the candidate points."""
        mu, hs = self.candidate_points().T
        return float(mu.min()), float(mu.max()), float(hs.min()), float(hs.max())

    def candidate_points(self) -> np.ndarray:
        """Points whose touch values determine the tangent parameter, as a
        (k, 2) array of (mu, sigma^2/2) rows.

        The scanned functionals are linear in theta, so their maximum over
        the support sits at an atom, a polygon vertex or a product-box
        corner; a countable law gives its head atoms j < SERIES_HEAD and
        then its limit points, which span the rest by the contract of
        ``countable``.
        """
        if self.kind == "finite":
            return np.array([p for p, _ in self.atoms], dtype=float)
        if self.kind == "polytope_uniform":
            return np.array(self.vertices, dtype=float)
        if self.kind == "countable":
            j = np.arange(1.0, SERIES_HEAD)
            return np.vstack([np.column_stack(self.point_fn(j)),
                              np.reshape(self.limit_points, (-1, 2))])
        a, b = self.dist_mu.support()
        c, d = self.dist_halfsig2.support()
        if not (math.isfinite(b) and math.isfinite(d)):
            raise DistributionError(
                "product coefficient law must have bounded support for the "
                "tangent geometry")
        if not math.isfinite(a):
            raise DistributionError("mu marginal must be bounded below")
        return np.array([(a, c), (a, d), (b, c), (b, d)], dtype=float)


# -- zeta-weighted worked family ----------------------------------------------

def _zeta_points(j: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    mu = 1.0 / j
    return mu, 1.0 - mu


def _zeta_probs(p: float, zeta_p: float, j: np.ndarray) -> np.ndarray:
    w = j ** (-p)
    w /= zeta_p
    return w


def _zeta_sampler(p: float, rng: np.random.Generator, n: int) -> np.ndarray:
    # the draw scipy.stats.zipf.rvs makes, without importing scipy.stats
    return rng.zipf(p, size=n)


def zeta_regime_law(p: int) -> ThetaLaw:
    """P(Theta = (1/j, 1 - 1/j)) = j^(-p)/zeta(p), j >= 1.

    The support accumulates at (0, 1), which is where the tangent ray
    touches it; the golden-ratio tangent parameter and the p = 2 divergence
    dichotomy both live on this family.
    """
    if p < 2:
        raise DistributionError("zeta family needs p >= 2 for a finite mean")
    # its own countable sum rounds zeta(p) correctly; scipy's zeta(5) does not
    zeta_p = math.fsum(countable_sum(lambda j: j ** -float(p)))
    return ThetaLaw.countable(
        point_fn=_zeta_points,
        prob_fn=partial(_zeta_probs, float(p), zeta_p),
        index_sampler=partial(_zeta_sampler, float(p)),
        limit_points=[(0.0, 1.0)],
    )


# -- polygon helpers -----------------------------------------------------------

def _order_convex(vertices: Sequence[Point]) -> tuple:
    pts = [(float(x), float(y)) for x, y in dict.fromkeys(map(tuple, vertices))]
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    return tuple(pts)


def _polygon_centroid(v: np.ndarray) -> Tuple[float, float]:
    x, y = v[:, 0], v[:, 1]
    xr, yr = np.roll(x, -1), np.roll(y, -1)
    cross = x * yr - xr * y
    area = cross.sum() / 2.0
    cx = ((x + xr) * cross).sum() / (6.0 * area)
    cy = ((y + yr) * cross).sum() / (6.0 * area)
    return float(cx), float(cy)


def _sample_polygon(v: np.ndarray, rng: np.random.Generator, n: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform points in a convex polygon by fan triangulation."""
    m = len(v)
    tris = np.array([[0, i, i + 1] for i in range(1, m - 1)])
    a = v[tris[:, 1]] - v[tris[:, 0]]
    b = v[tris[:, 2]] - v[tris[:, 0]]
    areas = 0.5 * np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    pick = rng.choice(len(tris), size=n, p=areas / areas.sum())
    r1 = rng.random(n)
    r2 = rng.random(n)
    flip = r1 + r2 > 1.0
    r1 = np.where(flip, 1.0 - r1, r1)
    r2 = np.where(flip, 1.0 - r2, r2)
    base = v[tris[pick, 0]]
    pts = base + r1[:, None] * a[pick] + r2[:, None] * b[pick]
    return pts[:, 0], pts[:, 1]
