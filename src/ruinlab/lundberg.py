"""Decay-exponent computation and the tangent geometry of the coefficient law.

For constant-per-interval coefficients with (mu, sigma^2/2), tau, and the
Wiener path jointly independent, conditioning on the interval gives

    phi_nu(q) = E phi_tau(<u(q), Theta>),      u(q) = (-q, q (q + 1)),

so the step-multiplier transform is the inter-arrival MGF averaged over a
linear functional of the coefficient vector.  The decay exponent beta is
the positive root of phi_nu(beta) = 1 when one exists.

Both phi_nu(q) and its endpoint value are one expectation over a gap law.
Given a level a >= <u(q), Theta> on the support, the gap

    H_q = a - <u(q), Theta> = a + q mu - q (q + 1) sigma^2/2  >= 0

turns the integrand into g(H_q) = phi_tau(a - H_q).  For exponential and
gamma inter-arrivals a is the MGF endpoint q_tau and g(h) = (s h)^-k exactly
for every h > 0, k the pole order; for other laws a is the top level of the
support and g(h) = phi_tau(a - h).  The ray <u(q), .> = q_tau sweeps toward
the support as q grows and first touches it at q_plus; there the gap law
has a mass exponent at 0, P(H <= h) ~ c h^rho, and E g(H) is finite iff
rho > k, whatever the support shape.  Below q_plus nothing touches, rho is
infinite and the expectation is finite.  One function per gap-law kind
evaluates E g(H), split at a gap delta for ``classify_endpoint``: exact sums
for finite Theta, ``theta.countable_sum`` (an exact head and an
Euler-Maclaurin tail) for the zeta series, quadrature in log h of a
polygon's level density, and nested quadrature of a product law's
marginals.

Piecewise regimes redraw (mu, sigma) and the Wiener increment independently
on every cell of width h.  With tau = (n - 1) h + r, r in (0, h], and M_q(w)
the transform over one cell of width w,

    E[e^{q nu} | tau] = M_q(h)^(n-1) M_q(r).

log M_q(w) is convex in w and zero at 0, so with theta_q = log M_q(h)/h,
c_q e^{theta_q t} <= E[e^{q nu} | tau = t] <= e^{theta_q t} for some
c_q > 0: phi_nu(q) is finite iff phi_tau(theta_q) is, and the endpoint q_nu
solves theta_q = q_tau (inf for bounded tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Tuple, Union

import numpy as np
from scipy import integrate, optimize

from .distributions import Distribution
from .engine import StepKernel
from .errors import DistributionError, HypothesisViolation
from .model import ModelConfig, RegimeSpec, RngStreams, as_streams
from .theta import SERIES_HEAD, ThetaLaw, countable_sum

__all__ = [
    "u_vector", "phi_nu_analytic", "phi_nu_piecewise", "solve_beta",
    "lundberg_report", "q_plus_compute", "classify_endpoint",
    "LundbergReport", "TangentGeometry", "HLaw", "EndpointVerdict",
]

_TOUCH_TOL = 1e-12
_DECAY_TOL = 1e-9        # rounding slack on the series mass exponent


def u_vector(q: float) -> Tuple[float, float]:
    """Direction (-q, q(q+1)) pairing the coefficient vector in phi_nu."""
    return (-q, q * (q + 1.0))


def _inner(q: float, x, y):
    out = -q * np.asarray(x)
    out += q * (q + 1.0) * np.asarray(y)
    return out


# -- gap-variable law ----------------------------------------------------------

@dataclass(frozen=True)
class HLaw:
    """Law of the gap H, in whichever form the support shape allows, with
    its mass exponent ``rho`` at zero: P(H <= h) ~ c h^rho as h -> 0
    (infinite when no support point touches the level).

    ``discrete``: finitely many atoms; ``series``: countable atoms given by
    vectorized index functions; ``polygon``: the smallest gap plus a part
    with a density that has kinks at the vertices; ``product``: the laws of
    the two independent parts of H,
    h0 + q (mu - mu_min) and q (q + 1) (sigma^2/2_max - sigma^2/2), with h0
    the gap of the corner (mu_min, sigma^2/2_max).
    """

    kind: str
    rho: float
    atoms: Optional[tuple] = None          # ((h, prob), ...)
    h_fn: Optional[Callable] = None        # j-array -> h-array (nonincreasing)
    p_fn: Optional[Callable] = None
    offset: float = 0.0                    # polygon: the smallest gap
    density: Optional[Callable] = None     # polygon: density of H - offset
    kinks: tuple = ()                      # polygon: sorted vertex values
    marginals: tuple = ()                  # product: the two parts of H


@dataclass(frozen=True)
class TangentGeometry:
    """First-touch parameter of the sweeping ray and the gap law it defines."""

    q_plus: float
    q_tau: float
    touching_points: tuple
    h_law: HLaw


@dataclass(frozen=True)
class EndpointVerdict:
    verdict: str                 # "endpoint_infinite" | "endpoint_finite"
    integral_value: float        # the (0, delta] integral; inf when divergent
    head_value: float = 0.0      # the integral over H > delta
    inconclusive: bool = False   # always False; kept for readers of the field


@dataclass(frozen=True)
class LundbergReport:
    beta: Optional[float]
    q_nu: float
    phi_at_endpoint: Optional[float]   # inf allowed; None when unknown
    hypothesis_flags: dict
    status: str                        # "root" | "no_root"
    # tangent geometry and endpoint verdict of a constant regime, kept out
    # of to_dict
    geometry: Optional[TangentGeometry] = field(default=None, compare=False)
    endpoint: Optional[EndpointVerdict] = field(default=None, compare=False)

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "q_nu": _json_float(self.q_nu),
            "phi_at_endpoint": _json_float(self.phi_at_endpoint),
            "hypothesis_flags": self.hypothesis_flags,
            "status": self.status,
        }


def _json_float(x):
    if x is None:
        return None
    if math.isinf(x):
        return "inf"
    if math.isnan(x):
        return "nan"
    return x


# -- tangent parameter ---------------------------------------------------------

def _touch_values(x: np.ndarray, y: np.ndarray, q_tau: float) -> np.ndarray:
    """Smallest q > 0 with <u(q), (x, y)> = q_tau, or inf if none exists.

    For y > 0 this is the positive root of q(q+1) y - q x = q_tau; on the
    y = 0 boundary the functional is -q x, so only x < 0 can ever touch.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        root = ((x - y) + np.sqrt((x - y) ** 2 + 4.0 * y * q_tau)) / (2.0 * y)
        edge = np.where(x < 0.0, -q_tau / x, math.inf)
    return np.where(y > 0.0, root, edge)


def q_plus_compute(theta: ThetaLaw, q_tau: float) -> TangentGeometry:
    """First parameter at which the ray <u(q), .> = q_tau meets the support.

    The functional is linear in theta, so its maximum over the support sits
    at the candidate points (atoms plus declared limit points, polygon
    vertices, or product-box corners), and the first touch is the smallest
    candidate touch value.
    """
    if not (math.isfinite(q_tau) and q_tau > 0):
        raise HypothesisViolation(
            "interarrival_endpoint",
            "tangent geometry needs a finite positive MGF endpoint for the "
            "inter-arrival law")
    pts = theta.candidate_points()
    x, y = pts[:, 0], pts[:, 1]
    if np.any(y < -1e-15):
        raise DistributionError("sigma^2/2 must be nonnegative")
    q_plus = float(np.min(_touch_values(x, y, q_tau)))
    if not math.isfinite(q_plus) or q_plus <= 0:
        raise DistributionError(
            "support admits no tangent ray; check boundedness to the left "
            "and above")
    levels = _inner(q_plus, x, y)
    on_line = np.abs(levels - q_tau) <= _TOUCH_TOL * max(1.0, q_tau)
    touching = tuple(dict.fromkeys(map(tuple, pts[on_line].tolist())))
    h_law = _build_h_law(theta, q_plus, q_tau, float(np.max(levels)))
    if h_law.rho == math.inf and theta.kind == "polytope_uniform":
        raise DistributionError("no polygon vertex lies on the ray")
    return TangentGeometry(q_plus=q_plus, q_tau=q_tau,
                           touching_points=touching, h_law=h_law)


def _build_h_law(theta: ThetaLaw, q: float, a: float, top: float) -> HLaw:
    """The law of H = a - <u(q), Theta> and its mass exponent rho, read off
    the support geometry; ``top`` is the largest level <u(q), .> over the
    candidate points.

    The ray touches the support when a - top is within the touch tolerance
    of ``q_plus_compute``, and a touching atom gives rho = 0.  Countable
    atoms with p_j ~ j^-p and h_j ~ c j^-r give rho = (p - 1)/r, with p and
    r read off at J and 2J (inf when the gaps do not decay).  A polygon has
    rho = 2 when one vertex touches and 1 when an edge lies on the level
    line.  A product box touches at its corner (mu_min, sigma^2/2_max), and
    each uniform marginal adds 1 to rho (an atom marginal adds 0).  With no
    touch, rho is inf.
    """
    tol = _TOUCH_TOL * max(1.0, a)
    touch = a - top <= tol
    if theta.kind == "finite":
        merged: dict = {}
        for (x, y), w in theta.atoms:
            h = a - float(_inner(q, x, y))
            merged[h] = merged.get(h, 0.0) + w
        return HLaw("discrete", 0.0 if touch else math.inf,
                    atoms=tuple(sorted(merged.items())))
    if theta.kind == "countable":
        h_fn = lambda j: a - _inner(q, *theta.point_fn(j))
        if not touch:
            rho = math.inf
        elif np.any(h_fn(np.arange(1.0, SERIES_HEAD)) <= tol):
            rho = 0.0
        else:
            far = np.array([SERIES_HEAD, 2.0 * SERIES_HEAD])
            p_far, h_far = theta.prob_fn(far), h_fn(far)
            decay = math.log2(h_far[0] / h_far[1])
            rho = ((math.log2(p_far[0] / p_far[1]) - 1.0) / decay
                   if decay > 0.0 else math.inf)
        return HLaw("series", rho, h_fn=h_fn, p_fn=theta.prob_fn)
    if theta.kind == "polytope_uniform":
        # each vertex's distance d below the top vertex, from coordinate
        # differences so that it keeps its digits when every gap is near a;
        # a d within rounding of its two terms puts an edge level with the
        # top vertex
        verts = np.asarray(theta.vertices)
        x, y = verts.T
        i = int(np.argmax(_inner(q, x, y)))
        d = _inner(q, x[i] - x, y[i] - y)
        scale = q * np.abs(x[i] - x) + q * (q + 1.0) * np.abs(y[i] - y)
        d = np.where(d <= 1e-14 * scale, 0.0, d)
        n_top = len(d) - np.count_nonzero(d)
        rho = math.inf if not touch else 2.0 if n_top == 1 else 1.0
        return HLaw("polygon", rho, offset=0.0 if touch else a - top,
                    density=_polygon_level_density(verts, d),
                    kinks=tuple(sorted(set(d.tolist()))))
    dx, dy = theta.dist_mu, theta.dist_halfsig2
    marginals = (_from_end(dx, False, q, 0.0 if touch else a - top),
                 _from_end(dy, True, q * (q + 1.0)))
    rho = float(sum(d.kind == "uniform" for d in marginals))
    return HLaw("product", rho if touch else math.inf, marginals=marginals)


def _from_end(dist: Distribution, top: bool, scale: float,
              offset: float = 0.0) -> Distribution:
    """Law of offset + scale times the distance of X from the low end of its
    support, or from the high end with ``top``, for the kinds a product box
    admits."""
    lo, hi = dist.support()
    if dist.kind == "uniform":
        return Distribution.uniform(offset, offset + scale * (hi - lo))
    return Distribution.discrete(
        (offset + scale * (hi - v if top else v - lo), w)
        for v, w in zip(*_atoms(dist)))


def _atoms(dist: Distribution) -> tuple:
    """(values, probs) of a deterministic or discrete law."""
    return dist.params if dist.kind == "discrete" else (dist.params, (1.0,))


# -- analytic phi_nu -------------------------------------------------------------

def phi_nu_analytic(theta: ThetaLaw, tau_dist: Distribution, q: float) -> float:
    """E phi_tau(<u(q), Theta>) as the gap expectation E g(H_q) that
    ``classify_endpoint`` takes at q_plus; ``inf`` once the support reaches
    past the MGF endpoint, or touches it with rho <= k."""
    if q == 0.0:
        return 1.0
    q_tau = tau_dist.mgf_endpoint().q_max
    pts = theta.candidate_points()
    top = float(np.max(_inner(q, pts[:, 0], pts[:, 1])))
    if top > q_tau + _TOUCH_TOL * max(1.0, q_tau):
        return math.inf
    pole = tau_dist.kind in ("exponential", "gamma")
    a = q_tau if pole else top
    h_law = _build_h_law(theta, q, a, top)
    if pole and h_law.rho <= _endpoint_pole(tau_dist)[0] + _DECAY_TOL:
        return math.inf
    g = _pole_fn(tau_dist) if pole else lambda h: tau_dist.mgf(a - h)
    return math.fsum(_GAP_PARTS[h_law.kind](h_law, g, math.inf))


def _expect_1d(dist: Distribution, f: Callable[[float], float],
               lo: float = -math.inf, hi: float = math.inf,
               spike: float = 0.0) -> float:
    """E[f(X); lo < X <= hi], a density by ``_quad`` with ``spike``."""
    if dist.kind in ("deterministic", "discrete"):
        return sum(w * f(v) for v, w in zip(*_atoms(dist)) if lo < v <= hi)
    a, b = dist.support()
    a, b = max(a, lo), min(b, hi)
    if a >= b:
        return 0.0
    return _quad(lambda x: f(x) * float(dist.pdf(x)), a, b, spike)


def _quad(f: Callable[[float], float], a: float, b: float,
          spike: float = 0.0) -> float:
    """The integral of f over [a, b].  Given a spike of f with width
    ``spike`` at a, it runs in s = log(1 + (x - a)/spike), where the spike
    is flat."""
    if spike > 0.0:
        return integrate.quad(
            lambda s: f(a + spike * math.expm1(s)) * spike * math.exp(s),
            0.0, math.log1p((b - a) / spike), limit=300)[0]
    return integrate.quad(f, a, b, limit=300)[0]


# -- polygon level-set density ---------------------------------------------------

def _polygon_level_density(verts: np.ndarray,
                           levels: np.ndarray) -> Callable[[float], float]:
    """Density of a linear functional of Theta uniform on a convex polygon,
    given the functional's values ``levels`` at the vertices.

    The fan of triangles (v_0, v_i, v_i+1) tiles the polygon, and on a
    triangle with sorted vertex levels a <= b <= c the functional has the
    tent density rising from 0 at a to 2/(c - a) at b and falling back to 0
    at c.
    """
    x, y = verts[:, 0] - verts[0, 0], verts[:, 1] - verts[0, 1]
    areas = np.abs(x[1:-1] * y[2:] - x[2:] * y[1:-1])
    tents = [(sorted(levels[[0, i, i + 1]].tolist()), w)
             for i, w in enumerate((areas / areas.sum()).tolist(), start=1)]

    def tent(t: float, a: float, b: float, c: float) -> float:
        if not a < t < c:
            return 0.0
        return 2.0 / (c - a) * ((t - a) / (b - a) if t < b else (c - t) / (c - b))

    return lambda t: sum(w * tent(t, *abc) for abc, w in tents)


# -- the gap expectation E g(H), split at H = delta ---------------------------------

def _series_parts(h_law: HLaw, g, delta):
    """``countable_sum`` of the terms; the tail atoms gap below h_J <= delta."""
    terms = countable_sum(lambda j: h_law.p_fn(j) * g(h_law.h_fn(j)))
    if delta == math.inf:
        return math.fsum(terms), 0.0
    h = h_law.h_fn(np.arange(1.0, SERIES_HEAD + 1.0))
    if delta < h[-1]:
        raise ValueError(f"delta is below the series gap h_J = {h[-1]:.3g}")
    near = np.append(h[:-1] <= delta, True)
    return math.fsum(terms[near]), math.fsum(terms[~near])


def _discrete_parts(h_law: HLaw, g, delta):
    h, w = np.array(h_law.atoms).T
    terms = w * g(h)
    near = h <= delta
    return sum(terms[near].tolist(), 0.0), sum(terms[~near].tolist(), 0.0)


def _polygon_parts(h_law: HLaw, g, delta):
    """Quadrature of g(h0 + d) f(d) over h0 + d <= delta and over the rest,
    with H = h0 + D, h0 the offset and f the density of D, one span between
    vertex values of D at a time.  g may spike at h = 0, so a span from
    d = a with h0 + a > 0 runs in log h; a smallest gap far below the others
    then costs no accuracy."""
    h0 = h_law.offset
    f = lambda d: g(h0 + d) * h_law.density(d)

    def part(lo: float, hi: float) -> float:
        cuts = [max(lo, 0.0)]
        cuts += [d for d in h_law.kinks if cuts[0] < d < hi] + [hi]
        return math.fsum(_quad(f, a, b, spike=h0 + a)
                         for a, b in zip(cuts, cuts[1:]) if a < b)

    d_max = h_law.kinks[-1]
    return part(0.0, min(delta - h0, d_max)), part(delta - h0, d_max)


def _product_parts(h_law: HLaw, g, delta):
    """Nested quadrature of the marginals.  H = A + B with A = h0 + q V and
    B = q (q + 1) W independent (see ``HLaw``), so each level b of B splits
    the inner expectation over A at one cut.  g(b + A) spikes at distance
    b + h0 from the low end of A, and the inner expectation, as a function
    of b, at distance h0 from b = 0; both integrals run in the log of that
    distance."""
    da, db = h_law.marginals
    h0 = da.support()[0]

    def given_b(near: bool, b: float) -> float:
        f = lambda x: g(b + x)
        if near:
            return _expect_1d(da, f, hi=delta - b, spike=b + h0)
        return _expect_1d(da, f, lo=delta - b)

    return (_expect_1d(db, partial(given_b, True), spike=h0),
            _expect_1d(db, partial(given_b, False), spike=h0))


_GAP_PARTS = {"discrete": _discrete_parts, "series": _series_parts,
              "polygon": _polygon_parts, "product": _product_parts}


def classify_endpoint(geometry: TangentGeometry, tau_dist: Distribution,
                      delta: float) -> EndpointVerdict:
    """The gap expectation E g(H) of ``phi_nu_analytic`` at q_plus, in one
    pass.

    The verdict says whether it diverges at H = 0, which is whether the
    step-multiplier transform blows up at its own endpoint and in turn
    guarantees that the decay exponent exists.  With P(H <= h) ~ c h^rho
    and g(h) = (s h)^-k, it diverges iff rho <= k (up to ``_DECAY_TOL``),
    whatever the support shape.  A finite verdict carries the expectation
    over (0, delta] (``integral_value``) and over H > delta
    (``head_value``); their sum is phi_nu(q_plus).  Both come from the
    per-kind function that ``phi_nu_analytic`` calls below q_plus: exact
    sums for finite gap laws, ``countable_sum`` for a series, quadrature in
    log h of a polygon's level density, nested quadrature of a product
    law's marginals.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    endpoint = tau_dist.mgf_endpoint()
    if not math.isfinite(endpoint.q_max) or endpoint.finite_at_endpoint:
        raise HypothesisViolation(
            "interarrival_endpoint",
            "the dichotomy applies when the inter-arrival MGF endpoint is "
            "finite with a divergent value there")
    h_law = geometry.h_law
    if h_law.rho <= _endpoint_pole(tau_dist)[0] + _DECAY_TOL:
        return EndpointVerdict("endpoint_infinite", math.inf)
    near, head = _GAP_PARTS[h_law.kind](h_law, _pole_fn(tau_dist), delta)
    return EndpointVerdict("endpoint_finite", near, head)


def _endpoint_pole(tau_dist) -> Tuple[float, float]:
    """(k, s) with phi_tau(q_tau - h) = (s h)^-k: k is the pole order of the
    MGF at its endpoint, 1 for exponential (s = 1/rate) and the shape for
    gamma (s the scale), the only laws ``classify_endpoint`` accepts.  Taken
    from the gap h itself, the value keeps gaps that q_tau - h would round
    away below about 1e-16 q_tau."""
    if tau_dist.kind == "exponential":
        return 1.0, 1.0 / tau_dist.params[0]
    return tau_dist.params


def _pole_fn(tau_dist) -> Callable:
    """h -> phi_tau(q_tau - h) = (s h)^-k, for scalars and arrays."""
    k, scale = _endpoint_pole(tau_dist)
    return lambda h: (scale * h) ** -k


def endpoint_phi_value(verdict: EndpointVerdict) -> float:
    """phi_nu at its endpoint q_plus (may be inf), read off the verdict."""
    if verdict.verdict == "endpoint_infinite":
        return math.inf
    return verdict.head_value + verdict.integral_value


# -- piecewise regimes ---------------------------------------------------------------

def _cell_mgf(regime: RegimeSpec, q: float, w: float) -> float:
    """M_q(w) = E e^{q nu} over one cell of width w, where nu = -(mu -
    sigma^2/2) w - sigma W_w: mu_law.mgf(-q w) E e^{q (q + 1) sigma^2 w/2}."""
    if not math.isfinite(regime.sigma_law.support()[1]):
        raise DistributionError("piecewise phi_nu needs a bounded sigma law")
    c = 0.5 * q * (q + 1.0) * w
    return (float(regime.mu_law.mgf(-q * w))
            * _expect_1d(regime.sigma_law, lambda s: math.exp(c * s * s)))


def _cell_root(regime: RegimeSpec, q_tau: float) -> float:
    """q_nu of a piecewise regime with finite q_tau, the root of log M_q(h) =
    h q_tau: log M_q(h) is a cumulant transform, convex in q with a negative
    slope at 0 under positive drift, so the root is unique."""
    f = lambda q: math.log(_cell_mgf(regime, q, regime.h)) - regime.h * q_tau
    q = 1.0
    while f(q) <= 0.0:
        q *= 2.0
    while f(q / 2.0) > 0.0:
        q /= 2.0
    return optimize.brentq(f, q / 2.0, q, xtol=1e-300, rtol=1e-15)


def phi_nu_piecewise(regime: RegimeSpec, tau_dist: Distribution,
                     q: float) -> float:
    """phi_nu(q) = E M_q(h)^(n-1) M_q(r) over the cells of ``StepKernel``
    (see the module docstring); ``inf`` once theta_q passes q_tau.

    Atoms of tau sum exactly; a density integrates M_q(r) against the cell
    sum of M_q(h)^(n-1) f_tau((n - 1) h + r) over r in (0, h].  Exponential
    and gamma tau are tilted by e^{theta_q t} first, which turns the cell
    weights into a gamma law times phi_tau(theta_q) and keeps the sum finite
    up to q_nu; a gamma shape k < 1 integrates in r^k, where it is flat.
    """
    if q == 0.0:
        return 1.0
    h, m = regime.h, partial(_cell_mgf, regime, q)
    m_h = m(h)
    theta = math.log(m_h) / h
    q_tau = tau_dist.mgf_endpoint().q_max
    pole = tau_dist.kind in ("exponential", "gamma")
    slack = _TOUCH_TOL * max(1.0, q_tau)
    if theta > (q_tau - slack if pole else q_tau + slack):
        return math.inf
    cells = lambda t: max(1, math.ceil(t / h - 1e-12))
    if tau_dist.kind in ("deterministic", "discrete"):
        return math.fsum(w * m_h ** (cells(t) - 1) * m(t - (cells(t) - 1) * h)
                         for t, w in zip(*_atoms(tau_dist)))
    law, tilt, k = tau_dist, 0.0, 1.0
    if pole:
        k, scale = _endpoint_pole(tau_dist)
        law, tilt = Distribution.gamma(k, 1.0 / (1.0 / scale - theta)), theta
    step = (theta - tilt) * h               # log weight of one more cell
    ends = [t for t in law.support() if math.isfinite(t)]
    cuts = sorted({0.0, h, *(t - (cells(t) - 1) * h for t in ends)})

    def cell_sum(r: float) -> float:
        terms = lambda n: np.exp(step * (n - 1.0)) * law.pdf((n - 1.0) * h + r)
        if len(ends) == 2:
            return math.fsum(terms(np.arange(1.0, cells(ends[1]) + 1.0)))
        return math.fsum(countable_sum(terms))

    p = 1.0 / min(k, 1.0)                   # r = v^p

    def f(v: float) -> float:
        r = v ** p
        return p * v ** (p - 1.0) * m(r) * math.exp(-tilt * r) * cell_sum(r)

    return float(tau_dist.mgf(tilt)) * math.fsum(
        integrate.quad(f, a ** (1.0 / p), b ** (1.0 / p), epsabs=0.0,
                       epsrel=1e-13, limit=300)[0]
        for a, b in zip(cuts, cuts[1:]))


def sample_nu(config: ModelConfig, n: int, rng: Union[int, RngStreams]
              ) -> np.ndarray:
    """Draws of nu = -(K + Z) over one inter-claim interval."""
    if not config.has_investment:
        raise DistributionError("nu degenerates without investment")
    return StepKernel(config).sample(as_streams(rng), n, need_claim=False).nu


# -- root finding -------------------------------------------------------------------

def solve_beta(phi: Callable[[float], float], q_upper_hint: float = math.inf,
               tol: float = 1e-10, phi_at_endpoint: Optional[float] = None
               ) -> LundbergReport:
    """Find the positive root of phi(q) = 1 by doubling and bisection below
    the transform endpoint ``q_upper_hint``, which the report keeps as q_nu.

    ``phi`` must satisfy phi(0) = 1 with a negative initial slope (checked
    numerically; a nonnegative slope raises the mean-drift violation).  The
    bracket never crosses the endpoint: values of ``inf`` act as soft upper
    boundaries.
    """
    if abs(phi(0.0) - 1.0) > max(100 * tol, 1e-8):
        raise ValueError("phi(0) must equal 1")
    probe = min(max(tol, 1e-12), q_upper_hint / 4.0)
    if phi(probe) >= 1.0:
        raise HypothesisViolation(
            "mean_drift_positive",
            "phi is nondecreasing at 0+, i.e. the mean one-interval log "
            "drift is not positive; no decay exponent exists")

    # doubling scan for a finite value above 1
    report = partial(LundbergReport, q_nu=q_upper_hint, hypothesis_flags={},
                     phi_at_endpoint=phi_at_endpoint)
    q_lo = q = probe
    top = q_upper_hint * (1.0 - 1e-9)
    while True:
        q_next = min(q * 2.0, top)
        val = phi(q_next)
        if math.isinf(val) or val > 1.0:
            break
        q_lo = q_next
        if q_next >= top:
            # exhausted the admissible range below the endpoint
            return report(beta=None, status="no_root")
        q = q_next

    def bisect(lo: float, hi: float) -> float:
        if phi(lo) - 1.0 > 0:
            return lo
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = phi(mid) - 1.0
            if math.isinf(fm) or math.isnan(fm):
                hi = mid
                continue
            if abs(fm) <= tol:
                return mid
            if fm > 0:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-16 * max(1.0, hi):
                break
        return 0.5 * (lo + hi)

    return report(beta=float(bisect(q_lo, q_next)), status="root")


def lundberg_report(config: ModelConfig, tol: float = 1e-10,
                    seed: int = 0) -> LundbergReport:
    """Full decay-exponent analysis for a model configuration.

    A constant regime's tangent geometry pins the transform endpoint, and
    one ``classify_endpoint`` pass gives the endpoint verdict and value (both
    kept on the report).  A piecewise regime's endpoint is the root of
    theta_q = q_tau.  The value at the endpoint decides existence, and
    bisection finds the root to ``tol``.  Every step is deterministic;
    ``seed`` is accepted for old callers and ignored.
    """
    ek = config.require_positive_drift()
    if not config.has_investment:
        raise DistributionError("nu degenerates without investment")
    regime, tau_dist = config.regime, config.interarrival_dist
    q_tau = tau_dist.mgf_endpoint().q_max
    geometry = verdict = phi_end = None
    q_nu = math.inf
    if regime.mode == "piecewise":
        phi = partial(phi_nu_piecewise, regime, tau_dist)
        if math.isfinite(q_tau):
            q_nu = _cell_root(regime, q_tau)
            phi_end = phi(q_nu)
    else:
        phi = partial(phi_nu_analytic, regime.theta, tau_dist)
        if math.isfinite(q_tau):
            geometry = q_plus_compute(regime.theta, q_tau)
            q_nu = geometry.q_plus
            verdict = classify_endpoint(geometry, tau_dist, delta=q_tau / 2.0)
            phi_end = endpoint_phi_value(verdict)
    if phi_end is not None and phi_end <= 1.0:
        return LundbergReport(
            beta=None, q_nu=q_nu, phi_at_endpoint=phi_end,
            hypothesis_flags=_flags(config, ek, None), status="no_root",
            geometry=geometry, endpoint=verdict)
    report = solve_beta(phi, q_upper_hint=q_nu, tol=tol,
                        phi_at_endpoint=phi_end)
    return replace(report, hypothesis_flags=_flags(config, ek, report.beta),
                   geometry=geometry, endpoint=verdict)


def _flags(config: ModelConfig, ek: Optional[float],
           beta: Optional[float]) -> dict:
    flags = {"ek_positive": ek is not None and ek > 0.0}
    if beta is None:
        return dict(flags, claim_moment_ok=None, cond_tau_ok=None)
    delta = 1e-6 * max(1.0, beta)
    flags["claim_moment_ok"] = math.isfinite(config.claim_dist.moment(beta + delta))
    q_tau = config.interarrival_dist.mgf_endpoint().q_max
    if math.isinf(q_tau):
        flags["cond_tau_ok"] = True
    else:
        sbar2 = config.sigma_upper ** 2
        need = beta ** 2 * sbar2 / 2.0 + beta * max(0.0, sbar2 / 2.0 - config.mu_lower)
        flags["cond_tau_ok"] = bool(q_tau > need)
    return flags
