"""Decay-exponent computation and the tangent geometry of the coefficient law.

For constant-per-interval coefficients with (mu, sigma^2/2), tau, and the
Wiener path jointly independent, conditioning on the interval gives

    phi_nu(q) = E phi_tau(<u(q), Theta>),      u(q) = (-q, q (q + 1)),

so the step-multiplier transform is the inter-arrival MGF averaged over a
linear functional of the coefficient vector.  The decay exponent beta is
the positive root of phi_nu(beta) = 1 when one exists.  phi_nu is convex
with phi_nu(0) = 1 and a negative slope at 0 under positive drift, so beta
exists iff phi_nu(q_nu) > 1 at the transform endpoint q_nu (inf counts).
One routine, ``_first_root``, finds beta below q_nu and the piecewise
endpoint below: it brackets the root by doubling and halving from q = 1
and finishes with Brent's method to full double precision (``_brentq``,
scipy's brentq step for step, carried here so that the route needs numpy
alone).

Both phi_nu(q) and its endpoint value are one expectation over a gap law.
Given a level a >= <u(q), Theta> on the support, the gap

    H_q = a - <u(q), Theta> = a + q mu - q (q + 1) sigma^2/2  >= 0

turns the integrand into g(H_q) = phi_tau(a - H_q).  For exponential and
gamma inter-arrivals a is the MGF endpoint q_tau and g(h) = (s h)^-k exactly
for every h > 0, with the pole order k and scale s read off
``MgfEndpoint.pole``; for other laws (``pole`` None) a is the top level of
the support and g(h) = phi_tau(a - h).  The ray <u(q), .> = q_tau sweeps
toward the support as q grows and first touches it at q_plus; there the gap
law has a mass exponent at 0, P(H <= h) ~ c h^rho, and E g(H) is finite iff
rho > k, whatever the support shape.  Below q_plus nothing touches, rho is
infinite and the expectation is finite.  The zeta series is a countable
gap law, summed by ``theta.countable_sum`` (an exact head and an
Euler-Maclaurin tail).  Finite, polygon and product Theta give one other
kind: atoms plus a density that is linear on spans, with rho read off the
pieces at H = 0.  Its E g(H) is an exact sum over the atoms plus
quadrature in log h on each span (``distributions.quad``), or a closed
form on a span from H = 0 when g is a pole.  ``phi_nu_analytic`` and
``classify_endpoint`` take it by the same routine, ``_gap_mean``.

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
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .distributions import Distribution, pointwise, quad
from .engine import StepKernel
from .errors import DistributionError, HypothesisViolation
from .model import ModelConfig, RegimeSpec, RngStreams, as_streams
from .theta import SERIES_HEAD, ThetaLaw, countable_sum

__all__ = [
    "u_vector", "phi_nu_analytic", "phi_nu_piecewise",
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
    """Law of the gap H with its mass exponent ``rho`` at zero: P(H <= h) ~
    c h^rho as h -> 0 (infinite when no support point touches the level).

    ``pieces``: H = offset + D, where D has ``atoms`` and a density that is
    linear on each of its ``spans``; ``series``: countable atoms given by
    vectorized index functions.
    """

    kind: str
    rho: float
    atoms: tuple = ()                      # pieces: ((d, prob), ...)
    spans: tuple = ()                      # pieces: ((d0, d1, f0, f1), ...)
    offset: float = 0.0                    # pieces: the gap where D = 0
    h_fn: Optional[Callable] = None        # j-array -> h-array (nonincreasing)
    p_fn: Optional[Callable] = None


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
    integral_value: float        # phi_nu(q_plus); inf when divergent
    inconclusive: bool = False   # always False; kept for readers of the field


@dataclass(frozen=True)
class LundbergReport:
    beta: Optional[float]
    q_nu: float
    phi_at_endpoint: Optional[float]   # inf allowed; None when unknown
    hypothesis_flags: dict
    status: str                        # "root" | "no_root"
    # tangent geometry of a constant regime, kept out of to_dict
    geometry: Optional[TangentGeometry] = field(default=None, compare=False)

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "q_nu": self.q_nu,
            "phi_at_endpoint": self.phi_at_endpoint,
            "hypothesis_flags": self.hypothesis_flags,
            "status": self.status,
        }


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
    at the candidate points (finite atoms, a countable law's head atoms and
    declared limit points, polygon vertices, or product-box corners), and
    the first touch is the smallest candidate touch value.
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
    of ``q_plus_compute``.  Countable atoms with p_j ~ j^-p and h_j ~ c j^-r
    give rho = (p - 1)/r, with p and r read off at J and 2J (inf when the
    gaps do not decay), or 0 when a head atom touches.  Every other law is
    atoms plus a density linear on spans of D = H - offset: the gaps of a
    finite Theta's atoms (offset 0), or, with the offset a - top off a touch
    and 0 on one, a polygon's fan tents (``_polygon_spans``) or a product
    law's parts (``_product_pieces``), and rho is read off the pieces.
    """
    tol = _TOUCH_TOL * max(1.0, a)
    touch = a - top <= tol
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
    offset, atoms, spans = 0.0 if touch else a - top, (), ()
    if theta.kind == "finite":
        offset = 0.0
        atoms = tuple((a - float(_inner(q, x, y)), w)
                      for (x, y), w in theta.atoms)
    elif theta.kind == "polytope_uniform":
        spans = _polygon_spans(np.asarray(theta.vertices), q)
    else:
        atoms, spans = _product_pieces(theta, q)
    # rho read off the pieces at H = 0: 0 for an atom at the level, 1 where
    # the density is positive there and 2 where it rises from 0
    rho = [0.0 for d, _ in atoms if offset + d <= tol]
    if offset == 0.0:
        rho += [1.0 if f0 > 0.0 else 2.0 for d0, _, f0, _ in spans
                if d0 == 0.0]
    return HLaw("pieces", min(rho, default=math.inf), atoms=atoms,
                spans=spans, offset=offset)


def _polygon_spans(verts: np.ndarray, q: float) -> tuple:
    """Spans of the density of D, the distance of <u(q), Theta> below the
    top vertex for Theta uniform on a convex polygon.  The fan of triangles
    (v_0, v_i, v_i+1) tiles the polygon, and on a triangle of weight w with
    sorted vertex levels a <= b <= c, D has the tent density rising from 0
    at a to 2 w/(c - a) at b and falling back to 0 at c."""
    # each vertex's distance d below the top vertex, from coordinate
    # differences so that it keeps its digits when every gap is near a;
    # a d within rounding of its two terms puts an edge level with the
    # top vertex
    x, y = verts.T
    i = int(np.argmax(_inner(q, x, y)))
    d = _inner(q, x[i] - x, y[i] - y)
    scale = q * np.abs(x[i] - x) + q * (q + 1.0) * np.abs(y[i] - y)
    d = np.where(d <= 1e-14 * scale, 0.0, d)
    x, y = x - x[0], y - y[0]
    areas = np.abs(x[1:-1] * y[2:] - x[2:] * y[1:-1])
    spans = []
    for i, w in enumerate((areas / areas.sum()).tolist(), start=1):
        a, b, c = sorted(d[[0, i, i + 1]].tolist())
        if w > 0.0 and a < c:
            peak = 2.0 * w / (c - a)
            spans += [(a, b, 0.0, peak), (b, c, peak, 0.0)]
    return tuple(s for s in spans if s[0] < s[1])


def _product_pieces(theta: ThetaLaw, q: float) -> Tuple[tuple, tuple]:
    """Atoms and spans of D = q (mu - mu_min) + q (q + 1) (hs_max - hs), the
    distance below the corner (mu_min, sigma^2/2_max), for independent parts
    that are atoms or uniform: atoms add, an atom shifts a uniform part, and
    two uniform parts of widths w1 <= w2 give the trapezoid rising to 1/w2
    at w1, flat up to w2 and falling to 0 at w1 + w2."""
    parts = []
    for dist, scale, top in ((theta.dist_mu, q, False),
                             (theta.dist_halfsig2, q * (q + 1.0), True)):
        lo, hi = dist.support()
        atoms = dist.atoms()
        parts.append(scale * (hi - lo) if atoms is None else
                     [(scale * (hi - v if top else v - lo), w)
                      for v, w in zip(*atoms)])
    a, b = parts
    if isinstance(a, float) and isinstance(b, float):
        (w1, w2), c = sorted(parts), 1.0 / max(parts)
        spans = (0.0, w1, 0.0, c), (w1, w2, c, c), (w2, w1 + w2, c, 0.0)
        return (), tuple(s for s in spans if s[0] < s[1])
    if isinstance(a, float) or isinstance(b, float):
        w, atoms = (a, b) if isinstance(a, float) else (b, a)
        return (), tuple((s, s + w, p / w, p / w) for s, p in atoms)
    return tuple((s + t, u * v) for s, u in a for t, v in b), ()


# -- analytic phi_nu -------------------------------------------------------------

def phi_nu_analytic(theta: ThetaLaw, tau_dist: Distribution, q: float) -> float:
    """E phi_tau(<u(q), Theta>) as the gap expectation E g(H_q) of
    ``_gap_mean``; ``inf`` once the support reaches past the MGF endpoint,
    or touches it with rho <= k."""
    if q == 0.0:
        return 1.0
    endpoint = tau_dist.mgf_endpoint()
    q_tau, pole = endpoint.q_max, endpoint.pole
    pts = theta.candidate_points()
    top = float(np.max(_inner(q, pts[:, 0], pts[:, 1])))
    if top > q_tau + _TOUCH_TOL * max(1.0, q_tau):
        return math.inf
    a = q_tau if pole else top
    h_law = _build_h_law(theta, q, a, top)
    if pole and h_law.rho <= pole[0] + _DECAY_TOL:
        return math.inf
    g = _pole_fn(pole) if pole else lambda h: tau_dist.mgf(a - h)
    return _gap_mean(h_law, g, pole)


def _quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
          spike: float = 0.0) -> float:
    """The integral of f (over arrays) on [a, b].  Given a spike of f with
    width ``spike`` at a, it runs in s = log(1 + (x - a)/spike), where the
    spike is flat."""
    if spike > 0.0:
        return quad(
            lambda s: f(a + spike * np.expm1(s)) * spike * np.exp(s),
            0.0, math.log1p((b - a) / spike), 1.49e-8, 1.49e-8, 300)
    return quad(f, a, b, 1.49e-8, 1.49e-8, 300)


# -- the gap expectation E g(H) ------------------------------------------------------

def _gap_mean(h_law: HLaw, g: Callable,
              pole: Optional[Tuple[float, float]] = None) -> float:
    """E g(H): ``countable_sum`` of a series' terms, or exact sums over the
    atoms plus ``_quad`` on each span, in log h from h0 + d0 (h0 the
    offset), where g may spike.  The offset stays apart from the span ends,
    which keeps its digits when it is far above their widths.  Where g is
    the pole (s h)^-k, a span from H = 0 to d1 with density f0 + slope h
    has the closed form g(d1) d1 (f0/(1 - k) + slope d1/(2 - k)), finite
    since rho > k."""
    if h_law.kind == "series":
        return math.fsum(countable_sum(
            lambda j: h_law.p_fn(j) * g(h_law.h_fn(j))))
    h0, parts = h_law.offset, []
    if h_law.atoms:
        d, w = np.array(h_law.atoms).T
        parts = (w * g(h0 + d)).tolist()
    for d0, d1, f0, f1 in h_law.spans:
        slope = (f1 - f0) / (d1 - d0)
        if pole and h0 + d0 == 0.0:
            k = pole[0]
            flat = f0 / (1.0 - k) if f0 else 0.0
            parts.append(g(d1) * d1 * (flat + slope * d1 / (2.0 - k)))
            continue
        f = lambda x: g(h0 + x) * (f0 + slope * (x - d0))
        parts.append(_quad(f, d0, d1, spike=h0 + d0))
    return math.fsum(parts)


def classify_endpoint(geometry: TangentGeometry, tau_dist: Distribution,
                      delta: Optional[float] = None) -> EndpointVerdict:
    """The gap expectation E g(H) of ``phi_nu_analytic`` at q_plus.

    The verdict says whether it diverges at H = 0, which is whether the
    step-multiplier transform blows up at its own endpoint and in turn
    guarantees that the decay exponent exists.  With P(H <= h) ~ c h^rho
    and g(h) = (s h)^-k, it diverges iff rho <= k (up to ``_DECAY_TOL``),
    whatever the support shape.  ``integral_value`` is phi_nu(q_plus) by
    ``_gap_mean``, bit for bit what ``phi_nu_analytic`` returns; ``delta``
    is ignored (old callers pass it).
    """
    pole = tau_dist.mgf_endpoint().pole
    if pole is None:
        raise HypothesisViolation(
            "interarrival_endpoint",
            "the dichotomy applies when the inter-arrival MGF has a pole at "
            "a finite endpoint")
    h_law = geometry.h_law
    if h_law.rho <= pole[0] + _DECAY_TOL:
        return EndpointVerdict("endpoint_infinite", math.inf)
    return EndpointVerdict("endpoint_finite",
                           _gap_mean(h_law, _pole_fn(pole), pole))


def _pole_fn(pole: Tuple[float, float]) -> Callable:
    """h -> phi_tau(q_tau - h) = (s h)^-k from the pole (k, s) of
    ``MgfEndpoint``, for scalars and arrays."""
    k, scale = pole
    return lambda h: (scale * h) ** -k


def endpoint_phi_value(verdict: EndpointVerdict) -> float:
    """phi_nu at its endpoint q_plus (may be inf), read off the verdict."""
    return verdict.integral_value


# -- piecewise regimes ---------------------------------------------------------------

def _cell_mgf(regime: RegimeSpec, q: float, w: float) -> float:
    """M_q(w) = E e^{q nu} over one cell of width w, where nu = -(mu -
    sigma^2/2) w - sigma W_w: mu_law.mgf(-q w) E e^{q (q + 1) sigma^2 w/2}."""
    if not math.isfinite(regime.sigma_law.support()[1]):
        raise DistributionError("piecewise phi_nu needs a bounded sigma law")
    c = 0.5 * q * (q + 1.0) * w
    try:
        return (float(regime.mu_law.mgf(-q * w))
                * regime.sigma_law.expect(lambda s: math.exp(c * s * s)))
    except OverflowError:
        raise DistributionError(
            f"the one-cell transform M_q(w) overflows at q = {q:.6g}, "
            f"w = {w:.6g}; the cell width h is too wide") from None


def _cell_root(regime: RegimeSpec, q_tau: float) -> float:
    """q_nu of a piecewise regime with finite q_tau, the root of log M_q(h) =
    h q_tau: log M_q(h) is a cumulant transform, convex in q with a negative
    slope at 0 under positive drift, so the root is unique."""
    return _first_root(lambda q: math.log(_cell_mgf(regime, q, regime.h))
                       - regime.h * q_tau)


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
    endpoint = tau_dist.mgf_endpoint()
    q_tau, pole = endpoint.q_max, endpoint.pole
    slack = _TOUCH_TOL * max(1.0, q_tau)
    if theta > (q_tau - slack if pole else q_tau + slack):
        return math.inf
    cells = lambda t: max(1, math.ceil(t / h - 1e-12))
    atoms = tau_dist.atoms()
    if atoms is not None:
        return math.fsum(w * m_h ** (cells(t) - 1) * m(t - (cells(t) - 1) * h)
                         for t, w in zip(*atoms))
    law, tilt, k = tau_dist, 0.0, 1.0
    if pole:
        k, scale = pole
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
        quad(pointwise(f), a ** (1.0 / p), b ** (1.0 / p), 0.0, 1e-13, 300)
        for a, b in zip(cuts, cuts[1:]))


def sample_nu(config: ModelConfig, n: int, rng: Union[int, RngStreams]
              ) -> np.ndarray:
    """Draws of nu = -(K + Z) over one inter-claim interval."""
    if not config.has_investment:
        raise DistributionError("nu degenerates without investment")
    return StepKernel(config).sample(as_streams(rng), n, need_claim=False).nu


# -- root finding -------------------------------------------------------------------

def _first_root(f: Callable[[float], float],
                cap: float = math.inf) -> Optional[float]:
    """The first root in (0, cap) of f, which is negative just above 0, or
    None when f stays at or below 0 up to ``cap``.  Doubling from q = 1
    (stopping at ``cap``) finds a q with f(q) > 0, inf included, halving
    moves q down while f(q/2) > 0, and Brent's method (Brent 1973) finishes
    on [q/2, q] to full double precision."""
    q = min(1.0, cap)
    while not f(q) > 0.0:
        if q >= cap:
            return None
        q = min(2.0 * q, cap)
    while f(q / 2.0) > 0.0:
        q /= 2.0
    return _brentq(f, q / 2.0, q)


def _brentq(f: Callable[[float], float], xa: float, xb: float,
            xtol: float = 1e-300, rtol: float = 1e-15,
            maxiter: int = 100) -> float:
    """A root of f in [xa, xb], where f changes sign, by Brent's method
    (Brent 1973, ch. 4): scipy's ``brentq`` (its brentq.c) step for step,
    so the two agree bit for bit.  Raises ValueError on a same-sign bracket
    or a NaN value of f, and RuntimeError after ``maxiter`` steps."""
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    # signbit of the C code is v < 0 here: no value compared is 0 or NaN
    xpre, xcur, xblk, fblk, spre, scur = xa, xb, 0.0, 0.0, 0.0, 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf                                # a bisection
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:                       # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:                                  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass            # C divides to inf or NaN, which bisects
        bound = 3.0 * abs(sbis) - delta
        if 2.0 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
            spre, scur = scur, stry                    # a short step
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Brent's method failed to converge after {maxiter} "
                       "iterations")


def lundberg_report(config: ModelConfig, tol: float = 1e-10,
                    seed: int = 0) -> LundbergReport:
    """Full decay-exponent analysis for a model configuration.

    The transform endpoint q_nu is q_plus of a constant regime's tangent
    geometry (kept on the report), or the root of theta_q = q_tau for a
    piecewise regime; it is inf when q_tau is.  phi_nu(q_nu), from the same
    phi_nu that is solved, decides whether beta exists, and ``_first_root``
    finds it below q_nu (1 - 1e-9).  Every step is deterministic; ``tol``
    and ``seed`` are accepted for old callers and ignored.
    """
    config.require_positive_drift()
    regime, tau_dist = config.regime, config.interarrival_dist
    q_tau = tau_dist.mgf_endpoint().q_max
    geometry, q_nu = None, math.inf
    if regime.mode == "piecewise":
        phi = partial(phi_nu_piecewise, regime, tau_dist)
        if math.isfinite(q_tau):
            q_nu = _cell_root(regime, q_tau)
    else:
        phi = partial(phi_nu_analytic, regime.theta, tau_dist)
        if math.isfinite(q_tau):
            geometry = q_plus_compute(regime.theta, q_tau)
            q_nu = geometry.q_plus
    phi_end = phi(q_nu) if math.isfinite(q_nu) else None
    beta = None
    if phi_end is None or phi_end > 1.0:
        beta = _first_root(lambda q: phi(q) - 1.0, q_nu * (1.0 - 1e-9))
    return LundbergReport(beta=beta, q_nu=q_nu, phi_at_endpoint=phi_end,
                          hypothesis_flags=_flags(config, beta),
                          status="no_root" if beta is None else "root",
                          geometry=geometry)


def _flags(config: ModelConfig, beta: Optional[float]) -> dict:
    if beta is None:
        return {"claim_moment_ok": None, "cond_tau_ok": None}
    # E xi^(beta + delta) is finite for every claim law but Pareto, whose
    # moments stop at its index, so the moment itself is never evaluated
    claim = config.claim_dist
    moment_ok = (claim.kind != "pareto"
                 or beta + 1e-6 * max(1.0, beta) < claim.params[0])
    q_tau = config.interarrival_dist.mgf_endpoint().q_max
    mu_lower, hs_bar = config.regime_bounds()
    need = beta ** 2 * hs_bar + beta * max(0.0, hs_bar - mu_lower)
    return {"claim_moment_ok": moment_ok,
            "cond_tau_ok": math.isinf(q_tau) or bool(q_tau > need)}
