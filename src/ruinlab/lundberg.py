"""Decay-exponent computation and the tangent geometry of the coefficient law.

For constant-per-interval coefficients with (mu, sigma^2/2), tau, and the
Wiener path jointly independent, conditioning on the interval gives

    phi_nu(q) = E phi_tau(<u(q), Theta>),      u(q) = (-q, q (q + 1)),

so the step-multiplier transform is the inter-arrival MGF averaged over a
linear functional of the coefficient vector.  The decay exponent beta is
the positive root of phi_nu(beta) = 1 when one exists.

When the inter-arrival MGF has a finite endpoint q_tau with divergent
value, finiteness of phi_nu at its own endpoint is a geometric question:
the ray <u(q), .> = q_tau sweeps toward the support of Theta as q grows,
first touching it at q_plus, and everything depends on how much probability
sits near the touching ray.  The gap variable

    H = q_tau + q_plus mu - q_plus (q_plus + 1) sigma^2/2  >= 0

captures that concentration: phi_nu(q_plus) = E phi_tau(q_tau - H) is
infinite exactly when that integral diverges at H = 0.  The gap law has a
mass exponent at 0, P(H <= h) ~ c h^rho, and phi_tau(q_tau - h) ~ c' h^-k
with k the pole order of the inter-arrival MGF, so the integral is finite
iff rho > k.  ``classify_endpoint`` applies that one rule to every support
shape, reading rho off the geometry, and evaluates a finite integral once
per gap law: exact sums for finite Theta, ``theta.countable_sum`` (an exact
head and an Euler-Maclaurin tail) for the zeta series, quadrature of a
polygon's level density, and nested quadrature of a product law's
marginals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Tuple, Union

import numpy as np
from scipy import integrate

from .distributions import Distribution
from .engine import StepKernel
from .errors import DistributionError, HypothesisViolation
from .model import ModelConfig, RngStreams, as_streams
from .theta import SERIES_HEAD, ThetaLaw, countable_sum

__all__ = [
    "u_vector", "phi_nu_analytic", "phi_nu_mc", "solve_beta",
    "lundberg_report", "q_plus_compute", "classify_endpoint",
    "LundbergReport", "TangentGeometry", "HLaw", "PhiNuEstimate",
    "EndpointVerdict",
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
    """Law of the tangent gap H, in whichever form the support shape allows,
    with its mass exponent ``rho`` at zero: P(H <= h) ~ c h^rho as h -> 0.

    ``discrete``: finitely many atoms; ``series``: countable atoms given by
    vectorized index functions; ``polygon``: a density with kinks at the
    vertex gaps; ``product``: the laws of mu - mu_min and
    sigma^2/2_max - sigma^2/2.
    """

    kind: str
    rho: float
    atoms: Optional[tuple] = None          # ((h, prob), ...)
    h_fn: Optional[Callable] = None        # j-array -> h-array (nonincreasing)
    p_fn: Optional[Callable] = None
    density: Optional[Callable] = None     # polygon: h -> density of H
    kinks: tuple = ()                      # polygon: sorted vertex gaps
    marginals: tuple = ()                  # product: distances from the corner


@dataclass(frozen=True)
class TangentGeometry:
    """First-touch parameter of the sweeping ray and the gap law it defines."""

    q_plus: float
    q_tau: float
    touching_points: tuple
    h_law: HLaw


@dataclass(frozen=True)
class PhiNuEstimate:
    estimate: float
    stderr: float
    stability_flag: bool


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
    method: str                        # "analytic" | "monte_carlo"
    ci_halfwidth: Optional[float]
    hypothesis_flags: dict
    status: str                        # "root" | "no_root"
    # tangent geometry and endpoint verdict of the analytic route, kept out
    # of to_dict
    geometry: Optional[TangentGeometry] = field(default=None, compare=False)
    endpoint: Optional[EndpointVerdict] = field(default=None, compare=False)

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "q_nu": _json_float(self.q_nu),
            "phi_at_endpoint": _json_float(self.phi_at_endpoint),
            "method": self.method,
            "ci_halfwidth": self.ci_halfwidth,
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
    on_line = np.abs(_inner(q_plus, x, y) - q_tau) <= _TOUCH_TOL * max(1.0, q_tau)
    touching = tuple(dict.fromkeys(map(tuple, pts[on_line].tolist())))
    h_law = _build_h_law(theta, q_plus, q_tau)
    return TangentGeometry(q_plus=q_plus, q_tau=q_tau,
                           touching_points=touching, h_law=h_law)


def _build_h_law(theta: ThetaLaw, q_plus: float, q_tau: float) -> HLaw:
    """The gap law and its mass exponent rho, read off the support geometry.

    An atom on the ray (gap within the touch tolerance of ``q_plus_compute``)
    gives rho = 0.  Countable atoms with p_j ~ j^-p and h_j ~ a j^-r give
    rho = (p - 1)/r, with p and r read off at J and 2J (inf when the gaps
    do not decay).  A polygon has rho = 2 when one vertex touches and 1 when
    an edge lies on the ray.  A product box touches at its corner
    (mu_min, sigma^2/2_max), and each uniform marginal adds 1 to rho (an
    atom marginal adds 0).
    """
    tol = _TOUCH_TOL * max(1.0, q_tau)
    if theta.kind == "finite":
        merged: dict = {}
        for (x, y), w in theta.atoms:
            h = q_tau - float(_inner(q_plus, x, y))
            merged[h] = merged.get(h, 0.0) + w
        atoms = tuple(sorted(merged.items()))
        rho = 0.0 if atoms[0][0] <= tol else math.inf
        return HLaw("discrete", rho, atoms=atoms)
    if theta.kind == "countable":
        h_fn = partial(_h_series_values, theta, q_plus, q_tau)
        if np.any(h_fn(np.arange(1.0, SERIES_HEAD)) <= tol):
            rho = 0.0
        else:
            far = np.array([SERIES_HEAD, 2.0 * SERIES_HEAD])
            p_far, h_far = theta.prob_fn(far), h_fn(far)
            decay = math.log2(h_far[0] / h_far[1])
            rho = ((math.log2(p_far[0] / p_far[1]) - 1.0) / decay
                   if decay > 0.0 else math.inf)
        return HLaw("series", rho, h_fn=h_fn, p_fn=theta.prob_fn)
    if theta.kind == "polytope_uniform":
        verts = np.asarray(theta.vertices)
        gaps = q_tau - _inner(q_plus, verts[:, 0], verts[:, 1])
        touch = gaps <= tol
        if not touch.any():
            raise DistributionError("no polygon vertex lies on the ray")
        gaps = np.where(touch, 0.0, gaps)
        return HLaw("polygon", 2.0 if np.sum(touch) == 1 else 1.0,
                    density=_polygon_level_density(verts, gaps),
                    kinks=tuple(sorted(set(gaps.tolist()))))
    marginals = (_from_end(theta.dist_mu, top=False),
                 _from_end(theta.dist_halfsig2, top=True))
    return HLaw("product", float(sum(d.kind == "uniform" for d in marginals)),
                marginals=marginals)


def _from_end(dist: Distribution, top: bool) -> Distribution:
    """Law of the distance of X from the low end of its support, or from
    the high end with ``top``, for the kinds a product box admits."""
    lo, hi = dist.support()
    if dist.kind == "uniform":
        return Distribution.uniform(0.0, hi - lo)
    return Distribution.discrete(
        (hi - v if top else v - lo, w) for v, w in zip(*_atoms(dist)))


def _atoms(dist: Distribution) -> tuple:
    """(values, probs) of a deterministic or discrete law."""
    return dist.params if dist.kind == "discrete" else (dist.params, (1.0,))


def _h_series_values(theta: ThetaLaw, q_plus: float, q_tau: float,
                     j: np.ndarray) -> np.ndarray:
    mu, hs = theta.point_fn(j)
    return q_tau - _inner(q_plus, mu, hs)


# -- analytic phi_nu -------------------------------------------------------------

def phi_nu_analytic(theta: ThetaLaw, tau_dist: Distribution, q: float) -> float:
    """E phi_tau(<u(q), Theta>); ``inf`` as soon as mass sits at or beyond
    the MGF endpoint with a divergent endpoint value."""
    if q == 0.0:
        return 1.0
    q_tau = tau_dist.mgf_endpoint().q_max
    if theta.kind == "product":
        return _phi_nu_product(theta, tau_dist, q, q_tau)
    pts = theta.candidate_points()
    t_v = _inner(q, pts[:, 0], pts[:, 1])
    if theta.kind == "finite":
        terms = tau_dist.mgf(t_v)
        if np.isinf(terms).any():
            return math.inf
        probs = np.array([w for _, w in theta.atoms])
        return sum((probs * terms).tolist(), 0.0)
    # countable atoms with their limit points, or polygon vertices: the
    # functional peaks on them
    t_max = float(np.max(t_v))
    if t_max > q_tau + _TOUCH_TOL:
        return math.inf
    if t_max >= q_tau - _TOUCH_TOL:
        # boundary: the support touches the endpoint ray
        return _boundary_value(theta, tau_dist, q, q_tau)
    if theta.kind == "countable":
        return _phi_nu_countable(theta, tau_dist, q)
    density = _polygon_level_density(pts, t_v)
    val, _ = integrate.quad(lambda t: tau_dist.mgf(t) * density(t),
                            float(t_v.min()), t_max, limit=400,
                            points=sorted(set(t_v.tolist())))
    return val


def _phi_nu_countable(theta, tau_dist, q):
    """The clean region, below the endpoint ray: bounded terms, smooth in j."""
    return math.fsum(countable_sum(
        lambda j: theta.prob_fn(j) * tau_dist.mgf(_inner(q, *theta.point_fn(j)))))


def _phi_nu_product(theta, tau_dist, q, q_tau):
    dx, dy = theta.dist_mu, theta.dist_halfsig2
    y_hi = dy.support()[1]
    corner = (float(_inner(q, dx.support()[0], y_hi)) if math.isfinite(y_hi)
              else math.inf)
    if corner > q_tau + _TOUCH_TOL:
        return math.inf

    def phi_given_y(y: float) -> float:
        return _expect_1d(dx, lambda x: tau_dist.mgf(float(_inner(q, x, y))))

    return _expect_1d(dy, phi_given_y)


def _expect_1d(dist: Distribution, f: Callable[[float], float],
               lo: float = -math.inf, hi: float = math.inf,
               spike: float = 0.0) -> float:
    """E[f(X); lo < X <= hi].  Given a spike of f with width ``spike`` at
    the lower limit a, a density is integrated in s = log(1 + (x - a)/spike),
    where the spike is flat."""
    if dist.kind in ("deterministic", "discrete"):
        return sum(w * f(v) for v, w in zip(*_atoms(dist)) if lo < v <= hi)
    a, b = dist.support()
    a, b = max(a, lo), min(b, hi)
    if a >= b:
        return 0.0
    g = lambda x: f(x) * float(dist.pdf(x))
    if spike > 0.0:
        val, _ = integrate.quad(
            lambda s: g(a + spike * math.expm1(s)) * spike * math.exp(s),
            0.0, math.log1p((b - a) / spike), limit=300)
        return val
    val, _ = integrate.quad(g, a, b, limit=300)
    return val


# -- polygon level-set density ---------------------------------------------------

def _polygon_level_density(verts: np.ndarray,
                           levels: np.ndarray) -> Callable[[float], float]:
    """Density of a linear functional of Theta uniform on a convex polygon,
    given the functional's values ``levels`` at the vertices.

    The fan of triangles (v_0, v_i, v_i+1) tiles the polygon, and on a
    triangle with sorted vertex levels a <= b <= c the functional has the
    tent density rising from 0 at a to 2/(c - a) at b and falling back to 0
    at c.  Levels measured as gaps from a touching line keep small gaps
    exact.
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


# -- endpoint values and the dichotomy --------------------------------------------

def _series_parts(geometry: TangentGeometry, tau_dist, delta):
    """``countable_sum`` of the terms; the tail atoms gap below h_J <= delta."""
    h_law, q_tau = geometry.h_law, geometry.q_tau
    h = h_law.h_fn(np.arange(1.0, SERIES_HEAD + 1.0))
    if delta < h[-1]:
        raise ValueError(f"delta is below the series gap h_J = {h[-1]:.3g}")
    terms = countable_sum(
        lambda j: h_law.p_fn(j) * tau_dist.mgf(q_tau - h_law.h_fn(j)))
    near = np.append(h[:-1] <= delta, True)
    return math.fsum(terms[near]), math.fsum(terms[~near])


def _discrete_parts(geometry: TangentGeometry, tau_dist, delta):
    h, w = np.array(geometry.h_law.atoms).T
    terms = w * tau_dist.mgf(geometry.q_tau - h)
    near = h <= delta
    return sum(terms[near].tolist(), 0.0), sum(terms[~near].tolist(), 0.0)


def _polygon_parts(geometry: TangentGeometry, tau_dist, delta):
    """Quadrature of phi_tau(q_tau - h) f_H(h) over (0, delta] and over
    (delta, h_max], breaking at the vertex gaps."""
    h_law = geometry.h_law
    k, scale = _endpoint_pole(tau_dist)
    f = lambda h: (scale * h) ** -k * h_law.density(h)

    def part(a: float, b: float) -> float:
        if a >= b:
            return 0.0
        inside = [h for h in h_law.kinks if a < h < b]
        return integrate.quad(f, a, b, limit=400, points=inside or None)[0]

    h_max = h_law.kinks[-1]
    return part(0.0, min(delta, h_max)), part(delta, h_max)


def _product_parts(geometry: TangentGeometry, tau_dist, delta):
    """Nested quadrature of the marginals.  With V = mu - mu_min and
    W = sigma^2/2_max - sigma^2/2 the distances from the touching corner,
    H = q V + q (q + 1) W, so each level of W splits the inner expectation
    over V at one cut."""
    q = geometry.q_plus
    dv, dw = geometry.h_law.marginals
    k, scale = _endpoint_pole(tau_dist)

    def given_w(near: bool, w: float) -> float:
        h_w = q * (q + 1.0) * w
        f = lambda v: (scale * (h_w + q * v)) ** -k
        cut = (delta - h_w) / q
        if near:
            return _expect_1d(dv, f, hi=cut, spike=h_w / q)
        return _expect_1d(dv, f, lo=cut)

    return (_expect_1d(dw, partial(given_w, True)),
            _expect_1d(dw, partial(given_w, False)))


_ENDPOINT_PARTS = {"discrete": _discrete_parts, "series": _series_parts,
                   "polygon": _polygon_parts, "product": _product_parts}


def classify_endpoint(geometry: TangentGeometry, tau_dist: Distribution,
                      delta: float) -> EndpointVerdict:
    """Integrate phi_tau(q_tau - H) over the gap law in one pass.

    The verdict says whether the integral diverges at H = 0, which is
    whether the step-multiplier transform blows up at its own endpoint and
    in turn guarantees that the decay exponent exists.  With P(H <= h) ~
    c h^rho and phi_tau(q_tau - h) ~ c' h^-k, it diverges iff rho <= k (up
    to ``_DECAY_TOL``), whatever the support shape.  A finite verdict
    carries the integral over (0, delta] (``integral_value``) and over
    H > delta (``head_value``); their sum is phi_nu(q_plus).  Finite gap
    laws are summed exactly, a countable series by ``countable_sum``, a
    polygon's level density and a product law's marginals by quadrature.
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
    near, head = _ENDPOINT_PARTS[h_law.kind](geometry, tau_dist, delta)
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


def endpoint_phi_value(verdict: EndpointVerdict) -> float:
    """phi_nu at its endpoint q_plus (may be inf), read off the verdict."""
    if verdict.verdict == "endpoint_infinite":
        return math.inf
    return verdict.head_value + verdict.integral_value


def _boundary_value(theta, tau_dist, q, q_tau):
    """phi_nu at a q whose ray touches the support: the endpoint integral."""
    geometry = TangentGeometry(q_plus=q, q_tau=q_tau, touching_points=(),
                               h_law=_build_h_law(theta, q, q_tau))
    return endpoint_phi_value(
        classify_endpoint(geometry, tau_dist, delta=q_tau / 2.0))


# -- Monte Carlo phi_nu ------------------------------------------------------------

def sample_nu(config: ModelConfig, n: int, rng: Union[int, RngStreams]
              ) -> np.ndarray:
    """Draws of nu = -(K + Z) over one inter-claim interval."""
    if not config.has_investment:
        raise DistributionError("nu degenerates without investment")
    return StepKernel(config).sample(as_streams(rng), n, need_claim=False).nu


def phi_nu_mc(config: ModelConfig, q: float, n: int,
              rng: Union[int, RngStreams], nu: Optional[np.ndarray] = None
              ) -> PhiNuEstimate:
    """Empirical E exp(q nu) with standard error and a heavy-tail flag.

    The flag trips when the ten largest weights carry more than half of the
    sum, the signature of sampling too close to the transform endpoint.
    """
    if q < 0:
        raise ValueError("q must be >= 0")
    if nu is None:
        nu = sample_nu(config, n, rng)
    if q == 0.0:
        return PhiNuEstimate(1.0, 0.0, False)
    w = np.exp(q * nu)
    est = float(np.mean(w))
    se = float(np.std(w, ddof=1) / math.sqrt(len(w)))
    top = np.partition(w, -10)[-10:].sum() if len(w) > 10 else w.sum()
    return PhiNuEstimate(est, se, bool(top > 0.5 * w.sum()))


# -- root finding -------------------------------------------------------------------

def _curve_value(v) -> float:
    return v.estimate if isinstance(v, PhiNuEstimate) else float(v)


def _is_unstable(v) -> bool:
    return isinstance(v, PhiNuEstimate) and v.stability_flag


def solve_beta(phi: Callable[[float], Union[float, PhiNuEstimate]],
               q_upper_hint: float = math.inf, tol: float = 1e-10,
               hypothesis_flags: Optional[dict] = None,
               q_nu: Optional[float] = None,
               phi_at_endpoint: Optional[float] = None,
               method: str = "analytic",
               mc_band: Optional[Callable[[float], Tuple[float, float]]] = None
               ) -> LundbergReport:
    """Find the positive root of phi(q) = 1 by doubling and bisection.

    ``phi`` must satisfy phi(0) = 1 with a negative initial slope (checked
    numerically; a nonnegative slope raises the mean-drift violation).  The
    bracket never crosses the transform endpoint: values of ``inf`` and
    flagged Monte Carlo estimates act as soft upper boundaries.  In Monte
    Carlo mode ``mc_band(q)`` supplies (estimate - 2 se, estimate + 2 se)
    curves and the root interval of those curves becomes the confidence
    half-width.
    """
    flags = dict(hypothesis_flags or {})
    hint = q_upper_hint if math.isfinite(q_upper_hint) else math.inf
    v0 = _curve_value(phi(0.0))
    if abs(v0 - 1.0) > max(100 * tol, 1e-8):
        raise ValueError("phi(0) must equal 1")

    probe = max(tol, 1e-12)
    if math.isfinite(hint):
        probe = min(probe, hint / 4.0)
    if _curve_value(phi(probe)) >= 1.0:
        raise HypothesisViolation(
            "mean_drift_positive",
            "phi is nondecreasing at 0+, i.e. the mean one-interval log "
            "drift is not positive; no decay exponent exists")

    # doubling scan for a finite value above 1
    q_lo, q_hi = probe, None
    q = probe
    top = hint * (1.0 - 1e-9) if math.isfinite(hint) else math.inf
    while True:
        q_next = min(q * 2.0, top)
        val = phi(q_next)
        if _is_unstable(val) or math.isinf(_curve_value(val)):
            q_hi = q_next
            break
        if _curve_value(val) > 1.0:
            q_hi = q_next
            break
        q_lo = q_next
        if q_next >= top:
            # exhausted the admissible range below the endpoint
            return LundbergReport(
                beta=None, q_nu=q_nu if q_nu is not None else hint,
                phi_at_endpoint=phi_at_endpoint, method=method,
                ci_halfwidth=None, hypothesis_flags=flags, status="no_root")
        q = q_next

    def refine(curve: Callable[[float], float]) -> Optional[float]:
        lo, hi = q_lo, q_hi
        flo = curve(lo) - 1.0
        if flo > 0:
            return lo
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = curve(mid) - 1.0
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
                return 0.5 * (lo + hi)
        return 0.5 * (lo + hi)

    def base_curve(x: float) -> float:
        v = phi(x)
        if _is_unstable(v):
            return math.inf
        return _curve_value(v)

    beta = refine(base_curve)
    ci = None
    if mc_band is not None:
        lo_root = refine(lambda x: mc_band(x)[1])   # upper curve crosses first
        hi_root = refine(lambda x: mc_band(x)[0])
        if lo_root is not None and hi_root is not None:
            ci = abs(hi_root - lo_root) / 2.0
    return LundbergReport(
        beta=float(beta), q_nu=q_nu if q_nu is not None else hint,
        phi_at_endpoint=phi_at_endpoint, method=method, ci_halfwidth=ci,
        hypothesis_flags=flags, status="root")


def lundberg_report(config: ModelConfig, tol: float = 1e-10,
                    method: str = "auto", mc_samples: int = 1_000_000,
                    seed: int = 0) -> LundbergReport:
    """Full decay-exponent analysis for a model configuration.

    Constant-coefficient regimes get the analytic route: the tangent
    geometry pins the transform endpoint, one ``classify_endpoint`` pass
    gives the endpoint verdict and value (both kept on the report), the
    value decides existence, and bisection finds the root to ``tol``.
    Anything else is probed by Monte Carlo on a cached sample of nu draws.
    """
    ek = config.require_positive_drift()
    analytic = (config.has_investment and config.regime.mode == "constant"
                and method in ("auto", "analytic"))
    claim = config.claim_dist
    tau_dist = config.interarrival_dist

    if analytic:
        theta = config.regime.theta
        endpoint = tau_dist.mgf_endpoint()
        q_tau = endpoint.q_max
        geometry = verdict = None
        phi_end: Optional[float] = None
        if math.isfinite(q_tau):
            geometry = q_plus_compute(theta, q_tau)
            q_nu = geometry.q_plus
            verdict = classify_endpoint(geometry, tau_dist, delta=q_tau / 2.0)
            phi_end = endpoint_phi_value(verdict)
            if phi_end <= 1.0:
                return LundbergReport(
                    beta=None, q_nu=q_nu, phi_at_endpoint=phi_end,
                    method="analytic", ci_halfwidth=None,
                    hypothesis_flags=_flags(config, ek, None), status="no_root",
                    geometry=geometry, endpoint=verdict)
        else:
            q_nu = math.inf
        report = solve_beta(partial(phi_nu_analytic, theta, tau_dist),
                            q_upper_hint=q_nu, tol=tol, q_nu=q_nu,
                            phi_at_endpoint=phi_end, method="analytic")
        return replace(report, hypothesis_flags=_flags(config, ek, report.beta),
                       geometry=geometry, endpoint=verdict)

    nu = sample_nu(config, mc_samples, seed)
    cache: dict = {}

    def mc_curve(q: float) -> PhiNuEstimate:
        if q not in cache:
            cache[q] = phi_nu_mc(config, q, mc_samples, seed, nu=nu)
        return cache[q]

    def band(q: float) -> Tuple[float, float]:
        est = mc_curve(q)
        return est.estimate - 2 * est.stderr, est.estimate + 2 * est.stderr

    report = solve_beta(mc_curve, q_upper_hint=math.inf, tol=max(tol, 1e-6),
                        method="monte_carlo", mc_band=band)
    flagged = [q for q, v in cache.items() if v.stability_flag]
    q_nu_soft = min(flagged) if flagged else math.inf
    return replace(report, q_nu=q_nu_soft,
                   hypothesis_flags=_flags(config, ek, report.beta))


def _flags(config: ModelConfig, ek: Optional[float],
           beta: Optional[float]) -> dict:
    flags = {"ek_positive": ek is not None and ek > 0.0}
    if beta is None:
        flags["claim_moment_ok"] = None
        flags["cond_tau_ok"] = None
        return flags
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
