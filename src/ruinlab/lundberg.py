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
infinite exactly when that integral diverges at H = 0.
``classify_endpoint`` evaluates it once per gap law: exact sums for finite
Theta, the terms' decay exponent and ``theta.countable_sum`` (an exact head
and an Euler-Maclaurin tail) for the zeta series, dyadic shells of a
polygon's level density, and a sampled power fit for product laws (flagged
heuristic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, List, Optional, Tuple, Union

import numpy as np
from scipy import integrate

from .distributions import Distribution
from .engine import StepKernel
from .errors import DistributionError, EstimationError, HypothesisViolation
from .model import ModelConfig, RngStreams, as_streams
from .theta import SERIES_HEAD, ThetaLaw, countable_sum

__all__ = [
    "u_vector", "phi_nu_analytic", "phi_nu_mc", "solve_beta",
    "lundberg_report", "q_plus_compute", "classify_endpoint",
    "LundbergReport", "TangentGeometry", "HLaw", "PhiNuEstimate",
    "EndpointVerdict",
]

_TOUCH_TOL = 1e-12
_DECAY_TOL = 1e-9        # rounding slack on the series decay exponent
_BLOCK_CONVERGE = 0.70
_BLOCK_DIVERGE = 0.95
_POWER_FIT_MARGIN = 0.05
_POWER_FIT_SAMPLES = 200_000
_POWER_FIT_SEED = 0
_POLYGON_SHELLS = 18


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
    """Law of the tangent gap H, in whichever form the support shape allows.

    ``discrete``: finitely many atoms; ``series``: countable atoms given by
    vectorized index functions; ``polygon``: a density with kinks at the
    vertex gaps, also sampleable; ``sampler``: draw-only access.
    """

    kind: str
    atoms: Optional[tuple] = None          # ((h, prob), ...)
    h_fn: Optional[Callable] = None        # j-array -> h-array (nonincreasing)
    p_fn: Optional[Callable] = None
    sampler: Optional[Callable] = None     # (rng, n) -> h-array
    density: Optional[Callable] = None     # polygon: h -> density of H
    kinks: tuple = ()                      # polygon: sorted vertex gaps

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "discrete":
            hs = np.array([h for h, _ in self.atoms])
            ps = np.cumsum([p for _, p in self.atoms])
            idx = np.minimum(np.searchsorted(ps, rng.random(n), side="right"),
                             len(hs) - 1)
            return hs[idx]
        if self.kind == "series":
            raise EstimationError("series gap law is summed, not sampled")
        return self.sampler(rng, n)


def _h_from_theta(theta: ThetaLaw, q_plus: float, q_tau: float,
                  rng: np.random.Generator, n: int) -> np.ndarray:
    mu, hs = theta.sample(rng, n)
    h = q_tau - _inner(q_plus, mu, hs)
    if np.min(h) < -1e-9 * max(1.0, q_tau):
        raise EstimationError("gap variable sampled negative; the support "
                              "crosses the tangent ray")
    # touching-point draws can round a few ulp below zero
    return np.maximum(h, 0.0)


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
    inconclusive: bool = False
    heuristic: bool = False


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
    if theta.kind == "finite":
        hs = [max(0.0, q_tau - float(_inner(q_plus, x, y)))
              for (x, y), _ in theta.atoms]
        merged: dict = {}
        for h, (_, w) in zip(hs, theta.atoms):
            merged[h] = merged.get(h, 0.0) + w
        atoms = tuple(sorted(merged.items()))
        return HLaw("discrete", atoms=atoms)
    if theta.kind == "countable":
        return HLaw("series",
                    h_fn=partial(_h_series_values, theta, q_plus, q_tau),
                    p_fn=theta.prob_fn)
    sampler = partial(_h_from_theta, theta, q_plus, q_tau)
    if theta.kind == "polytope_uniform":
        verts = np.asarray(theta.vertices)
        level = _polygon_level_density(verts, q_plus)
        kinks = q_tau - _inner(q_plus, verts[:, 0], verts[:, 1])
        return HLaw("polygon", sampler=sampler,
                    density=lambda h: level(q_tau - h),
                    kinks=tuple(sorted(set(kinks.tolist()))))
    return HLaw("sampler", sampler=sampler)


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
    density = _polygon_level_density(pts, q)
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
    x_lo, x_hi = dx.support()
    y_lo, y_hi = dy.support()
    sup = float(_inner(q, x_lo, y_hi))
    if math.isfinite(q_tau) and not math.isfinite(y_hi):
        return math.inf
    if math.isfinite(q_tau) and sup > q_tau + _TOUCH_TOL:
        return math.inf

    def phi_given_y(y: float) -> float:
        return _expect_1d(dx, lambda x: tau_dist.mgf(float(_inner(q, x, y))))

    return _expect_1d(dy, phi_given_y)


def _expect_1d(dist: Distribution, f: Callable[[float], float]) -> float:
    if dist.kind == "deterministic":
        return f(dist.params[0])
    if dist.kind == "discrete":
        values, probs = dist.params
        return sum(w * f(v) for v, w in zip(values, probs))
    lo, hi = dist.support()
    val, _ = integrate.quad(lambda x: f(x) * float(dist.pdf(x)), lo, hi,
                            limit=300)
    return val


# -- polygon level-set density ---------------------------------------------------

def _polygon_level_density(verts: np.ndarray, q: float) -> Callable[[float], float]:
    """Density of <u(q), Theta> for Theta uniform on a convex polygon."""
    d = np.array(u_vector(q))
    norm_d = float(np.hypot(*d))
    x, y = verts[:, 0], verts[:, 1]
    xr, yr = np.roll(x, -1), np.roll(y, -1)
    area = abs(float(np.sum(x * yr - xr * y)) / 2.0)
    edges = list(zip(verts, np.roll(verts, -1, axis=0)))
    t_of = lambda p: float(np.dot(d, p))

    def chord(t: float) -> float:
        pts: List[np.ndarray] = []
        for p1, p2 in edges:
            t1, t2 = t_of(p1), t_of(p2)
            if t1 == t2:
                if abs(t1 - t) <= 1e-14 * max(1.0, abs(t)):
                    pts.extend([np.asarray(p1), np.asarray(p2)])
                continue
            lam = (t - t1) / (t2 - t1)
            if -1e-12 <= lam <= 1.0 + 1e-12:
                pts.append(np.asarray(p1) + lam * (np.asarray(p2) - np.asarray(p1)))
        if len(pts) < 2:
            return 0.0
        arr = np.array(pts)
        return float(np.max(np.hypot(*(arr[:, None] - arr[None]).T)))

    return lambda t: chord(t) / (area * norm_d)


# -- endpoint values and the dichotomy --------------------------------------------

def _series_verdict(h_law: HLaw, tau_dist, q_tau, delta) -> EndpointVerdict:
    """With p_j ~ j^-p, h_j ~ a j^-r and phi_tau(q_tau - h) ~ c h^-k, the
    terms decay like j^-s, s = p - r k (p and r read off at J and 2J), and
    their sum is finite iff s > 1.  The tail atoms gap below h_J <= delta."""
    far = np.array([SERIES_HEAD, 2.0 * SERIES_HEAD])
    p_far, h_far = h_law.p_fn(far), h_law.h_fn(far)
    s = (math.log2(p_far[0] / p_far[1])
         - _integrand_growth_rate(tau_dist) * math.log2(h_far[0] / h_far[1]))
    h = h_law.h_fn(np.arange(1.0, SERIES_HEAD))
    if s <= 1.0 + _DECAY_TOL or np.any(h <= _TOUCH_TOL):
        return EndpointVerdict("endpoint_infinite", math.inf)
    if delta < h_far[0]:
        raise ValueError(f"delta is below the series gap h_J = {h_far[0]:.3g}")
    terms = countable_sum(
        lambda j: h_law.p_fn(j) * tau_dist.mgf(q_tau - h_law.h_fn(j)))
    near = np.append(h <= delta, True)
    return EndpointVerdict("endpoint_finite", math.fsum(terms[near]),
                           math.fsum(terms[~near]))


def _shell_verdict(shells: np.ndarray, head: float) -> EndpointVerdict:
    """Classify dyadic shell sums: geometric decay means a finite limit.

    Ratios hugging 1 signal divergence; the in-between band is decided
    toward divergence (a ratio exactly 1 is the harmonic boundary, which
    diverges) but flagged inconclusive.  A finite sum is closed with the
    geometric tail of its last two shells.
    """
    pos = shells[shells > 0]
    if len(pos) < 4:
        finite, inconclusive = len(pos) == 0, True
    else:
        r = float(np.median((pos[1:] / pos[:-1])[-6:]))
        finite, inconclusive = r < 0.825, _BLOCK_CONVERGE < r < _BLOCK_DIVERGE
    if not finite:
        return EndpointVerdict("endpoint_infinite", math.inf,
                               inconclusive=inconclusive)
    total = float(np.sum(shells))
    r = pos[-1] / pos[-2] if len(pos) >= 2 else 1.0
    if r < 1.0:
        total += float(pos[-1]) * r / (1.0 - r)
    return EndpointVerdict("endpoint_finite", total, head,
                           inconclusive=inconclusive)


def _polygon_shells(h_law: HLaw, tau_dist, q_tau, delta):
    """Quadrature of phi_tau(q_tau - h) f_H(h) over dyadic bands of
    (0, delta], plus the head over h > delta."""
    f = lambda h: tau_dist.mgf(q_tau - h) * h_law.density(h)
    shells = np.array([
        integrate.quad(f, delta * 0.5 ** (k + 1), delta * 0.5 ** k,
                       limit=200)[0]
        for k in range(_POLYGON_SHELLS)])
    h_max = h_law.kinks[-1]
    head = 0.0
    if h_max > delta:
        inside = [h for h in h_law.kinks if delta < h < h_max]
        head, _ = integrate.quad(f, delta, h_max, limit=400,
                                 points=inside or None)
    return shells, head


def _power_fit_verdict(h_law: HLaw, tau_dist, q_tau, delta
                       ) -> EndpointVerdict:
    """Local power fit of the sampled gap CDF near zero against the pole
    order of the integrand; the value is the sample mean over all draws."""
    rng = np.random.default_rng(_POWER_FIT_SEED)
    h = h_law.sample(rng, _POWER_FIT_SAMPLES)
    terms = np.where(h > 0, tau_dist.mgf(q_tau - h), 0.0)
    near = h <= delta
    integral = float(np.mean(np.where(near, terms, 0.0)))
    head = float(np.mean(np.where(near, 0.0, terms)))
    levels = delta * 0.5 ** np.arange(7)
    counts = np.array([(h <= lv).sum() for lv in levels], dtype=float)
    if counts[-1] < 30:
        # too little mass near zero to fit; call it finite, flagged unless
        # no draw fell in (0, delta] at all
        return EndpointVerdict("endpoint_finite", integral, head,
                               inconclusive=bool(counts[0] > 0),
                               heuristic=True)
    good = counts >= 30
    rho, _ = np.polyfit(np.log(levels[good]),
                        np.log(counts[good] / _POWER_FIT_SAMPLES), 1)
    kappa = _integrand_growth_rate(tau_dist)
    if rho <= kappa - _POWER_FIT_MARGIN:
        return EndpointVerdict("endpoint_infinite", math.inf, heuristic=True)
    if rho >= kappa + _POWER_FIT_MARGIN:
        return EndpointVerdict("endpoint_finite", integral, head,
                               heuristic=True)
    # boundary band: the pure power boundary diverges; flag it
    return EndpointVerdict("endpoint_infinite", math.inf,
                           inconclusive=True, heuristic=True)


def classify_endpoint(geometry: TangentGeometry, tau_dist: Distribution,
                      delta: float) -> EndpointVerdict:
    """Integrate phi_tau(q_tau - H) over the gap law in one pass.

    The verdict says whether the integral diverges at H = 0, which is
    whether the step-multiplier transform blows up at its own endpoint and
    in turn guarantees that the decay exponent exists.  A finite verdict
    carries the integral over (0, delta] (``integral_value``) and over
    H > delta (``head_value``); their sum is phi_nu(q_plus).  Finite gap
    laws are summed exactly; a countable series is finite iff its terms
    decay like j^-s with s > 1, and is then summed by ``countable_sum``;
    polygon laws integrate their level density over dyadic shells, and the
    remaining continuous laws take a local power fit of the sampled gap CDF
    against the pole order of the integrand, a path flagged heuristic.
    """
    if delta <= 0:
        raise ValueError("delta must be > 0")
    endpoint = tau_dist.mgf_endpoint()
    if not math.isfinite(endpoint.q_max) or endpoint.finite_at_endpoint:
        raise HypothesisViolation(
            "interarrival_endpoint",
            "the dichotomy applies when the inter-arrival MGF endpoint is "
            "finite with a divergent value there")
    q_tau = geometry.q_tau
    h_law = geometry.h_law

    if h_law.kind == "discrete":
        h, w = np.array(h_law.atoms).T
        if np.any(h <= _TOUCH_TOL):
            return EndpointVerdict("endpoint_infinite", math.inf)
        terms = w * tau_dist.mgf(q_tau - h)
        near = h <= delta
        return EndpointVerdict("endpoint_finite",
                               sum(terms[near].tolist(), 0.0),
                               sum(terms[~near].tolist(), 0.0))

    if h_law.kind == "series":
        return _series_verdict(h_law, tau_dist, q_tau, delta)

    if h_law.kind == "polygon":
        return _shell_verdict(*_polygon_shells(h_law, tau_dist, q_tau, delta))

    return _power_fit_verdict(h_law, tau_dist, q_tau, delta)


def _integrand_growth_rate(tau_dist) -> float:
    """kappa with phi_tau(q_tau - h) ~ c h^(-kappa) near h = 0: the pole
    order of the MGF at its endpoint, 1 for exponential and the shape for
    gamma (the only laws ``classify_endpoint`` accepts)."""
    return 1.0 if tau_dist.kind == "exponential" else tau_dist.params[0]


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
