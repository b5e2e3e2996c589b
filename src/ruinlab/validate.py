"""Acceptance experiments: one callable per criterion, plus suite runners.

Every criterion pins its tolerances and sample sizes here; the test suite
and the ``validate`` CLI subcommand both call these functions, so a pass or
fail line means the same thing everywhere.  The ``quick`` suite is a
smoke-level subset (seconds); ``full`` runs everything at its stated scale.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from . import perpetuity as perp
from .distributions import Distribution
from .engine import Z_95
from .lundberg import (lundberg_report, phi_nu_analytic, q_plus_compute,
                       u_vector)
from .model import ModelConfig, PremiumSpec, RegimeSpec
from .ruin import (bounds_check, classical_psi, estimate_psi_grid, fit_tail,
                   rw_max_diagnostic)
from .theta import ThetaLaw, zeta_regime_law

__all__ = ["CriterionResult", "beta2_config", "classical_config",
           "run_suite", "CRITERIA", "SUITES"]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class CriterionResult:
    name: str
    passed: bool
    runtime_s: float
    details: Dict[str, object] = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = " ".join(f"{k}={_fmt(v)}" for k, v in self.details.items())
        return f"[{status}] {self.name} ({self.runtime_s:.1f}s) {parts}"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_fmt(x) for x in v) + "]"
    return str(v)


def beta2_config() -> ModelConfig:
    """Point-mass coefficients (0.06, 0.02), unit-rate exponential claims and
    inter-arrivals, constant premium at the bound 0.1.  Decay exponent 2."""
    return ModelConfig(
        claim_dist=Distribution.exponential(1.0),
        interarrival_dist=Distribution.exponential(1.0),
        premium=PremiumSpec(0.1),
        regime=RegimeSpec.constant(ThetaLaw.point_mass(0.06, 0.02)))


def classical_config(c: float = 2.0) -> ModelConfig:
    return ModelConfig(
        claim_dist=Distribution.exponential(1.0),
        interarrival_dist=Distribution.exponential(1.0),
        premium=PremiumSpec(c), regime=None)


def _default_workers() -> int:
    return max(1, min(8, os.cpu_count() or 1))


def _timed(fn: Callable[[], CriterionResult]) -> CriterionResult:
    t0 = time.time()
    res = fn()
    res.runtime_s = time.time() - t0
    return res


# -- criterion 1: root identity for constant coefficients ------------------------

def criterion_lundberg_identity(**_) -> CriterionResult:
    """beta = 2 mu / sigma^2 - 1 = 2 within 1e-9, both for an
    endpoint-free inter-arrival law and for the unit-rate exponential."""
    details = {}
    ok = True
    for name, tau in (("exp1", Distribution.exponential(1.0)),
                      ("det1", Distribution.deterministic(1.0))):
        cfg = ModelConfig(
            claim_dist=Distribution.exponential(1.0), interarrival_dist=tau,
            premium=PremiumSpec(0.1),
            regime=RegimeSpec.constant(ThetaLaw.point_mass(0.06, 0.02)))
        rep = lundberg_report(cfg)
        err = abs(rep.beta - 2.0) if rep.beta is not None else math.inf
        details[f"beta_err_{name}"] = err
        ok = ok and err <= 1e-9
    return CriterionResult("lundberg_identity", ok, 0.0, details)


# -- criterion 2: golden-ratio tangent parameter -----------------------------------

def criterion_golden_ratio(**_) -> CriterionResult:
    atom = q_plus_compute(ThetaLaw.point_mass(0.0, 1.0), 1.0)
    square = q_plus_compute(ThetaLaw.polytope_uniform(
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]), 1.0)
    e1 = abs(atom.q_plus - GOLDEN)
    e2 = abs(square.q_plus - GOLDEN)
    touch_ok = square.touching_points == ((0.0, 1.0),)
    ok = e1 <= 1e-12 and e2 <= 1e-12 and touch_ok
    return CriterionResult("golden_ratio_geometry", ok, 0.0,
                           {"atom_err": e1, "square_err": e2,
                            "square_touch": touch_ok})


# -- criterion 3: dichotomy on the zeta family --------------------------------------

def criterion_zeta_dichotomy(**_) -> CriterionResult:
    """phi_nu(q_plus) is infinite at p = 2 and finite at p = 3, 4, 5."""
    exp1 = Distribution.exponential(1.0)
    details = {}
    ok = True
    for p in (2, 3, 4, 5):
        cfg = ModelConfig(claim_dist=exp1, interarrival_dist=exp1,
                          premium=PremiumSpec(),
                          regime=RegimeSpec.constant(zeta_regime_law(p)))
        infinite = lundberg_report(cfg).phi_at_endpoint == math.inf
        details[f"p{p}"] = "endpoint_infinite" if infinite else "endpoint_finite"
        ok = ok and infinite == (p == 2)
    return CriterionResult("zeta_family_dichotomy", ok, 0.0, details)


# -- criterion 4: classical baseline --------------------------------------------------

def criterion_classical_baseline(workers: Optional[int] = None,
                                 n_paths: int = 100_000, **_) -> CriterionResult:
    workers = workers or _default_workers()
    cfg = classical_config(2.0)
    grid = [0.0, 1.0, 2.0, 4.0]
    ests = estimate_psi_grid(grid, cfg, n_paths, max_steps=10_000,
                             barrier_multiple=100.0, seed=42, workers=workers)
    details = {}
    ok = True
    for e in ests:
        exact = classical_psi(1.0, 1.0, 2.0, e.u).value
        miss = abs(e.psi_hat - exact)
        details[f"u{e.u:g}"] = miss / e.ci_halfwidth
        ok = ok and miss <= 3.0 * e.ci_halfwidth
    return CriterionResult("classical_baseline", ok, 0.0, details)


# -- criterion 5: power tail past the body of the distribution -------------------

def criterion_power_tail(workers: Optional[int] = None,
                         n_paths: int = 1_000_000, **_) -> CriterionResult:
    """psi(u) ~ u^-beta with beta = 2 on beta2, tested where the limit holds.

    The paper's power law is a limit as u -> infinity, and it gives no rate
    of convergence, so the grid rests on measured bias.  The body of the
    distribution sits at the scale E R = E Q / (1 - E M) = 50.  Local log-log
    slopes of psi_hat on one coupled 1e6-path run (seed 42) are

        u        10->30  30->100  100->300  300->600  600->1200  1200->2400
        slope    -0.66   -1.45    -1.81     -1.91     -1.92      -2.01

    The rule for the grid: every reserve is at least 6 E R, where the local
    slope is within noise of -beta.  On u in {300, 600, 1200, 2400} the fit
    gives slope -1.921 and spread 1.12 (seed 42); inside the body, on
    u in {10, 30, 100, 300}, it gives slope -0.837 and spread 10.5.
    """
    workers = workers or _default_workers()
    cfg = beta2_config()
    grid = [300.0, 600.0, 1200.0, 2400.0]
    ests = estimate_psi_grid(grid, cfg, n_paths, seed=42, workers=workers)
    fit = fit_tail(ests)
    spread = bounds_check(2.0, ests).spread
    slope_ok = -2.4 <= fit.slope <= -1.6
    spread_ok = spread <= 4.0
    return CriterionResult(
        "power_tail", slope_ok and spread_ok, 0.0,
        {"slope": fit.slope, "spread": spread,
         "psi": [e.psi_hat for e in ests],
         "ratio": [round(e.u ** 2 * e.psi_hat, 1) for e in ests]})


# -- criterion 6: fixed point and sandwich ---------------------------------------------

def criterion_fixed_point_sandwich(workers: Optional[int] = None,
                                   n_r: int = 100_000,
                                   n_psi: int = 200_000, **_) -> CriterionResult:
    workers = workers or _default_workers()
    cfg = beta2_config()
    sampler = perp.model_pair_sampler(cfg)
    batch = perp.sample_R_values(sampler, n_r, seed=7, workers=workers)
    r_vals = batch.converged_values()
    ks = perp.ks_fixed_point(r_vals[:n_r], sampler, 11)
    ks_ok = ks <= 0.02

    rbar = perp.sample_Rbar_values(cfg, n_r, seed=8, workers=workers)
    rbar_vals = rbar.values
    ests = estimate_psi_grid([10.0, 30.0, 100.0], cfg, n_psi, seed=9,
                             workers=workers)
    details = {"ks": ks, "r_discard": batch.discard_rate}
    ok = ks_ok
    for e in ests:
        p_up = float(np.mean(r_vals > e.u))
        p_lo = float(np.mean(rbar_vals > e.u))
        se_psi = e.ci_halfwidth / Z_95
        se_up = math.sqrt(max(p_up * (1 - p_up), 1e-12) / len(r_vals))
        se_lo = math.sqrt(max(p_lo * (1 - p_lo), 1e-12) / len(rbar_vals))
        upper_ok = e.psi_hat <= p_up + 3.0 * math.hypot(se_psi, se_up)
        lower_ok = e.psi_hat >= p_lo - 3.0 * math.hypot(se_psi, se_lo)
        details[f"u{e.u:g}"] = (round(p_lo, 4), round(e.psi_hat, 4),
                                round(p_up, 4))
        ok = ok and upper_ok and lower_ok
    return CriterionResult("fixed_point_sandwich", ok, 0.0, details)


# -- criterion 7: tail-constant consistency ---------------------------------------------

def criterion_goldie(workers: Optional[int] = None,
                     n_samples: int = 1_000_000, **_) -> CriterionResult:
    """Goldie constant c_hat, cross-checked against u^2 P(R > u) -> c.

    The limit u^beta P(R > u) -> c (implicit renewal theory, Goldie 1991)
    holds as u -> infinity only; the paper gives no rate, so the checkpoints
    rest on measured bias.  The body of R sits at the scale E R = 50.  A
    1e7-sample reference (seed 101) against the closed form c = 1275 gives

        u                  320    640    1280   2560   5120
        u^2 P(R>u) / c     0.904  0.952  0.980  1.001  1.038
        reference SE       0.003  0.006  0.011  0.023  0.046

    a deficit of about 30/u; at u = 20, 40, 80 the ratio is only 22-66 % of
    c.  The rule for the grid: each checkpoint's bias is below one standard
    error of the 1e6-sample check.  At 1280 the bias is 2.0 % against an SE
    of 3.6 %; at 640 it is 4.8 %, about 2.3 SE, so 640 is left out.

    The reference was drawn at the perpetuity tolerance 1e-12.  At today's
    ``engine.REL_TOL`` = 3e-6 it still holds: the paired audit in the
    ``perpetuity`` docstring moves no sample above u = 1280, 2560 or 5120 in
    1.57e6 rows, and c_hat by -0.16 against a bar of 3.6.
    """
    workers = workers or _default_workers()
    cfg = beta2_config()
    sampler = perp.model_pair_sampler(cfg)
    batch = perp.sample_R_values(sampler, n_samples, seed=21, workers=workers)
    vals = batch.converged_values()
    est = perp.goldie_constant(vals, sampler, 2.0, 23)
    rel = est.stderr / est.c_hat if est.c_hat > 0 else math.inf
    base_ok = est.c_hat > 0 and rel < 0.1
    details = {"c_hat": est.c_hat, "rel_stderr": rel}
    cross_ok = True
    for u in (1280.0, 2560.0, 5120.0):
        p = float(np.mean(vals > u))
        se_p = math.sqrt(p * (1 - p) / len(vals))
        ratio = u ** 2 * p
        combined = math.hypot(est.stderr, u ** 2 * se_p)
        details[f"ratio_u{u:g}"] = ratio
        cross_ok = cross_ok and abs(ratio - est.c_hat) <= 3.0 * combined
    details["tail_matches_c_hat"] = cross_ok
    return CriterionResult("goldie_constant", base_ok and cross_ok, 0.0,
                           details)


# -- criterion 8: exact invariances ---------------------------------------------------------

def criterion_exact_invariances(workers: Optional[int] = None,
                                n_paths: int = 20_000, **_) -> CriterionResult:
    workers = workers or _default_workers()
    cfg = beta2_config()
    grid = [2.0, 10.0, 50.0]
    base = estimate_psi_grid(grid, cfg, n_paths, max_steps=2_000, seed=5,
                             workers=workers)
    scaled = estimate_psi_grid([2.0 * u for u in grid], cfg.scaled(2.0),
                               n_paths, max_steps=2_000, seed=5,
                               workers=workers)
    scale_ok = all(a.psi_hat == b.psi_hat for a, b in zip(base, scaled))
    mono_ok = all(base[i].psi_hat >= base[i + 1].psi_hat
                  for i in range(len(base) - 1))

    # phi_nu(0) = 1 by construction; the slope at 0 is -E K =
    # E tau E(sigma^2/2 - mu), up to a second-order term below eps here
    square = ThetaLaw.polytope_uniform([(0, 0), (1, 0), (0, 1), (1, 1)])
    zeta4, exp1 = zeta_regime_law(4), Distribution.exponential(1.0)
    eps = 1e-6
    slope_ok = True
    for law, tau in ((cfg.regime.theta, cfg.interarrival_dist),
                     (square, exp1), (zeta4, exp1)):
        e_mu, e_hs = law.mean()
        slope = (phi_nu_analytic(law, tau, eps) - 1.0) / eps
        slope_ok = (slope_ok and
                    abs(slope - tau.mean() * (e_hs - e_mu)) <= 5.0 * eps)

    h_ok = True
    for law in (ThetaLaw.point_mass(0.0, 1.0), square, zeta4):
        geom = q_plus_compute(law, 1.0)
        if geom.h_law.kind == "series":
            j = np.arange(1.0, 1_000_001.0)
            h_ok = h_ok and float(np.min(geom.h_law.h_fn(j))) >= 0.0
        else:
            # H is linear in Theta, so its least value over the support
            # sits at a candidate point; check the gap there unclipped
            ux, uy = u_vector(geom.q_plus)
            pts = law.candidate_points()
            h = geom.q_tau - (ux * pts[:, 0] + uy * pts[:, 1])
            h_ok = h_ok and float(np.min(h)) >= -1e-9 * max(1.0, geom.q_tau)
    ok = scale_ok and mono_ok and slope_ok and h_ok
    return CriterionResult(
        "exact_invariances", ok, 0.0,
        {"scale": scale_ok, "monotone": mono_ok, "phi_slope": slope_ok,
         "h_nonneg": h_ok})


# -- criterion 9: random-walk maximum diagnostic ----------------------------------------------

def criterion_rw_diagnostic(workers: Optional[int] = None,
                            n_walks: int = 2_000_000,
                            n_psi: int = 200_000, **_) -> CriterionResult:
    workers = workers or _default_workers()
    cfg = beta2_config()
    grid = [10.0, 30.0, 100.0, 300.0]
    diag = rw_max_diagnostic(cfg, grid, n_walks, seed=31, workers=workers)
    p = np.array([d["p_hat"] for d in diag])
    if np.any(p <= 0):
        return CriterionResult("rw_max_diagnostic", False, 0.0,
                               {"p_hat": list(map(float, p))})
    slope = float(np.polyfit(np.log(grid), np.log(p), 1)[0])
    slope_ok = abs(slope - (-2.0)) <= 0.2 * 2.0
    ests = estimate_psi_grid(grid, cfg, n_psi, seed=33, workers=workers)
    lpsi = np.log([e.psi_hat for e in ests])
    corr = float(np.corrcoef(np.log(p), lpsi)[0, 1])
    corr_ok = corr >= 0.95
    return CriterionResult("rw_max_diagnostic", slope_ok and corr_ok, 0.0,
                           {"slope": slope, "corr": corr})


CRITERIA: Dict[str, Callable[..., CriterionResult]] = {
    "lundberg_identity": criterion_lundberg_identity,
    "golden_ratio_geometry": criterion_golden_ratio,
    "zeta_family_dichotomy": criterion_zeta_dichotomy,
    "classical_baseline": criterion_classical_baseline,
    "power_tail": criterion_power_tail,
    "fixed_point_sandwich": criterion_fixed_point_sandwich,
    "goldie_constant": criterion_goldie,
    "exact_invariances": criterion_exact_invariances,
    "rw_max_diagnostic": criterion_rw_diagnostic,
}

SUITES: Dict[str, List[dict]] = {
    # smoke-level: reduced path counts, except the walks of the diagnostic
    # (p(300) is about 8.4e-6, so fewer than 2e6 walks risk a zero count)
    # and the sandwich, which runs both perpetuity samplers at full size
    "quick": [
        {"name": "lundberg_identity"},
        {"name": "golden_ratio_geometry"},
        {"name": "zeta_family_dichotomy"},
        {"name": "classical_baseline", "n_paths": 20_000},
        {"name": "exact_invariances", "n_paths": 5_000},
        {"name": "fixed_point_sandwich"},
        {"name": "rw_max_diagnostic", "n_psi": 50_000},
    ],
    "full": [{"name": name} for name in CRITERIA],
}


def run_suite(suite: str, workers: Optional[int] = None,
              emit: Callable[[str], None] = print) -> List[CriterionResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    results = []
    for spec in SUITES[suite]:
        kwargs = {k: v for k, v in spec.items() if k != "name"}
        fn = CRITERIA[spec["name"]]
        res = _timed(lambda: fn(workers=workers, **kwargs))
        results.append(res)
        emit(res.line())
    return results
