"""Golden sweep of the analytic route.

Every coefficient-law kind (point, finite, polygon, three product shapes,
zeta p = 2 and 3) meets eight inter-arrival laws covering all seven kinds,
and piecewise regimes meet the same laws over uniform, point, two-atom and
five-atom sigma laws.  Each case pins beta, q_nu and phi_nu(q_nu) of
``lundberg_report`` and phi_nu on ``Q_GRID``, or the error a case raises.

``analytic_golden.json`` holds the values that scipy's ``brentq`` and
QUADPACK's ``quad`` gave before ruinlab carried its own root finder and
quadrature; the values that moved past ``REL`` were re-pinned to the
current ones only where those are no farther from an mpmath reference
(listed in CHANGES.md).  ``python tests/test_analytic_golden.py`` prints
the sweep of the ruinlab on the path as JSON.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from ruinlab import (Distribution, ModelConfig, PremiumSpec, RegimeSpec,
                     RuinlabError, ThetaLaw, lundberg_report,
                     phi_nu_analytic, phi_nu_piecewise, zeta_regime_law)

GOLDEN = Path(__file__).with_name("analytic_golden.json")
REL = 1e-12
Q_GRID = (0.2, 0.5, 1.5, 3.0, 6.0)

TAUS = {
    "exponential": Distribution.exponential(1.0),
    "gamma_0.5": Distribution.gamma(0.5, 2.0),
    "gamma_2.5": Distribution.gamma(2.5, 0.4),
    "deterministic": Distribution.deterministic(1.0),
    "uniform": Distribution.uniform(0.5, 1.5),
    "discrete": Distribution.discrete([(0.5, 0.5), (1.5, 0.5)]),
    "lognormal": Distribution.lognormal(-0.125, 0.5),
    "pareto": Distribution.pareto(3.0, 2.0 / 3.0),
}
THETAS = {
    "point": lambda: ThetaLaw.point_mass(0.06, 0.02),
    "finite": lambda: ThetaLaw.finite([((0.06, 0.02), 0.5),
                                       ((0.1, 0.05), 0.3),
                                       ((0.03, 0.01), 0.2)]),
    "polygon": lambda: ThetaLaw.polytope_uniform(
        [(0.04, 0.01), (0.08, 0.01), (0.07, 0.03), (0.05, 0.04)]),
    "product_uu": lambda: ThetaLaw.product(Distribution.uniform(0.04, 0.08),
                                           Distribution.uniform(0.01, 0.03)),
    "product_au": lambda: ThetaLaw.product(
        Distribution.discrete([(0.05, 0.5), (0.07, 0.5)]),
        Distribution.uniform(0.01, 0.03)),
    "product_ua": lambda: ThetaLaw.product(
        Distribution.uniform(0.04, 0.08),
        Distribution.discrete([(0.01, 0.5), (0.03, 0.5)])),
    "zeta2": lambda: zeta_regime_law(2),
    "zeta3": lambda: zeta_regime_law(3),
}
SIGMAS = {
    "uniform": Distribution.uniform(0.15, 0.25),
    "point": Distribution.deterministic(0.2),
    "two_atom": Distribution.discrete([(0.15, 0.5), (0.25, 0.5)]),
    "five_atom": Distribution.discrete([(s, 0.2) for s in
                                        (0.1, 0.15, 0.2, 0.25, 0.3)]),
}
CASES = ([f"{t}/{tau}" for t in THETAS for tau in TAUS]
         + [f"piecewise_{s}/{tau}" for s in SIGMAS for tau in TAUS])


def _regime(name: str) -> RegimeSpec:
    if name.startswith("piecewise_"):
        return RegimeSpec.piecewise(0.25, Distribution.uniform(0.05, 0.07),
                                    SIGMAS[name[len("piecewise_"):]])
    return RegimeSpec.constant(THETAS[name]())


def _num(x):
    return x if x is None or math.isfinite(x) else str(x)


def _error(exc: Exception) -> str:
    condition = getattr(exc, "condition", None)
    return type(exc).__name__ + (f":{condition}" if condition else "")


def record(case: str) -> dict:
    """The sweep's values for one case: floats, "inf", or an error name."""
    name, tau_name = case.split("/")
    regime, tau = _regime(name), TAUS[tau_name]
    if regime.mode == "piecewise":
        phi = lambda q: phi_nu_piecewise(regime, tau, q)
    else:
        phi = lambda q: phi_nu_analytic(regime.theta, tau, q)
    out = {}
    try:
        rep = lundberg_report(ModelConfig(
            Distribution.exponential(1.0), tau, PremiumSpec(0.1),
            regime))
        out.update(beta=rep.beta, q_nu=_num(rep.q_nu),
                   phi_end=_num(rep.phi_at_endpoint))
    except RuinlabError as exc:
        out["report"] = _error(exc)
    grid = []
    for q in Q_GRID:
        try:
            grid.append(_num(phi(q)))
        except RuinlabError as exc:
            grid.append(_error(exc))
    out["phi"] = grid
    return out


def _close(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return abs(got - want) <= REL * abs(want)
    return got == want


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_sweep_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_analytic_route_matches_golden(golden, case):
    got, want = record(case), golden[case]
    assert got.keys() == want.keys()
    for key in want:
        pairs = (zip(got[key], want[key]) if key == "phi"
                 else [(got[key], want[key])])
        assert all(_close(g, w) for g, w in pairs), (key, got[key], want[key])


if __name__ == "__main__":
    json.dump({case: record(case) for case in CASES}, sys.stdout, indent=1)
    print()
