"""Schema rejection: every malformed value of an experiment file is a config
error (exit 2) that names the value's path, list elements included."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from ruinlab import ConfigError, parse_experiment
from ruinlab.cli import main
from test_cli import BETA2, write_cfg


def with_claim(claim):
    return dict(BETA2, model=dict(BETA2["model"], claim=claim))


def with_theta(theta):
    return dict(BETA2, model=dict(BETA2["model"], regime={
        "mode": "constant", "theta": theta}))


def finite_theta(*atoms):
    return with_theta({"kind": "finite", "atoms": list(atoms)})


def polygon(*vertices):
    return with_theta({"kind": "polytope_uniform", "vertices": list(vertices)})


@pytest.mark.parametrize("doc, field", [
    (with_claim({"kind": "discrete", "atoms": [["x", 1.0]]}),
     "$.model.claim.atoms[0][0]"),
    (finite_theta([["x", 0.02], 1.0]), "$.model.regime.theta.atoms[0][0][0]"),
    (polygon(1, 2, 3), "$.model.regime.theta.vertices[0]"),
    (with_claim({"kind": [1]}), "$.model.claim.kind"),
    (with_claim({"kind": "discrete", "atoms": [[True, 1.0]]}),
     "$.model.claim.atoms[0][0]"),
    (polygon([0.0, 0.01], [True, 0.01], [0.0, 1.0]),
     "$.model.regime.theta.vertices[1][0]"),
    (dict(BETA2, ruin={"u_grid": [10, True]}), "$.ruin.u_grid[1]"),
    (finite_theta([[0.06, 0.02], math.nan]),
     "$.model.regime.theta.atoms[0][1]"),
    (polygon([0.0, 0.01], [1.0, math.nan], [0.0, 1.0]),
     "$.model.regime.theta.vertices[1][1]"),
    (dict(BETA2, ruin={"u_grid": [math.nan, 30]}), "$.ruin.u_grid[0]"),
    (with_claim({"kind": "discrete", "atoms": [[1.0]]}),
     "$.model.claim.atoms[0]"),
    (polygon(), "$.model.regime.theta"),
    (with_claim({"kind": "exponential", "rate": 10 ** 400}),
     "$.model.claim.rate"),
], ids=["str_in_atoms", "str_in_theta_atoms", "bare_vertices",
        "unhashable_kind", "bool_in_atoms", "bool_in_vertices",
        "bool_in_u_grid", "nan_in_theta_atoms", "nan_in_vertices",
        "nan_in_u_grid", "short_atom", "no_vertices", "int_past_float"])
def test_malformed_element_exits_2_naming_it(tmp_path, capsys, doc, field):
    assert main(["lundberg", "--config", write_cfg(tmp_path, doc)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "config"
    assert out["field"] == field


KINDS = ("exponential", "gamma", "deterministic", "uniform", "discrete",
         "lognormal", "pareto")
BOUNDED = ("deterministic", "uniform", "discrete")


def laws(lo, names=KINDS):
    """Law documents of the kinds ``names`` with support in [lo, inf)."""
    num, pos = st.floats(lo, 10.0), st.floats(0.1, 10.0)
    kinds = {
        "exponential": st.fixed_dictionaries({"rate": pos}),
        "gamma": st.fixed_dictionaries({"shape": pos, "scale": pos}),
        "deterministic": st.fixed_dictionaries({"value": num}),
        "uniform": st.tuples(num, pos).map(
            lambda p: {"lo": p[0], "hi": p[0] + p[1]}),
        "discrete": st.lists(num, min_size=1, max_size=4, unique=True).map(
            lambda vs: {"atoms": [[v, 1.0 / len(vs)] for v in vs]}),
        "lognormal": st.fixed_dictionaries({"mu": st.floats(-1.0, 1.0),
                                            "sigma": pos}),
        "pareto": st.fixed_dictionaries({"index": pos, "scale": pos}),
    }
    return st.one_of([kinds[k].map(lambda d, k=k: {"kind": k, **d})
                      for k in names])


MU, HS = st.floats(-1.0, 1.0), st.floats(0.01, 1.0)
THETAS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("point"), "mu": MU,
                           "half_sigma2": HS}),
    st.lists(st.tuples(MU, HS), min_size=1, max_size=4, unique=True).map(
        lambda pts: {"kind": "finite",
                     "atoms": [[[m, h], 1.0 / len(pts)] for m, h in pts]}),
    st.tuples(MU, HS, st.floats(0.1, 1.0), st.floats(0.1, 1.0)).map(
        lambda p: {"kind": "polytope_uniform", "vertices": [
            [p[0], p[1]], [p[0] + p[2], p[1]], [p[0], p[1] + p[3]]]}),
    # the tangent geometry needs a bounded product law
    st.fixed_dictionaries({"kind": st.just("product"),
                           "mu": laws(-1.0, BOUNDED),
                           "half_sigma2": laws(0.01, BOUNDED)}),
    st.fixed_dictionaries({"kind": st.just("zeta"), "p": st.integers(2, 6)}),
)
REGIMES = st.one_of(
    st.none(),
    st.just({"mode": "none"}),
    st.fixed_dictionaries({"mode": st.just("constant"), "theta": THETAS}),
    st.fixed_dictionaries({"mode": st.just("piecewise"),
                           "h": st.floats(0.05, 2.0), "mu": laws(-1.0),
                           "sigma": laws(0.01)}),
)
PREMIUMS = st.one_of(
    st.just({"mode": "zero"}),
    st.fixed_dictionaries({"mode": st.just("constant"),
                           "c": st.floats(0.0, 5.0)}),
    st.fixed_dictionaries({"mode": st.just("exponential_decay"),
                           "c1": st.floats(0.0, 5.0),
                           "gamma_rate": st.floats(-1.0, 0.0)}),
)
DOCS = st.fixed_dictionaries({
    "version": st.just(1),
    "model": st.fixed_dictionaries({
        "claim": laws(0.0), "interarrival": laws(0.01, KINDS[:-1]),
        "premium": PREMIUMS, "regime": REGIMES}),
}, optional={
    "seed": st.integers(0, 2 ** 32),
    "ruin": st.fixed_dictionaries({}, optional={
        "u_grid": st.lists(st.floats(0.0, 1000.0), max_size=4,
                           unique=True).map(sorted),
        "n_paths": st.integers(100, 10 ** 6),
        "max_steps": st.integers(1, 10 ** 4),
        "barrier_multiple": st.floats(1.0, 1000.0)}),
    "perpetuity": st.fixed_dictionaries({}, optional={
        "samples": st.integers(10 ** 4, 10 ** 6),
        "n_max": st.integers(1, 10 ** 5)}),
})


def numeric_slots(node, path="$"):
    """(container, key, path) of every number in a JSON document."""
    named = isinstance(node, dict)
    for key, val in (node.items() if named else enumerate(node)):
        sub = f"{path}.{key}" if named else f"{path}[{key}]"
        if isinstance(val, (dict, list)):
            yield from numeric_slots(val, sub)
        elif isinstance(val, (int, float)) and not isinstance(val, bool):
            yield node, key, sub


@settings(max_examples=200)
@given(doc=DOCS, data=st.data())
def test_every_numeric_leaf_is_checked_where_it_sits(doc, data):
    parse_experiment(doc)
    container, key, path = data.draw(st.sampled_from(list(
        numeric_slots(doc))))
    container[key] = data.draw(st.sampled_from([True, math.nan, "1", [1]]))
    with pytest.raises(ConfigError) as err:
        parse_experiment(doc)
    assert err.value.field == path
