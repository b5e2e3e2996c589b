"""Experiment configuration parsing: strict JSON schema to model objects.

Unknown keys are rejected everywhere and every parse error names the
offending dotted field path.  ``version`` is mandatory for forward
compatibility.
"""

from __future__ import annotations

import json
import math
from typing import Optional

from .distributions import Distribution
from .errors import ConfigError, DistributionError
from .model import ModelConfig, PremiumSpec, RegimeSpec
from .theta import ThetaLaw, zeta_regime_law

__all__ = ["parse_experiment", "load_experiment", "ExperimentConfig"]

SCHEMA_VERSION = 1

_DIST_FIELDS = {
    "exponential": ("rate",),
    "gamma": ("shape", "scale"),
    "deterministic": ("value",),
    "uniform": ("lo", "hi"),
    "discrete": ("atoms",),
    "lognormal": ("mu", "sigma"),
    "pareto": ("index", "scale"),
}


class ExperimentConfig:
    """Parsed experiment file: model plus per-command option blocks."""

    def __init__(self, model: ModelConfig, seed: int, blocks: dict,
                 output: Optional[dict]):
        self.model = model
        self.seed = seed
        self.blocks = blocks
        self.output = output

    def block(self, name: str) -> dict:
        return dict(self.blocks.get(name, {}))


def _expect_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError("expected an object", path)
    return obj


def _take(obj: dict, path: str, known: dict, required: tuple):
    """Pop known keys with type checks; reject anything left over."""
    out = {}
    for key, kind in known.items():
        if key in obj:
            val = obj.pop(key)
            # JSON's true and false load as bool, which Python counts as int
            numeric = (isinstance(val, (int, float))
                       and not isinstance(val, bool))
            # Python's json reads NaN and the infinities, which RFC 8259 lacks
            if kind == "number" and not (numeric and math.isfinite(val)):
                raise ConfigError("expected a finite number", f"{path}.{key}")
            if kind == "int" and not (numeric and isinstance(val, int)):
                raise ConfigError("expected an integer", f"{path}.{key}")
            if kind == "str" and not isinstance(val, str):
                raise ConfigError("expected a string", f"{path}.{key}")
            if kind == "list" and not isinstance(val, list):
                raise ConfigError("expected a list", f"{path}.{key}")
            out[key] = val
    for key in required:
        if key not in out:
            raise ConfigError("missing required field", f"{path}.{key}")
    if obj:
        raise ConfigError(f"unknown keys {sorted(obj)}", path)
    return out


def _parse_dist(obj, path) -> Distribution:
    obj = dict(_expect_mapping(obj, path))
    kind = obj.pop("kind", None)
    if kind not in _DIST_FIELDS:
        raise ConfigError(f"unknown distribution kind {kind!r}", f"{path}.kind")
    fields = _DIST_FIELDS[kind]
    spec = {f: ("list" if f == "atoms" else "number") for f in fields}
    vals = _take(obj, path, spec, fields)
    try:
        if kind == "discrete":
            atoms = vals["atoms"]
            if not all(isinstance(a, list) and len(a) == 2 for a in atoms):
                raise ConfigError("atoms must be [value, prob] pairs",
                                  f"{path}.atoms")
            return Distribution.discrete([(a[0], a[1]) for a in atoms])
        return getattr(Distribution, kind)(*[vals[f] for f in fields])
    except DistributionError as exc:
        raise ConfigError(str(exc), path) from exc


def _parse_theta(obj, path) -> ThetaLaw:
    obj = dict(_expect_mapping(obj, path))
    kind = obj.pop("kind", None)
    try:
        if kind == "point":
            vals = _take(obj, path, {"mu": "number", "half_sigma2": "number"},
                         ("mu", "half_sigma2"))
            return ThetaLaw.point_mass(vals["mu"], vals["half_sigma2"])
        if kind == "finite":
            vals = _take(obj, path, {"atoms": "list"}, ("atoms",))
            atoms = []
            for i, a in enumerate(vals["atoms"]):
                if (not isinstance(a, list) or len(a) != 2
                        or not isinstance(a[0], list) or len(a[0]) != 2):
                    raise ConfigError("atoms must be [[mu, half_sigma2], prob]",
                                      f"{path}.atoms[{i}]")
                atoms.append(((a[0][0], a[0][1]), a[1]))
            return ThetaLaw.finite(atoms)
        if kind == "polytope_uniform":
            vals = _take(obj, path, {"vertices": "list"}, ("vertices",))
            return ThetaLaw.polytope_uniform(
                [(v[0], v[1]) for v in vals["vertices"]])
        if kind == "product":
            vals = _take(obj, path, {"mu": "obj", "half_sigma2": "obj"},
                         ("mu", "half_sigma2"))
            return ThetaLaw.product(_parse_dist(vals["mu"], f"{path}.mu"),
                                    _parse_dist(vals["half_sigma2"],
                                                f"{path}.half_sigma2"))
        if kind == "zeta":
            vals = _take(obj, path, {"p": "int"}, ("p",))
            return zeta_regime_law(vals["p"])
    except DistributionError as exc:
        raise ConfigError(str(exc), path) from exc
    raise ConfigError(f"unknown coefficient-law kind {kind!r}", f"{path}.kind")


def _parse_regime(obj, path) -> Optional[RegimeSpec]:
    if obj is None:
        return None
    obj = dict(_expect_mapping(obj, path))
    mode = obj.pop("mode", None)
    if mode == "none":
        if obj:
            raise ConfigError(f"unknown keys {sorted(obj)}", path)
        return None
    if mode == "constant":
        vals = _take(obj, path, {"theta": "obj"}, ("theta",))
        return RegimeSpec.constant(_parse_theta(vals["theta"], f"{path}.theta"))
    if mode == "piecewise":
        vals = _take(obj, path, {"h": "number", "mu": "obj", "sigma": "obj"},
                     ("h", "mu", "sigma"))
        return RegimeSpec.piecewise(vals["h"],
                                    _parse_dist(vals["mu"], f"{path}.mu"),
                                    _parse_dist(vals["sigma"], f"{path}.sigma"))
    raise ConfigError(f"unknown regime mode {mode!r}", f"{path}.mode")


def _parse_premium(obj, path) -> PremiumSpec:
    obj = dict(_expect_mapping(obj, path))
    mode = obj.pop("mode", None)
    try:
        if mode == "constant":
            vals = _take(obj, path, {"c": "number"}, ("c",))
            return PremiumSpec(vals["c"])
        if mode == "zero":
            if obj:
                raise ConfigError(f"unknown keys {sorted(obj)}", path)
            return PremiumSpec()
        if mode == "exponential_decay":
            vals = _take(obj, path, {"c1": "number", "gamma_rate": "number"},
                         ("c1", "gamma_rate"))
            return PremiumSpec(vals["c1"], vals["gamma_rate"])
    except DistributionError as exc:
        raise ConfigError(str(exc), path) from exc
    raise ConfigError(f"unknown premium mode {mode!r}", f"{path}.mode")


def parse_experiment(doc: dict) -> ExperimentConfig:
    doc = dict(_expect_mapping(doc, "$"))
    top = _take(doc, "$", {
        "version": "int", "seed": "int", "model": "obj", "ruin": "obj",
        "perpetuity": "obj", "output": "obj",
    }, ("version", "model"))
    if top["version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported version {top['version']}", "$.version")
    m = dict(_expect_mapping(top["model"], "$.model"))
    regime_raw = m.pop("regime", None)
    mvals = _take(m, "$.model", {
        "claim": "obj", "interarrival": "obj", "premium": "obj",
    }, ("claim", "interarrival", "premium"))
    try:
        model = ModelConfig(
            claim_dist=_parse_dist(mvals["claim"], "$.model.claim"),
            interarrival_dist=_parse_dist(mvals["interarrival"],
                                          "$.model.interarrival"),
            premium=_parse_premium(mvals["premium"], "$.model.premium"),
            regime=_parse_regime(regime_raw, "$.model.regime"),
        )
    except DistributionError as exc:
        raise ConfigError(str(exc), "$.model") from exc
    blocks = {}
    _BLOCK_FIELDS = {
        "ruin": {"u_grid": "list", "n_paths": "int", "max_steps": "int",
                 "barrier_multiple": "number"},
        "perpetuity": {"samples": "int", "n_max": "int"},
    }
    for name, fields in _BLOCK_FIELDS.items():
        if name in top:
            blocks[name] = _take(dict(_expect_mapping(top[name], f"$.{name}")),
                                 f"$.{name}", fields, ())
    output = None
    if "output" in top:
        output = _take(dict(_expect_mapping(top["output"], "$.output")),
                       "$.output", {"path": "str"}, ("path",))
    return ExperimentConfig(model=model, seed=top.get("seed", 0),
                            blocks=blocks, output=output)


def load_experiment(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read the config: {exc.strerror}",
                          path) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}",
                          path) from exc
    return parse_experiment(doc)
