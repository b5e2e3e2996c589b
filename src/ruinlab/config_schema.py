"""Experiment configuration parsing: strict JSON schema to model objects.

``read`` reads a value against a spec: ``NUM`` (a finite number, not a
bool), ``INT``, ``STR``, a parser ``(val, path) -> value`` such as
``at_least(spec, lo)``, ``[spec]`` (a list of any length) or a tuple of
specs (a list of that length).  A law's or coefficient law's ``kind`` and a
regime's or premium's ``mode`` name a row ``(field spec, constructor)`` of
a table.  Unknown keys are rejected, ``version`` is mandatory, and every
error names its path, list elements included (``$.model.claim.atoms[0][0]``).

The option tables ``RUIN`` and ``PERPETUITY`` and the rule ``SEED`` state
each option's bound once; the command line reads its flags and
``RUINLAB_SEED`` through them too, with the flag as the path (``--u[1]``).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .distributions import Distribution
from .errors import ConfigError, DistributionError
from .model import ModelConfig, PremiumSpec, RegimeSpec
from .theta import ThetaLaw, zeta_regime_law

__all__ = ["parse_experiment", "load_experiment", "ExperimentConfig", "read",
           "at_least", "NUM", "INT", "STR", "SEED", "RUIN", "PERPETUITY"]

SCHEMA_VERSION = 1

NUM, INT, STR = "a finite number", "an integer", "a string"


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment file: model plus per-command option blocks."""

    model: ModelConfig
    seed: int
    blocks: dict
    output: dict | None

    def block(self, name: str) -> dict:
        return dict(self.blocks.get(name, {}))


def read(val, spec, path):
    """``val`` read against ``spec`` (see the module docstring)."""
    if isinstance(spec, (list, tuple)):
        exact = isinstance(spec, tuple)
        if not isinstance(val, list) or exact and len(val) != len(spec):
            raise ConfigError(f"expected a list of {len(spec)}" if exact
                              else "expected a list", path)
        out = [read(v, s, f"{path}[{i}]") for i, (v, s)
               in enumerate(zip(val, spec if exact else spec * len(val)))]
        return tuple(out) if exact else out
    if callable(spec):
        return spec(val, path)
    # JSON's true and false load as bool, which Python counts as int
    numeric = isinstance(val, (int, float)) and not isinstance(val, bool)
    # Python's json reads NaN, the infinities and integers past any float
    if not (isinstance(val, str) if spec is STR else numeric and (
            isinstance(val, int) if spec is INT
            else abs(val) <= sys.float_info.max)):
        raise ConfigError(f"expected {spec}", path)
    return val


def _fields(obj, path, spec, optional=()):
    """The fields of ``obj`` present, read in ``spec`` order; every key not
    in ``optional`` is required and no other key is allowed."""
    if not isinstance(obj, dict):
        raise ConfigError("expected an object", path)
    out = {}
    for key, field in spec.items():
        if key in obj:
            out[key] = read(obj[key], field, f"{path}.{key}")
        elif key not in optional:
            raise ConfigError("missing required field", f"{path}.{key}")
    unknown = sorted(set(obj) - set(spec))
    if unknown:
        raise ConfigError(f"unknown keys {unknown}", path)
    return out


def _build(make, vals: dict, path):
    """``make(*vals)``, its ``DistributionError`` a config error at path."""
    try:
        return make(*vals.values())
    except DistributionError as exc:
        raise ConfigError(str(exc), path) from exc


def _tagged(tag, what, table):
    """A parser for objects whose ``tag`` field names a row of ``table``."""
    def parse(obj, path):
        if not isinstance(obj, dict):
            raise ConfigError("expected an object", path)
        rest = dict(obj)
        name = rest.pop(tag, None)
        if not isinstance(name, str) or name not in table:
            raise ConfigError(f"unknown {what} {name!r}", f"{path}.{tag}")
        spec, make = table[name]
        return _build(make, _fields(rest, path, spec), path)
    return parse


_DIST = {
    "exponential": ({"rate": NUM}, Distribution.exponential),
    "gamma": ({"shape": NUM, "scale": NUM}, Distribution.gamma),
    "deterministic": ({"value": NUM}, Distribution.deterministic),
    "uniform": ({"lo": NUM, "hi": NUM}, Distribution.uniform),
    "discrete": ({"atoms": [(NUM, NUM)]}, Distribution.discrete),
    "lognormal": ({"mu": NUM, "sigma": NUM}, Distribution.lognormal),
    "pareto": ({"index": NUM, "scale": NUM}, Distribution.pareto),
}
_dist = _tagged("kind", "distribution kind", _DIST)

_THETA = {
    "point": ({"mu": NUM, "half_sigma2": NUM}, ThetaLaw.point_mass),
    "finite": ({"atoms": [((NUM, NUM), NUM)]}, ThetaLaw.finite),
    "polytope_uniform": ({"vertices": [(NUM, NUM)]},
                         ThetaLaw.polytope_uniform),
    "product": ({"mu": _dist, "half_sigma2": _dist}, ThetaLaw.product),
    "zeta": ({"p": INT}, zeta_regime_law),
}

_REGIME = {
    "none": ({}, lambda: None),
    "constant": ({"theta": _tagged("kind", "coefficient-law kind", _THETA)},
                 RegimeSpec.constant),
    "piecewise": ({"h": NUM, "mu": _dist, "sigma": _dist},
                  RegimeSpec.piecewise),
}
_regime = _tagged("mode", "regime mode", _REGIME)

_PREMIUM = {
    "zero": ({}, PremiumSpec),
    "constant": ({"c": NUM}, PremiumSpec),
    "exponential_decay": ({"c1": NUM, "gamma_rate": NUM}, PremiumSpec),
}

_MODEL = {
    "claim": _dist, "interarrival": _dist,
    "premium": _tagged("mode", "premium mode", _PREMIUM),
    # an absent or null regime is the no-investment baseline
    "regime": lambda val, path: None if val is None else _regime(val, path),
}


def _version(val, path):
    if read(val, INT, path) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported version {val}", path)
    return val


def at_least(spec, lo, strict=False):
    """A parser for values of ``spec`` that are >= ``lo`` (> if strict)."""
    def parse(val, path):
        val = read(val, spec, path)
        if val < lo or strict and val == lo:
            raise ConfigError(f"expected {spec} {'>' if strict else '>='} "
                              f"{lo}", path)
        return val
    return parse


def _reserves(val, path):
    """A reserve grid: numbers >= 0, each above the one before."""
    grid = read(val, [at_least(NUM, 0)], path)
    for i in range(1, len(grid)):
        read(grid[i], at_least(NUM, grid[i - 1], strict=True), f"{path}[{i}]")
    return grid


SEED = at_least(INT, 0)                 # as numpy's generators take
RUIN = {"u_grid": _reserves, "n_paths": at_least(INT, 100),
        "max_steps": at_least(INT, 1),
        "barrier_multiple": at_least(NUM, 0, strict=True)}
PERPETUITY = {"samples": at_least(INT, 10_000), "n_max": at_least(INT, 1)}


def _block(spec):
    return lambda val, path: _fields(val, path, spec, optional=spec)


_TOP = {
    "version": _version, "seed": SEED,
    "model": lambda val, path: _build(
        ModelConfig, _fields(val, path, _MODEL, optional=("regime",)), path),
    "ruin": _block(RUIN), "perpetuity": _block(PERPETUITY),
    "output": lambda val, path: _fields(val, path, {"path": STR}),
}


def parse_experiment(doc: dict) -> ExperimentConfig:
    top = _fields(doc, "$", _TOP, optional=set(_TOP) - {"version", "model"})
    blocks = {k: top[k] for k in ("ruin", "perpetuity") if k in top}
    return ExperimentConfig(top["model"], top.get("seed", 0), blocks,
                            top.get("output"))


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
