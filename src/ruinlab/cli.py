"""Command-line experiment runner.

Subcommands: ``lundberg``, ``ruin``, ``perpetuity``, ``simulate``, and
``validate``.  Each reads a JSON experiment file, runs the named analysis,
writes deterministic artifacts (identical bytes for identical config, seed,
and chunk size), and prints a one-line summary to stderr.  Hypothesis
violations exit nonzero with a machine-readable error JSON on stdout.

The environment variable ``RUINLAB_SEED`` overrides the config seed; the
``--seed`` flag overrides both.  ``lundberg`` is deterministic and
``validate`` runs each acceptance criterion at its own fixed seed, so
neither takes a seed.  Flags and ``RUINLAB_SEED`` are read through the
schema's option specs, so a bad value exits 2 naming the flag (``--u[1]``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import perpetuity as perp
from .config_schema import (INT, NUM, PERPETUITY, RUIN, SEED, at_least,
                            load_experiment, read)
from .errors import ConfigError, HypothesisViolation, RuinlabError
from .engine import REL_TOL, StepKernel
from .lundberg import lundberg_report
from .model import RngStreams
from .ruin import barrier_level, bounds_check, estimate_psi_grid, fit_tail
from .validate import run_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_FAILED = 1
WORKERS = at_least(INT, 1)


def _jsonable(obj):
    """``obj`` with numpy values made plain and non-finite floats spelled
    "inf", "-inf" or "nan": standard JSON has no such numbers."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    finite = not isinstance(obj, float) or math.isfinite(obj)
    return obj if finite else str(obj)


def _dump_json(doc, path: Optional[str]):
    text = json.dumps(_jsonable(doc), sort_keys=True, indent=2,
                      allow_nan=False)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(rows: List[List], header: List[str], path: Optional[str]):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _scalar(text: str):
    """``text`` as an int where integral (``1e6``), else a float or itself."""
    try:
        return int(text)
    except ValueError:
        try:
            x = float(text)
        except ValueError:
            return text
    return int(x) if x.is_integer() else x


def _add(p, name, spec, split=False, **kw):
    """Add flag ``name``, read through ``spec`` with the flag as the path."""
    def parse(text):
        val = [_scalar(x) for x in text.split(",")] if split else _scalar(text)
        return read(val, spec, name)
    p.add_argument(name, type=parse, **kw)


def _resolve_seed(args, exp) -> int:
    """``--seed``, else ``RUINLAB_SEED``, else the config's seed."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("RUINLAB_SEED")
    return exp.seed if env is None else read(_scalar(env), SEED,
                                             "RUINLAB_SEED")


def _override(block: dict, **flags) -> dict:
    """``block`` with every flag given on the command line in its key."""
    return {**block, **{k: v for k, v in flags.items() if v is not None}}


def _out_base(args, exp) -> Optional[str]:
    return args.out or (exp.output or {}).get("path")


def cmd_lundberg(args) -> int:
    exp = load_experiment(args.config)
    report = lundberg_report(exp.model)
    doc = report.to_dict()
    if report.geometry is not None:
        doc["q_plus"] = report.geometry.q_plus
        doc["touching_points"] = [list(p)
                                  for p in report.geometry.touching_points]
        doc["endpoint_verdict"] = ("endpoint_infinite"
                                   if report.phi_at_endpoint == math.inf
                                   else "endpoint_finite")
    _dump_json(doc, _out_base(args, exp))
    beta = "none" if report.beta is None else f"{report.beta:.10g}"
    print(f"lundberg: beta={beta} q_nu={report.q_nu:.6g} "
          f"status={report.status}", file=sys.stderr)
    return EXIT_OK


def _check_ruin_hypotheses(model):
    """Certain-ruin regimes exit with a named violation instead of burning
    paths on an estimate that converges to 1.  Without investment ruin is
    certain when claims are not a.s. 0 and either the premium decays, so
    it pays a finite total, or E xi >= c E tau while the increment
    zeta = c tau - xi is not a.s. 0."""
    if model.has_investment:
        model.require_positive_drift()
        return
    prem, claim, tau = model.premium, model.claim_dist, model.interarrival_dist
    if claim.support() == (0.0, 0.0):
        return                          # no claims: the reserve never falls
    t_lo, t_hi = tau.support()
    zeta_zero = t_lo == t_hi and claim.support() == (prem.c * t_lo,) * 2
    load = claim.mean() - prem.c * tau.mean()
    if prem.gamma_rate < 0.0:
        why = f"a decaying premium pays {prem.c / -prem.gamma_rate:.6g} in total"
    elif load >= 0 and not zeta_zero:
        why = (f"mean claim outflow minus premium inflow is {load:.6g} >= 0 "
               "per interval")
    else:
        return
    raise HypothesisViolation("safety_loading", f"{why}; ruin is certain")


def cmd_ruin(args) -> int:
    exp = load_experiment(args.config)
    _check_ruin_hypotheses(exp.model)
    opts = _override(exp.block("ruin"), u_grid=args.u, n_paths=args.paths)
    grid = opts.pop("u_grid", [10, 30, 100, 300])
    n_paths = opts.pop("n_paths", 100_000)
    seed = _resolve_seed(args, exp)
    ests = estimate_psi_grid(grid, exp.model, n_paths, seed=seed,
                             workers=args.workers, **opts)
    base = _out_base(args, exp)
    rows = [[e.u, e.psi_hat, e.ci_halfwidth, e.censored_fraction,
             e.non_finite_fraction] for e in ests]
    _write_csv(rows, ["u", "psi_hat", "ci_halfwidth", "censored_fraction",
                      "non_finite_fraction"], f"{base}.csv" if base else None)
    doc = {}
    positive = [e for e in ests if e.psi_hat > 0]
    if len(ests) >= 4 and len(positive) >= 2:
        fit = fit_tail(ests)
        doc["tail_fit"] = {
            "slope": fit.slope, "slope_stderr": fit.slope_stderr,
            "intercept": fit.intercept, "r_squared": fit.r_squared,
            "u_grid": list(fit.u_grid)}
        doc["summary"] = f"slope={fit.slope:.4f}"
    if positive and args.beta is not None:
        bc = bounds_check(args.beta, ests)
        doc["bounds_check"] = {"ratio_min": bc.ratio_min,
                               "ratio_max": bc.ratio_max, "spread": bc.spread}
    if doc:
        _dump_json(doc, f"{base}_tailfit.json" if base else None)
    if args.emit_plot_data:
        rows = [[math.log(e.u), math.log(e.psi_hat)]
                for e in ests if e.psi_hat > 0]
        _write_csv(rows, ["log_u", "log_psi_hat"], args.emit_plot_data)
    print(f"ruin: {len(grid)} levels x {n_paths} paths, seed={seed}",
          file=sys.stderr)
    return EXIT_OK


def cmd_perpetuity(args) -> int:
    exp = load_experiment(args.config)
    opts = _override(exp.block("perpetuity"), samples=args.samples)
    n = opts.pop("samples", 100_000)
    seed = _resolve_seed(args, exp)
    report = lundberg_report(exp.model)
    if report.beta is None:
        raise HypothesisViolation(
            "decay_exponent",
            "no decay exponent exists for this configuration; the "
            "perpetuity tail constant is undefined")
    sampler = perp.model_pair_sampler(exp.model)
    batch = perp.sample_R_values(sampler, n, seed=seed, workers=args.workers,
                                 **opts)
    vals = batch.converged_values()
    ks = perp.ks_fixed_point(vals[: max(10_000, min(len(vals), 200_000))],
                             sampler, seed + 1)
    goldie = perp.goldie_constant(vals, sampler, report.beta, seed + 2)
    slope = _tail_slope(vals)
    doc = {"beta_used": report.beta, "c_hat": goldie.c_hat,
           "stderr": goldie.stderr, "ks": ks, "tail_slope": slope,
           "n_samples": int(len(vals)), "discard_rate": batch.discard_rate,
           "non_finite": int(np.count_nonzero(batch.non_finite)),
           "rel_tol": REL_TOL, "mean_terms": float(np.mean(batch.n_terms))}
    _dump_json(doc, _out_base(args, exp))
    print(f"perpetuity: beta={report.beta:.6g} c_hat={goldie.c_hat:.6g} "
          f"ks={ks:.4f}", file=sys.stderr)
    return EXIT_OK


def _tail_slope(values: np.ndarray, n_points: int = 8) -> float:
    """Log-log slope of the empirical tail over a geometric level grid."""
    lo = float(np.quantile(values, 0.5))
    hi = float(np.quantile(values, 0.999))
    grid = np.geomspace(max(lo, 1e-12), hi, n_points)
    tail = np.array([(values > u).mean() for u in grid])
    keep = tail > 0
    return float(np.polyfit(np.log(grid[keep]), np.log(tail[keep]), 1)[0])


def cmd_simulate(args) -> int:
    """One kernel path, S <- exp(-nu) S + zeta, until ruin, barrier or cap."""
    exp = load_experiment(args.config)
    kernel = StepKernel(exp.model)
    streams = RngStreams.from_seed(_resolve_seed(args, exp))
    barrier = barrier_level(args.u, exp.model, args.barrier)
    s, t, reason = args.u, np.zeros(1), "max_steps"
    rows = [[0, s, "", "", ""]]
    for n in range(1, args.steps + 1):
        blk = kernel.sample(streams, 1, t_start=t)
        claim, nu = float(blk.claim[0]), float(blk.nu[0])
        zeta = -claim if blk.premium is None else float(blk.premium[0]) - claim
        lam = math.exp(-nu)
        s = lam * s + zeta
        t += blk.tau
        rows.append([n, s, lam, zeta, nu])
        if s < 0.0 or s > barrier:
            reason = "ruin" if s < 0.0 else "barrier"
            break
    _write_csv(rows, ["n", "s_n", "lambda_n", "zeta_n", "nu_n"], args.dump)
    print(f"simulate: stopped by {reason} after {len(rows) - 1} steps",
          file=sys.stderr)
    return EXIT_OK


def cmd_validate(args) -> int:
    results = run_suite(args.suite, workers=args.workers)
    failed = [r for r in results if not r.passed]
    print(f"validate: {len(results) - len(failed)}/{len(results)} criteria "
          f"passed", file=sys.stderr)
    return EXIT_OK if not failed else EXIT_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ruinlab",
        description="Ruin-probability numerics for randomly switched "
                    "geometric-Brownian investment returns")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, out=True, seed=True, workers=True):
        p.add_argument("--config", required=True, help="experiment JSON")
        if out:
            p.add_argument("--out", default=None, help="output path base")
        if seed:
            _add(p, "--seed", SEED)
        if workers:
            _add(p, "--workers", WORKERS)

    p = sub.add_parser("lundberg", help="decay-exponent report")
    common(p, seed=False, workers=False)
    p.set_defaults(fn=cmd_lundberg)

    p = sub.add_parser("ruin", help="Monte Carlo ruin probabilities")
    common(p)
    _add(p, "--u", RUIN["u_grid"], split=True,
         help="comma-separated reserve grid")
    _add(p, "--paths", RUIN["n_paths"])
    _add(p, "--beta", NUM, help="exponent for the ratio bounds check")
    p.add_argument("--emit-plot-data", default=None, metavar="PATH")
    p.set_defaults(fn=cmd_ruin)

    p = sub.add_parser("perpetuity", help="perpetuity fixed point and tail")
    common(p)
    _add(p, "--samples", PERPETUITY["samples"])
    p.set_defaults(fn=cmd_perpetuity)

    p = sub.add_parser(
        "simulate", help="dump one kernel path of the reserve at claim "
                         "times until ruin, the barrier or the step cap")
    common(p, out=False, workers=False)
    _add(p, "--u", at_least(NUM, 0), required=True)
    _add(p, "--steps", at_least(INT, 1), default=100)
    _add(p, "--barrier", at_least(NUM, 1, strict=True), default=1_000.0)
    p.add_argument("--dump", default=None, metavar="PATH")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("validate", help="run an acceptance suite")
    p.add_argument("--suite", choices=("quick", "full"), default="quick")
    _add(p, "--workers", WORKERS)
    p.set_defaults(fn=cmd_validate)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        _dump_json({"error": "config", "field": exc.field, "message": str(exc)},
                   None)
        return EXIT_CONFIG
    except HypothesisViolation as exc:
        _dump_json(exc.payload(), None)
        return EXIT_HYPOTHESIS
    except RuinlabError as exc:
        _dump_json({"error": type(exc).__name__, "message": str(exc)}, None)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
