"""Command-line experiment runner.

Subcommands: ``lundberg``, ``ruin``, ``perpetuity``, ``simulate``, and
``validate``.  Each reads a JSON experiment file, runs the named analysis,
writes deterministic artifacts (identical bytes for identical config, seed,
and chunk size), and prints a one-line summary to stderr.  Hypothesis
violations exit nonzero with a machine-readable error JSON on stdout.

The environment variable ``RUINLAB_SEED`` overrides the config seed; the
``--seed`` flag overrides both.  ``lundberg`` is deterministic and
``validate`` runs each acceptance criterion at its own fixed seed, so
neither takes a seed.
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
from .config_schema import load_experiment
from .errors import ConfigError, HypothesisViolation, RuinlabError
from .engine import REL_TOL, StepKernel
from .model import RngStreams
from .ruin import barrier_level, bounds_check, estimate_psi_grid, fit_tail
# lundberg and validate load scipy: the commands that use them import them

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3
EXIT_FAILED = 1


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


def _resolve_seed(args, exp) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("RUINLAB_SEED")
    if env is not None:
        return int(env)
    return exp.seed


def _out_base(args, exp) -> Optional[str]:
    if args.out:
        return args.out
    if exp.output:
        return exp.output["path"]
    return None


def _intish(s: str) -> int:
    return int(float(s))


def cmd_lundberg(args) -> int:
    from .lundberg import lundberg_report
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
    paths on an estimate that converges to 1."""
    if model.has_investment:
        model.require_positive_drift()
        return
    prem = model.premium
    load = model.claim_dist.mean() - prem.c * model.interarrival_dist.mean()
    if prem.gamma_rate < 0.0:
        why = f"a decaying premium pays {prem.c / -prem.gamma_rate:.6g} in total"
    elif load >= 0:
        why = f"mean claim outflow exceeds premium inflow by {load:.6g} per interval"
    else:
        return
    raise HypothesisViolation("safety_loading", f"{why}; ruin is certain")


def cmd_ruin(args) -> int:
    exp = load_experiment(args.config)
    _check_ruin_hypotheses(exp.model)
    block = exp.block("ruin")
    grid = ([float(x) for x in args.u.split(",")] if args.u
            else [float(x) for x in block.get("u_grid", [10, 30, 100, 300])])
    paths_flag = args.paths is not None
    n_paths = args.paths if paths_flag else block.get("n_paths", 100_000)
    if any(u < 0 for u in grid):
        raise ConfigError("initial reserves must be >= 0",
                          "--u" if args.u else "$.ruin.u_grid")
    if n_paths < 100:
        raise ConfigError("need at least 100 paths",
                          "--paths" if paths_flag else "$.ruin.n_paths")
    max_steps = block.get("max_steps", 10_000)
    barrier_multiple = block.get("barrier_multiple", 1_000.0)
    if max_steps < 1:
        raise ConfigError("need at least 1 step", "$.ruin.max_steps")
    if barrier_multiple <= 0:
        raise ConfigError("the barrier multiple must be > 0",
                          "$.ruin.barrier_multiple")
    seed = _resolve_seed(args, exp)
    ests = estimate_psi_grid(grid, exp.model, n_paths, max_steps=max_steps,
                             barrier_multiple=barrier_multiple, seed=seed,
                             workers=args.workers)
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
    from .lundberg import lundberg_report
    exp = load_experiment(args.config)
    block = exp.block("perpetuity")
    samples_flag = args.samples is not None
    n = args.samples if samples_flag else block.get("samples", 100_000)
    if n < 10_000:
        raise ConfigError(
            "need at least 10,000 samples for the KS check",
            "--samples" if samples_flag else "$.perpetuity.samples")
    n_max = block.get("n_max", perp.DEFAULT_N_MAX)
    if n_max < 1:
        raise ConfigError("need at least 1 term", "$.perpetuity.n_max")
    seed = _resolve_seed(args, exp)
    cfg = exp.model
    report = lundberg_report(cfg)
    if report.beta is None:
        raise HypothesisViolation(
            "mean_drift_positive",
            "no decay exponent exists for this configuration; the "
            "perpetuity tail constant is undefined")
    sampler = perp.model_pair_sampler(cfg)
    batch = perp.sample_R_values(sampler, n, seed=seed, workers=args.workers,
                                 n_max=n_max)
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
    if args.u < 0 or args.steps < 1 or args.barrier <= 1:
        raise ConfigError("need --u >= 0, --steps >= 1 and --barrier > 1")
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
    from .validate import run_suite
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
            p.add_argument("--seed", type=int, default=None)
        if workers:
            p.add_argument("--workers", type=int,
                           default=max(1, os.cpu_count() or 1))

    p = sub.add_parser("lundberg", help="decay-exponent report")
    common(p, seed=False, workers=False)
    p.set_defaults(fn=cmd_lundberg)

    p = sub.add_parser("ruin", help="Monte Carlo ruin probabilities")
    common(p)
    p.add_argument("--u", default=None, help="comma-separated reserve grid")
    p.add_argument("--paths", type=_intish, default=None)
    p.add_argument("--beta", type=float, default=None,
                   help="exponent for the ratio bounds check")
    p.add_argument("--emit-plot-data", default=None, metavar="PATH")
    p.set_defaults(fn=cmd_ruin)

    p = sub.add_parser("perpetuity", help="perpetuity fixed point and tail")
    common(p)
    p.add_argument("--samples", type=_intish, default=None)
    p.set_defaults(fn=cmd_perpetuity)

    p = sub.add_parser(
        "simulate", help="dump one kernel path of the reserve at claim "
                         "times until ruin, the barrier or the step cap")
    common(p, out=False, workers=False)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--barrier", type=float, default=1_000.0)
    p.add_argument("--dump", default=None, metavar="PATH")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("validate", help="run an acceptance suite")
    p.add_argument("--suite", choices=("quick", "full"), default="quick")
    p.add_argument("--workers", type=int, default=max(1, os.cpu_count() or 1))
    p.set_defaults(fn=cmd_validate)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
