"""The four benchmark workloads: inputs, one timed pass, and output checks.

Each workload builds its inputs from the seed, runs one *pass* (a fixed set
of calls into ruinlab's public entry points, always with ``workers=1``),
checks the pass's outputs, and counts operations attempted and failed.  All
calls go through module attributes (``ruin.estimate_psi_grid``, ...), so the
tracer's wrappers see them.  See ``bench/README.md`` for why each workload
was chosen.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from ruinlab import lundberg, perpetuity, ruin, validate
from ruinlab.config_schema import load_experiment, parse_experiment
from ruinlab.engine import DEFAULT_CHUNK_SIZE

__all__ = ["Check", "PassResult", "Workload", "WORKLOADS", "make_workload"]

# Agreement checks against a Monte Carlo reference use this many combined
# standard errors per grid point.  With four grid points per check, 3 would
# fail about one run in a hundred on correct code; 4 keeps that below one in
# a thousand while still flagging a bias of a few per cent at u <= 100.
Z_CHECK = 4.0

U_BETA2 = (10.0, 30.0, 100.0, 300.0)
# psi_hat on configs/beta2.json from 1e6 paths at seed 42 (test_output.txt).
REF_PSI = (0.911272, 0.441934, 0.076647, 0.010368)
REF_PATHS = 1_000_000

U_CLASSICAL = (0.0, 1.0, 2.0, 4.0)
U_RW = (2.0, 5.0, 10.0, 30.0)
ZETA_P = (2, 3, 4, 5)
BETA_ZETA2 = 0.4088098928
# Steps (or perpetuity terms) of the full-width warm-up calls.
WARMUP_STEPS = 8


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""

    def __post_init__(self):
        self.ok = bool(self.ok)        # numpy comparisons give np.bool_


@dataclass
class PassResult:
    """Outputs and call timings of one pass."""

    outputs: Dict[str, np.ndarray]
    calls_s: Dict[str, float]
    wall_s: float = 0.0
    extra: Dict[str, object] = field(default_factory=dict)

    def digest(self) -> str:
        """sha256 over the exact bytes of every numeric output, in name order."""
        h = hashlib.sha256()
        for name in sorted(self.outputs):
            arr = np.ascontiguousarray(self.outputs[name], dtype=np.float64)
            h.update(name.encode())
            h.update(arr.tobytes())
        return h.hexdigest()


def _arr(values) -> np.ndarray:
    return np.asarray([float("nan") if v is None else v for v in values],
                      dtype=np.float64)


def _timed(calls: Dict[str, float], name: str, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    calls[name] = calls.get(name, 0.0) + time.perf_counter() - t0
    return out


def _binom_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


class Workload:
    """One workload; subclasses fix the pass, its checks and its rates."""

    name = ""
    config_file = "configs/beta2.json"   # loaded by the set-up measurement
    main_rate = "paths_per_s"            # the rates() key gated as work_per_s

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = int(seed)
        self.beta2 = load_experiment(str(root / "configs/beta2.json")).model

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def warmup(self) -> None:
        """Call every entry point untimed, at full width where it can.

        A full-width call cut short after ``WARMUP_STEPS`` steps allocates
        the pass's largest arrays once, so glibc malloc has tuned its
        thresholds to them before the first timed pass, and every pass of a
        process runs in the same allocator state.
        """
        raise NotImplementedError

    def checks(self, res: PassResult) -> List[Check]:
        raise NotImplementedError

    def operations(self, res: PassResult) -> Tuple[int, int]:
        """(attempted, failed) operations of one pass."""
        raise NotImplementedError

    def rates(self, res: PassResult) -> Dict[str, Tuple[float, str]]:
        """Workload-specific end-to-end figures of one pass, with units.

        The figure named by ``main_rate`` is reported as ``work_per_s``.
        """
        raise NotImplementedError


# -- ruin_beta2 ---------------------------------------------------------------------

class RuinBeta2(Workload):
    """Kernel-bound coupled chain on beta2, Brownian bridge included."""

    name = "ruin_beta2"
    n_paths = DEFAULT_CHUNK_SIZE

    def warmup(self) -> None:
        ruin.estimate_psi_grid(U_BETA2, self.beta2, self.n_paths,
                               max_steps=WARMUP_STEPS, seed=self.seed)

    def run_pass(self) -> PassResult:
        calls: Dict[str, float] = {}
        ests = _timed(calls, "chain", ruin.estimate_psi_grid, U_BETA2,
                      self.beta2, self.n_paths, seed=self.seed)
        return PassResult(outputs={
            "psi_hat": _arr(e.psi_hat for e in ests),
            "ci_halfwidth": _arr(e.ci_halfwidth for e in ests),
            "censored": _arr(e.censored_fraction for e in ests)}, calls_s=calls)

    def checks(self, res: PassResult) -> List[Check]:
        psi = res.outputs["psi_hat"]
        out = [Check("psi_finite", bool(np.all(np.isfinite(psi)))),
               Check("psi_nonincreasing", bool(np.all(np.diff(psi) <= 0.0)))]
        for u, p, ref in zip(U_BETA2, psi, REF_PSI):
            se = math.hypot(_binom_se(ref, REF_PATHS), _binom_se(p, self.n_paths))
            z = abs(p - ref) / se
            out.append(Check(f"psi_ref_u{u:g}", z <= Z_CHECK, f"z={z:.2f}"))
        return out

    def operations(self, res: PassResult) -> Tuple[int, int]:
        censored = int(round(float(np.sum(res.outputs["censored"]))
                             * self.n_paths))
        return self.n_paths * len(U_BETA2), censored

    def rates(self, res: PassResult) -> Dict[str, Tuple[float, str]]:
        t = res.calls_s["chain"]
        psi = float(res.outputs["psi_hat"][-1])
        hw = float(res.outputs["ci_halfwidth"][-1])
        rel = hw / psi if psi > 0 else math.inf
        return {"paths_per_s": (self.n_paths / t, "1/s"),
                "t_rel10_u300_s": (t * (rel / 0.1) ** 2, "s")}


# -- ruin_classical -------------------------------------------------------------------

class RuinClassical(Workload):
    """No-investment chain against classical_psi, plus the log-return walk.

    Neither draws a bridge, so this is the bypass for bridge work.
    """

    name = "ruin_classical"
    n_paths = DEFAULT_CHUNK_SIZE
    n_walks = 2 * DEFAULT_CHUNK_SIZE
    barrier_multiple = 100.0

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.classical = validate.classical_config(2.0)

    def warmup(self) -> None:
        ruin.estimate_psi_grid(U_CLASSICAL, self.classical, self.n_paths,
                               max_steps=WARMUP_STEPS,
                               barrier_multiple=self.barrier_multiple,
                               seed=self.seed)
        ruin.rw_max_diagnostic(self.beta2, U_RW, self.n_walks,
                               max_steps=WARMUP_STEPS, seed=self.seed)

    def chain(self, workers: int = 1, chunk_size: int = DEFAULT_CHUNK_SIZE):
        return ruin.estimate_psi_grid(U_CLASSICAL, self.classical, self.n_paths,
                                      barrier_multiple=self.barrier_multiple,
                                      seed=self.seed, workers=workers,
                                      chunk_size=chunk_size)

    def run_pass(self) -> PassResult:
        calls: Dict[str, float] = {}
        ests = _timed(calls, "chain", self.chain)
        diag = _timed(calls, "rw", ruin.rw_max_diagnostic, self.beta2, U_RW,
                      self.n_walks, seed=self.seed + 1)
        return PassResult(outputs={
            "psi_hat": _arr(e.psi_hat for e in ests),
            "ci_halfwidth": _arr(e.ci_halfwidth for e in ests),
            "censored": _arr(e.censored_fraction for e in ests),
            "rw_p_hat": _arr(d["p_hat"] for d in diag)}, calls_s=calls)

    def checks(self, res: PassResult) -> List[Check]:
        out = []
        for u, p, hw in zip(U_CLASSICAL, res.outputs["psi_hat"],
                            res.outputs["ci_halfwidth"]):
            exact = ruin.classical_psi(1.0, 1.0, 2.0, u).value
            miss = abs(p - exact) / hw
            out.append(Check(f"classical_u{u:g}", miss <= 3.0,
                             f"halfwidths={miss:.2f}"))
        p = res.outputs["rw_p_hat"]
        if np.all(p > 0):
            slope = float(np.polyfit(np.log(U_RW), np.log(p), 1)[0])
            out.append(Check("rw_slope", abs(slope + 2.0) <= 0.4,
                             f"slope={slope:.3f}"))
        else:
            out.append(Check("rw_slope", False, "zero exceedance count"))
        return out

    def operations(self, res: PassResult) -> Tuple[int, int]:
        censored = int(round(float(np.sum(res.outputs["censored"]))
                             * self.n_paths))
        return self.n_paths * len(U_CLASSICAL) + self.n_walks, censored

    def rates(self, res: PassResult) -> Dict[str, Tuple[float, str]]:
        return {"paths_per_s": (self.n_paths / res.calls_s["chain"], "1/s"),
                "walks_per_s": (self.n_walks / res.calls_s["rw"], "1/s")}


# -- perpetuity_beta2 ----------------------------------------------------------------

class PerpetuityBeta2(Workload):
    """R via sample_nu, R_bar via the kernel, KS and Goldie on beta2."""

    name = "perpetuity_beta2"
    main_rate = "r_samples_per_s"
    n_r = DEFAULT_CHUNK_SIZE
    n_rbar = DEFAULT_CHUNK_SIZE // 8
    alpha = 2.0                           # beta of configs/beta2.json

    def warmup(self) -> None:
        sampler = perpetuity.model_pair_sampler(self.beta2)
        vals = perpetuity.sample_R_values(sampler, self.n_r, seed=self.seed,
                                          n_max=WARMUP_STEPS).values
        perpetuity.sample_Rbar_values(self.beta2, self.n_rbar, seed=self.seed,
                                      n_max=WARMUP_STEPS)
        perpetuity.ks_fixed_point(vals, sampler, self.seed)
        perpetuity.goldie_constant(vals, sampler, self.alpha, self.seed)

    def run_pass(self) -> PassResult:
        calls: Dict[str, float] = {}
        sampler = perpetuity.model_pair_sampler(self.beta2)
        r = _timed(calls, "r", perpetuity.sample_R_values, sampler, self.n_r,
                   seed=self.seed)
        rbar = _timed(calls, "rbar", perpetuity.sample_Rbar_values, self.beta2,
                      self.n_rbar, seed=self.seed + 1)
        vals = r.converged_values()
        ks = _timed(calls, "ks", perpetuity.ks_fixed_point, vals, sampler,
                    self.seed + 2)
        goldie = _timed(calls, "goldie", perpetuity.goldie_constant, vals,
                        sampler, self.alpha, self.seed + 3)
        return PassResult(outputs={
            "r_values": r.values, "r_terms": r.n_terms.astype(np.float64),
            "r_converged": r.converged.astype(np.float64),
            "rbar_values": rbar.values,
            "rbar_terms": rbar.n_terms.astype(np.float64),
            "rbar_converged": rbar.converged.astype(np.float64),
            "ks": _arr([ks]), "goldie": _arr([goldie.c_hat, goldie.stderr])},
            calls_s=calls)

    def checks(self, res: PassResult) -> List[Check]:
        ks = float(res.outputs["ks"][0])
        out = [Check("ks_fixed_point", ks <= 0.02, f"ks={ks:.4f}")]
        r = res.outputs["r_values"][res.outputs["r_converged"] > 0]
        rbar = res.outputs["rbar_values"]
        for u, ref in zip(U_BETA2, REF_PSI):
            p_up = float(np.mean(r > u))
            p_lo = float(np.mean(rbar > u))
            se_ref = _binom_se(ref, REF_PATHS)
            z_up = (ref - p_up) / math.hypot(se_ref, _binom_se(p_up, len(r)))
            z_lo = (p_lo - ref) / math.hypot(se_ref,
                                             _binom_se(p_lo, len(rbar)))
            out.append(Check(f"sandwich_u{u:g}", z_up <= Z_CHECK and
                             z_lo <= Z_CHECK,
                             f"P(Rbar>u)={p_lo:.4f} psi={ref:.4f} "
                             f"P(R>u)={p_up:.4f} z_lo={z_lo:.2f} "
                             f"z_up={z_up:.2f}"))
        return out

    def operations(self, res: PassResult) -> Tuple[int, int]:
        failed = int(np.sum(res.outputs["r_converged"] == 0)
                     + np.sum(res.outputs["rbar_converged"] == 0))
        return self.n_r + self.n_rbar, failed

    def rates(self, res: PassResult) -> Dict[str, Tuple[float, str]]:
        return {"r_samples_per_s": (self.n_r / res.calls_s["r"], "1/s"),
                "rbar_samples_per_s": (self.n_rbar / res.calls_s["rbar"],
                                       "1/s")}


# -- lundberg_zeta --------------------------------------------------------------------

VERDICT_CODE = {"endpoint_finite": 0.0, "endpoint_infinite": 1.0}


class LundbergZeta(Workload):
    """Analytic exponent and endpoint verdicts on the zeta family.

    No Monte Carlo, so this is the bypass for all kernel work.
    """

    name = "lundberg_zeta"
    config_file = "configs/golden.json"
    main_rate = "reports_per_s"

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        with open(root / self.config_file) as fh:
            doc = json.load(fh)
        self.models = {}
        for p in ZETA_P:
            doc["model"]["regime"]["theta"] = {"kind": "zeta", "p": p}
            self.models[p] = parse_experiment(doc).model

    def analyse(self, p: int, calls: Dict[str, float]):
        cfg = self.models[p]
        report = _timed(calls, "report", lundberg.lundberg_report, cfg,
                        tol=1e-10, seed=self.seed)
        q_tau = cfg.interarrival_dist.mgf_endpoint().q_max
        geom = lundberg.q_plus_compute(cfg.regime.theta, q_tau)
        verdict = lundberg.classify_endpoint(geom, cfg.interarrival_dist,
                                             delta=q_tau / 2.0)
        return report, geom, verdict

    def warmup(self) -> None:
        self.analyse(ZETA_P[-1], {})

    def run_pass(self) -> PassResult:
        calls: Dict[str, float] = {}
        rows = []
        verdicts = []
        for p in ZETA_P:
            report, geom, verdict = self.analyse(p, calls)
            verdicts.append((verdict.verdict, verdict.inconclusive))
            rows.append([report.beta, report.q_nu, report.phi_at_endpoint,
                         geom.q_plus, verdict.integral_value,
                         VERDICT_CODE.get(verdict.verdict, -1.0),
                         float(verdict.inconclusive)])
        return PassResult(outputs={"reports": _arr(v for row in rows
                                                   for v in row)},
                          calls_s=calls, extra={"verdicts": verdicts,
                                                "beta": [r[0] for r in rows]})

    def checks(self, res: PassResult) -> List[Check]:
        out = []
        for p, (verdict, inconclusive) in zip(ZETA_P, res.extra["verdicts"]):
            want = "endpoint_infinite" if p == 2 else "endpoint_finite"
            out.append(Check(f"verdict_p{p}", verdict == want and
                             not inconclusive, verdict))
        beta = res.extra["beta"][0]
        err = math.inf if beta is None else abs(beta - BETA_ZETA2)
        out.append(Check("beta_p2", err <= 1e-8, f"beta={beta}"))
        return out

    def operations(self, res: PassResult) -> Tuple[int, int]:
        return len(ZETA_P), sum(1 for _, inc in res.extra["verdicts"] if inc)

    def rates(self, res: PassResult) -> Dict[str, Tuple[float, str]]:
        return {"reports_per_s": (len(ZETA_P) / res.calls_s["report"], "1/s")}


WORKLOADS = {w.name: w for w in (RuinBeta2, RuinClassical, PerpetuityBeta2,
                                 LundbergZeta)}


def make_workload(name: str, root: Path, seed: int) -> Workload:
    return WORKLOADS[name](root, seed)
