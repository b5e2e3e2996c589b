"""Per-layer metrics of a traced pass, the kernel probe and the pool check.

Layers are ruinlab's modules: ``engine`` (StepKernel and run_chunked),
``ruin``, ``perpetuity``, ``lundberg``, ``theta`` and ``distributions``.  A
layer a workload does not call reports zero calls and zero time.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Tuple

import numpy as np

from ruinlab.engine import DEFAULT_PREMIUM_NODES, StepKernel
from ruinlab.model import RngStreams

from spans import Tracer
from workloads import PassResult, RuinClassical, Workload

__all__ = ["layer_metrics", "kernel_probe", "pool_check"]


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def _rows_under(tr: Tracer, top: str) -> int:
    return sum(s.rows for s in tr.under("engine.sample", top))


def layer_metrics(tr: Tracer, res: PassResult) -> Dict[str, float]:
    """Every per-layer metric that a traced pass determines."""
    out = res.outputs
    m: Dict[str, float] = {}

    row_steps = tr.rows("engine.sample")
    m["engine.row_steps"] = row_steps
    m["engine.lockstep_steps"] = tr.count("engine.sample")
    m["engine.compactions"] = tr.compactions()
    m["engine.sample_s"] = tr.self_s("engine.sample")
    m["engine.ns_per_row_step"] = _per(m["engine.sample_s"] * 1e9, row_steps)
    m["engine.live_row_frac"] = tr.live_row_frac()

    estimate = "ruin.estimate_psi_grid"
    rw = "ruin.rw_max_diagnostic"
    m["ruin.estimate_s"] = tr.total_s(estimate)
    m["ruin.loop_self_s"] = m["ruin.estimate_s"] - sum(
        s.duration for s in tr.under("engine.sample", estimate))
    paths = sum(s.rows for s in tr.spans if s.name == "engine.chunk"
                and tr.ancestor(s, (estimate,)))
    m["ruin.steps_per_path"] = _per(_rows_under(tr, estimate), paths)
    if "censored" in out:
        m["ruin.censored_frac"] = float(np.mean(out["censored"]))
    else:
        m["ruin.censored_frac"] = 0.0
    m["ruin.rw_s"] = tr.total_s(rw)
    walks = sum(s.rows for s in tr.spans if s.name == "engine.chunk"
                and tr.ancestor(s, (rw,)))
    m["ruin.rw_steps_per_walk"] = _per(_rows_under(tr, rw), walks)

    m["perpetuity.r_s"] = tr.total_s("perpetuity.sample_R_values")
    m["perpetuity.rbar_s"] = tr.total_s("perpetuity.sample_Rbar_values")
    m["perpetuity.r_terms_mean"] = (float(np.mean(out["r_terms"]))
                                    if "r_terms" in out else 0.0)
    m["perpetuity.rbar_terms_mean"] = (float(np.mean(out["rbar_terms"]))
                                       if "rbar_terms" in out else 0.0)
    m["perpetuity.pair_s"] = tr.total_s("perpetuity.pair_sampler")
    m["perpetuity.ks_s"] = tr.total_s("perpetuity.ks_fixed_point")
    m["perpetuity.goldie_s"] = tr.total_s("perpetuity.goldie_constant")
    if "r_converged" in out:
        conv = np.concatenate([out["r_converged"], out["rbar_converged"]])
        m["perpetuity.discard_rate"] = 1.0 - float(np.mean(conv))
    else:
        m["perpetuity.discard_rate"] = 0.0

    m["lundberg.report_s"] = tr.total_s("lundberg.lundberg_report")
    m["lundberg.phi_calls"] = tr.count("lundberg.phi_nu_analytic")
    m["lundberg.phi_ms_per_call"] = _per(
        tr.total_s("lundberg.phi_nu_analytic") * 1e3,
        m["lundberg.phi_calls"])
    m["lundberg.q_plus_s"] = tr.total_s("lundberg.q_plus_compute")
    m["lundberg.endpoint_s"] = tr.total_s("lundberg.endpoint_phi_value")
    m["lundberg.classify_s"] = tr.total_s("lundberg.classify_endpoint")
    m["lundberg.sample_nu_s"] = tr.total_s("lundberg.sample_nu")
    m["lundberg.sample_nu_rows"] = tr.rows("lundberg.sample_nu")

    m["theta.candidate_points_s"] = tr.total_s("theta.candidate_points")
    m["theta.candidate_points_calls"] = tr.count("theta.candidate_points")
    m["distributions.sample_s"] = tr.total_s("distributions.sample")
    m["distributions.sample_rows"] = tr.rows("distributions.sample")
    m["trace.spans"] = len(tr.spans)
    return m


def kernel_probe(wl: Workload, n: int = 1 << 16, warm: int = 3,
                 repeats: int = 7) -> Dict[str, float]:
    """Median time of one n-row kernel step on beta2, split by phase.

    ``full`` draws claims and so the premium bridge, ``no_bridge`` draws
    neither, ``exp_integral`` draws the bridge without claims; the claim
    draw and a bare (n, m) normal draw are references for the split.
    """
    kernel = StepKernel(wl.beta2)
    streams = RngStreams.from_seed(wl.seed, chunk=1 << 20)
    m = DEFAULT_PREMIUM_NODES
    variants = {
        "full": lambda: kernel.sample(streams, n, need_claim=True),
        "no_bridge": lambda: kernel.sample(streams, n, need_claim=False),
        "exp_integral": lambda: kernel.sample(streams, n, need_claim=False,
                                              need_exp_integral=True),
        "claim_draw": lambda: wl.beta2.claim_dist.sample(streams.claims, n),
        "normal_n8": lambda: streams.brownian.standard_normal((n, m)),
    }
    # The first rounds fault in fresh pages for the step's arrays; time the
    # later ones, interleaved so a slow spell hits every variant alike.
    times = {name: [] for name in variants}
    for round_ in range(warm + repeats):
        for name, fn in variants.items():
            t0 = time.perf_counter()
            fn()
            if round_ >= warm:
                times[name].append(time.perf_counter() - t0)
    return {f"engine.step_ms.{name}": statistics.median(t) * 1e3
            for name, t in times.items()}


def pool_check(wl: RuinClassical, workers: int = 2) -> Tuple[float, bool]:
    """Run the classical grid in ``workers`` chunks, serially and on a pool.

    The pass is one chunk, which a pool would not split, so both calls use
    a chunk size that gives one chunk per worker.  Returns the pool call's
    time beyond a perfect split of the serial call, and whether the two
    calls' estimates are bit-identical.
    """
    chunk = wl.n_paths // workers
    times, results = [], []
    for w in (1, workers):
        t0 = time.perf_counter()
        ests = wl.chain(workers=w, chunk_size=chunk)
        times.append(time.perf_counter() - t0)
        results.append([(e.psi_hat, e.ci_halfwidth, e.censored_fraction)
                        for e in ests])
    return times[1] - times[0] / workers, results[0] == results[1]
