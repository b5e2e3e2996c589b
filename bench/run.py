"""ruinlab benchmark: four workloads, end-to-end metrics, per-layer tracing.

Run one workload:

    python3 bench/run.py --workload ruin_beta2 --seed 1 --seconds 16 --trace 0

or, without ``--workload``, all four in turn (each in its own process),
followed by a table of every end-to-end figure with its unit.

``--trace 0`` measures the end-to-end metrics.  Fresh processes
(``worker.py``), started one after another while the next should still end
within ``--seconds``, each time their import and config load, warm up, and
time one pass.  More fresh processes then time set-up alone, until there are
``SETUP_SAMPLES`` set-up times.  The metrics are medians over processes.
One process runs a pass at a steady speed, but the next can run it up to a
fifth faster or slower, so the median over processes is steadier than more
passes in one.  ruinlab runs as its users run it, with the default allocator
and BLAS threads.  ``--trace 1`` runs one plain pass and one traced pass in
this process and reports the per-layer metrics, the kernel probe, and the
difference between the two passes as tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
report provenance, the output digest, every check and the workload-specific
figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fresh processes whose set-up time is measured, the pass processes included.
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads,
                    help="workload to run (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time of an untraced run "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# -- provenance -------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy
    return {"workload": workload, "seed": seed, "trace": trace,
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _git_commit(ROOT)}


# -- measurements ------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_pass(wl):
    t0 = time.perf_counter()
    res = wl.run_pass()
    res.wall_s = time.perf_counter() - t0
    return res


def worker_main(argv, import_s: float) -> int:
    """Body of ``worker.py``: set-up time, then ``n_passes`` timed passes."""
    name, seed, n_passes = argv[0], int(argv[1]), int(argv[2])
    from ruinlab import load_experiment
    from workloads import WORKLOADS, make_workload

    t0 = time.perf_counter()
    load_experiment(str(ROOT / WORKLOADS[name].config_file))
    out = {"setup_s": import_s + time.perf_counter() - t0}
    if n_passes > 0:
        wl = make_workload(name, ROOT, seed)
        wl.warmup()
        passes = [timed_pass(wl) for _ in range(n_passes)]
        out.update(
            provenance=provenance(name, seed, 0),
            peak_rss_mb=peak_rss_mb(),
            checks=[(c.name, c.ok, c.detail) for c in wl.checks(passes[0])],
            passes=[{"wall_s": p.wall_s, "digest": p.digest(),
                     "operations": wl.operations(p),
                     "rates": wl.rates(p)} for p in passes],
            main_rate=wl.main_rate)
    print(json.dumps(out))
    return 0


def spawn_worker(name: str, seed: int, n_passes: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), name, str(seed),
         str(n_passes)],
        cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {name} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    workers, last = [], 0.0
    t0 = time.perf_counter()
    while not workers or time.perf_counter() - t0 + last <= seconds:
        t1 = time.perf_counter()
        workers.append(spawn_worker(name, seed, 1))
        last = time.perf_counter() - t1
    setups = [w["setup_s"] for w in workers]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn_worker(name, seed, 0)["setup_s"])

    passes = [p for w in workers for p in w["passes"]]
    main_rate = workers[0]["main_rate"]
    rates = {k: (statistics.median(p["rates"][k][0] for p in passes), unit)
             for k, (_, unit) in passes[0]["rates"].items()}
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        "work_per_s": rates[main_rate][0],
    }
    return {"provenance": workers[0]["provenance"],
            "checks": workers[0]["checks"],
            "pass_wall_s": [p["wall_s"] for p in passes],
            "digests": [p["digest"] for p in passes],
            "operations": [p["operations"] for p in passes],
            "metrics": metrics, "rates": rates,
            "processes": f"{len(workers)} pass processes, "
                         f"{len(setups)} set-up samples"}


def run_traced(name: str, seed: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from layers import kernel_probe, layer_metrics, pool_check
    from spans import Tracer
    from workloads import RuinClassical, make_workload

    wl = make_workload(name, ROOT, seed)
    wl.warmup()
    plain = timed_pass(wl)
    with Tracer() as tr:
        traced = timed_pass(wl)
    metrics = layer_metrics(tr, traced)
    metrics.update(kernel_probe(wl))
    checks = [(c.name, c.ok, c.detail) for c in wl.checks(plain)]
    metrics["engine.pool_overhead_s"] = 0.0
    if isinstance(wl, RuinClassical):
        overhead, same = pool_check(wl)
        metrics["engine.pool_overhead_s"] = overhead
        checks.append(("pool_bit_identical", same, "workers=2 vs 1"))
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / plain.wall_s
    passes = (plain, traced)
    return {"provenance": provenance(name, seed, 1), "checks": checks,
            "pass_wall_s": [p.wall_s for p in passes],
            "digests": [p.digest() for p in passes],
            "operations": [wl.operations(p) for p in passes],
            "metrics": metrics, "rates": {}, "processes": "1 process"}


def run_one(args, spec: dict) -> int:
    if not (ROOT / "src" / "ruinlab").is_dir():
        print(f"ruinlab sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.trace:
        run = run_traced(args.workload, args.seed)
    else:
        run = run_untraced(args.workload, args.seed,
                           args.seconds or spec["run_seconds"])
    digests = run["digests"]
    same = len(set(digests)) == 1
    checks = run["checks"] + [("passes_bit_identical", same,
                               f"{len(digests)} passes, {run['processes']}")]
    correct = all(ok for _, ok, _ in checks)
    attempted = sum(a for a, _ in run["operations"])
    failed = attempted if not correct else sum(f for _, f in run["operations"])

    section = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(run["metrics"][m["name"]]),
                           "unit": m["unit"]} for m in section}
    print("provenance " + json.dumps(run["provenance"]))
    print(f"digest {args.workload} {digests[0]}")
    for name, ok, detail in checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name} {detail}")
    print("pass_wall_s " + " ".join(f"{t:.4f}" for t in run["pass_wall_s"]))
    print(f"figure failed_frac {failed / attempted:.6g} ratio")
    for name, (value, unit) in run["rates"].items():
        print(f"figure {name} {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in its own process, then one table of the figures."""
    rows = []
    status = 0
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds or spec["run_seconds"]), "--trace",
               str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            status = 1
        for line in proc.stdout.splitlines():
            if line.startswith(("figure ", "metric ")):
                _, metric, value, unit = line.split(" ", 3)
                rows.append((name, metric, value, unit))
    print()
    print(f"{'workload':<18} {'metric':<32} {'value':>14} unit")
    for name, metric, value, unit in rows:
        print(f"{name:<18} {metric:<32} {value:>14} {unit}")
    return status


def main(argv=None) -> int:
    # Workload and metric names, units and the default run length live in
    # the benchmark's definition at the root of the checkout.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
