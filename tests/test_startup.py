"""Start-up budget: no route loads scipy, and the Monte Carlo path loads no
process pool.

``import ruinlab``, a config load with the MGF endpoint and atoms of each
of its laws, and ``import ruinlab.cli`` run in a fresh interpreter, since
this one has scipy loaded already (the test modules and pytest's warning
filters import it); so does the analytic route, through every kind of
root finding and quadrature it does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import PIECEWISE

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
import ruinlab
for path in ("configs/beta2.json", "configs/golden.json"):
    model = ruinlab.load_experiment(path).model
    for law in (model.claim_dist, model.interarrival_dist):
        law.mgf_endpoint(), law.atoms()
import ruinlab.cli
print(json.dumps(sorted(sys.modules)))
"""

# the shipped configs, zeta p = 2 (a root by Brent's method) and a
# piecewise regime (quadrature over the cells and the sigma law)
ANALYTIC_PROBE = """
import json, sys
import ruinlab.lundberg, ruinlab.validate
from ruinlab import lundberg_report, load_experiment, parse_experiment
docs = json.loads(sys.argv[1])
for path in ("configs/golden.json", "configs/beta2.json"):
    lundberg_report(load_experiment(path).model)
for doc in docs:
    lundberg_report(parse_experiment(doc).model)
print(json.dumps(sorted(sys.modules)))
"""

BANNED = ("scipy", "multiprocessing", "concurrent.futures.process")


def _loaded(probe: str, *args: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe, *args], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout)


def _matching(loaded: list, names) -> list:
    return [m for m in loaded
            if any(m == b or m.startswith(b + ".") for b in names)]


def test_import_and_config_load_leave_scipy_unloaded():
    loaded = _loaded(PROBE)
    assert "ruinlab.cli" in loaded
    assert _matching(loaded, BANNED) == []


def test_analytic_route_leaves_scipy_unloaded():
    zeta2 = json.loads((ROOT / "configs" / "golden.json").read_text())
    zeta2["model"]["regime"]["theta"]["p"] = 2
    loaded = _loaded(ANALYTIC_PROBE, json.dumps([zeta2, PIECEWISE]))
    assert {"ruinlab.lundberg", "ruinlab.validate"} <= set(loaded)
    assert _matching(loaded, ["scipy"]) == []
