"""Start-up budget: the Monte Carlo path loads numpy, never scipy.

``import ruinlab``, a config load with the MGF endpoint and atoms of each
of its laws, and ``import ruinlab.cli`` run in a fresh interpreter, since
this one has scipy loaded already (the test modules and pytest's warning
filters import it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import ruinlab
from ruinlab import lundberg

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

# scipy, the process pool, and the analytic route, which needs scipy
BANNED = ("scipy", "multiprocessing", "concurrent.futures.process",
          "ruinlab.lundberg")


def test_import_and_config_load_leave_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    loaded = json.loads(proc.stdout)
    assert "ruinlab.cli" in loaded
    assert [m for m in loaded
            if any(m == b or m.startswith(b + ".") for b in BANNED)] == []


def test_lundberg_names_resolve_lazily():
    listing = dir(ruinlab)
    for name in ruinlab._LUNDBERG_NAMES:
        assert getattr(ruinlab, name) is getattr(lundberg, name)
        assert name in listing
    assert len(set(ruinlab._LUNDBERG_NAMES)) == 11
