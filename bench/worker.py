"""One fresh process of an untraced run: set-up time, then timed passes.

    python3 bench/worker.py WORKLOAD SEED PASSES

Times ``import ruinlab`` plus loading the workload's config, then, if
PASSES > 0, warms up and times that many passes.  Prints one JSON line for
``run.py``.  Only ``os``, ``sys`` and ``time``, which the interpreter loads
at start anyway, are imported before the clock starts, so the set-up time is
that of a plain
``python3 -c "import ruinlab"`` plus the config load.
"""

import os
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import ruinlab  # noqa: E402

import_s = time.perf_counter() - t0

from run import worker_main  # noqa: E402

sys.exit(worker_main(sys.argv[1:], import_s))
