"""In-memory span tracing around ruinlab's public entry points.

``Tracer`` replaces public functions and methods on the ruinlab modules
with wrappers defined here; nothing under ``src/`` changes.  Every wrapped
call records a span (name, start, end, parent) in memory, and the spans are
summarised only after the traced pass, so tracing adds one wrapper call and
a few list operations per wrapped call.

Self time is a span's duration minus the time its child spans cover; the
process is single-threaded while tracing, so child spans never overlap and
that coverage is simply the sum of the child durations.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

__all__ = ["Span", "Tracer", "TRACED"]

# (module, attribute path, span name).  Module-level functions are patched
# wherever a ruinlab module holds a reference to them, so names imported with
# ``from .x import f`` are traced too; methods are patched on their class.
TRACED = (
    ("ruinlab.engine", "StepKernel.sample", "engine.sample"),
    ("ruinlab.engine", "run_chunked", "engine.run_chunked"),
    ("ruinlab.ruin", "estimate_psi_grid", "ruin.estimate_psi_grid"),
    ("ruinlab.ruin", "rw_max_diagnostic", "ruin.rw_max_diagnostic"),
    ("ruinlab.perpetuity", "sample_R_values", "perpetuity.sample_R_values"),
    ("ruinlab.perpetuity", "sample_Rbar_values",
     "perpetuity.sample_Rbar_values"),
    ("ruinlab.perpetuity", "ks_fixed_point", "perpetuity.ks_fixed_point"),
    ("ruinlab.perpetuity", "goldie_constant", "perpetuity.goldie_constant"),
    ("ruinlab.lundberg", "lundberg_report", "lundberg.lundberg_report"),
    ("ruinlab.lundberg", "phi_nu_analytic", "lundberg.phi_nu_analytic"),
    ("ruinlab.lundberg", "q_plus_compute", "lundberg.q_plus_compute"),
    ("ruinlab.lundberg", "endpoint_phi_value", "lundberg.endpoint_phi_value"),
    ("ruinlab.lundberg", "classify_endpoint", "lundberg.classify_endpoint"),
    ("ruinlab.lundberg", "sample_nu", "lundberg.sample_nu"),
    ("ruinlab.theta", "ThetaLaw.candidate_points", "theta.candidate_points"),
    ("ruinlab.distributions", "Distribution.sample", "distributions.sample"),
)

# Pair-sampler factories: the callables they return are wrapped as well, so
# the time spent inside the perpetuity increments is a span of its own.
SAMPLER_FACTORIES = (
    ("ruinlab.perpetuity", "model_pair_sampler"),
    ("ruinlab.perpetuity", "qbar_pair_sampler"),
)

CHUNK = "engine.chunk"
PAIR = "perpetuity.pair_sampler"


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    child_s: float = 0.0
    rows: int = 0            # row count for sample spans, 0 otherwise
    chunk: int = -1          # index of the enclosing chunk span, -1 outside

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _rows(name: str, args: tuple, kwargs: dict) -> int:
    """Row count of a sampling call, read from its size argument."""
    if name == "engine.sample":
        return int(args[2] if len(args) > 2 else kwargs["n"])
    if name == "distributions.sample":
        size = args[2] if len(args) > 2 else kwargs.get("size")
        if size is None:
            return 1
        if isinstance(size, tuple):
            out = 1
            for s in size:
                out *= int(s)
            return out
        return int(size)
    if name == "lundberg.sample_nu":
        return int(args[1] if len(args) > 1 else kwargs["n"])
    return 0


@dataclass
class Tracer:
    """Installs the wrappers on ``__enter__`` and restores on ``__exit__``."""

    spans: List[Span] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)
    _chunk: int = -1
    _undo: List[tuple] = field(default_factory=list)

    # -- span recording -------------------------------------------------------

    def _begin(self, name: str, rows: int = 0) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, rows=rows,
                               chunk=self._chunk))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _finish(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name, _rows(name, args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._finish(idx)
        return traced

    def _wrap_chunk_fn(self, fn: Callable) -> Callable:
        """One span per chunk, so compactions are counted within a chunk."""
        def chunk_fn(streams, size, **kwargs):
            idx = self._begin(CHUNK, rows=int(size))
            outer, self._chunk = self._chunk, idx
            try:
                return fn(streams, size, **kwargs)
            finally:
                self._chunk = outer
                self._finish(idx)
        return chunk_fn

    def _wrap_run_chunked(self, fn: Callable) -> Callable:
        span = self.wrap("engine.run_chunked", fn)

        @functools.wraps(fn)
        def run_chunked(chunk_fn, total, seed, workers=1, *args, **kwargs):
            if workers <= 1:
                chunk_fn = self._wrap_chunk_fn(chunk_fn)
            return span(chunk_fn, total, seed, workers, *args, **kwargs)
        return run_chunked

    def _wrap_factory(self, factory: Callable) -> Callable:
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.wrap(PAIR, factory(*args, **kwargs))
        return make

    # -- patching ---------------------------------------------------------------

    def _replace_everywhere(self, original: Callable, replacement: Callable):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ruinlab"
                                   or mod_name.startswith("ruinlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def __enter__(self) -> "Tracer":
        for mod_name, path, name in TRACED:
            owner = sys.modules[mod_name]
            head, _, attr = path.rpartition(".")
            if head:
                owner = getattr(owner, head)
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(name, original))
                self._undo.append((owner, attr, original))
                continue
            original = getattr(owner, attr)
            if name == "engine.run_chunked":
                replacement = self._wrap_run_chunked(original)
            else:
                replacement = self.wrap(name, original)
            self._replace_everywhere(original, replacement)
        for mod_name, attr in SAMPLER_FACTORIES:
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self._wrap_factory(original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- summaries ----------------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_s(self, name: str) -> float:
        return sum(s.self_s for s in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def rows(self, name: str) -> int:
        return sum(s.rows for s in self.named(name))

    def ancestor(self, span: Span, names: Iterable[str]) -> Optional[str]:
        """Name of the nearest enclosing span among ``names``, if any."""
        names = set(names)
        parent = span.parent
        while parent >= 0:
            up = self.spans[parent]
            if up.name in names:
                return up.name
            parent = up.parent
        return None

    def under(self, name: str, top: str) -> List[Span]:
        """Spans called ``name`` that run inside a span called ``top``."""
        return [s for s in self.named(name) if self.ancestor(s, (top,))]

    def compactions(self) -> int:
        """Drops in row count between consecutive kernel calls of a chunk."""
        last: Dict[int, int] = {}
        drops = 0
        for s in self.named("engine.sample"):
            if s.chunk < 0:
                continue
            prev = last.get(s.chunk)
            if prev is not None and s.rows < prev:
                drops += 1
            last[s.chunk] = s.rows
        return drops

    def live_row_frac(self) -> float:
        """Kernel rows over the rows their chunks started with."""
        inside = [s for s in self.named("engine.sample") if s.chunk >= 0]
        started = sum(self.spans[s.chunk].rows for s in inside)
        return sum(s.rows for s in inside) / started if started else 0.0
