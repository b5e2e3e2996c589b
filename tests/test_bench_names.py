"""Every ruinlab name that the bench tracer wraps must resolve.

``bench/spans.py`` patches ruinlab entry points by name when a traced bench
pass starts, so a renamed function would otherwise fail only that pass.  The
module is loaded from its file without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module          # dataclasses look it up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
        del sys.modules[spec.name]
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("mod_name, path, span", SPANS.TRACED,
                         ids=[span for _, _, span in SPANS.TRACED])
def test_traced_name_resolves(mod_name, path, span):
    owner = importlib.import_module(mod_name)
    head, _, attr = path.rpartition(".")
    if head:
        # methods are patched on the class that defines them
        owner = getattr(owner, head)
        assert attr in vars(owner), f"{mod_name}.{path} ({span})"
    assert callable(getattr(owner, attr, None)), f"{mod_name}.{path} ({span})"


@pytest.mark.parametrize("mod_name, attr", SPANS.SAMPLER_FACTORIES,
                         ids=[attr for _, attr in SPANS.SAMPLER_FACTORIES])
def test_sampler_factory_resolves(mod_name, attr):
    module = importlib.import_module(mod_name)
    assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"
