"""The benchmark tracer's bindings resolve against the package.

`bench/tracer.py` wraps named functions and methods of `genuslab` for the
traced benchmark runs (`bench/run.py --trace 1`), looking each one up by
module and qualified name.  A rename or removal in `src/` would otherwise
surface only there.  The tracer is loaded from its file and only read: no
wrapper is installed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_row_resolves(monkeypatch):
    tracer = load_tracer(monkeypatch)
    assert tracer.WRAPPED
    for layer, mod_name, qualname, _, _ in tracer.WRAPPED:
        obj = tracer._lookup(importlib.import_module(mod_name), qualname)
        assert callable(obj), (layer, mod_name, qualname)
