"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps named functions and methods of the imported ``genuslab``
modules without touching the package source.  A wrapper replaces the original
object everywhere it is bound: in every ``genuslab`` module namespace that
imported it (``localization.word_factor_product`` as well as
``genus.word_factor_product``), in every class namespace that aliases it
(``QSeries.__rmul__`` is ``QSeries.__mul__``) and in module-level dicts that
hold it (``suites.SUITES``).

Span wrappers keep a stack, so each one records:

* ``calls``   -- every call, recursive ones included;
* ``incl_s``  -- wall time of the outermost active call, so recursion is not
  counted twice;
* ``self_s``  -- wall time minus the part covered by wrapped child spans.

Count wrappers only count calls; their time stays in the caller's self time.
Spans may also count repeated arguments within one process, which gives a hit
ratio without reading any cache of the package, and may run a hook that adds
exact counters such as coefficient products.

Counts are exact and repeat from run to run; times do not.  Time spent in the
hooks is taken out of the caller's self time but stays in the inclusive time
of the spans above it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass

# One row per wrapped object: (layer name, module, qualified name, kind,
# workloads that must call it).  kind is "span", "count" or "span-args"
# (span plus repeated-argument counting).
ALL = ("verify-all", "cusp-expand", "rigidity-sweep")
VERIFY = ("verify-all",)
VERIFY_RIGIDITY = ("verify-all", "rigidity-sweep")

WRAPPED = [
    ("series.qseries_mul", "genuslab.series", "QSeries.__mul__", "span", ALL),
    ("series.qseries_add", "genuslab.series", "QSeries.__add__", "span", ALL),
    ("series.qseries_inverse", "genuslab.series", "QSeries.inverse", "span", ALL),
    ("series.truncpoly_mul", "genuslab.series", "TruncPoly.__mul__", "span", ALL),
    ("series.truncpoly_inverse", "genuslab.series", "TruncPoly.inverse", "span", ALL),
    ("series.truncpoly_compose", "genuslab.series", "TruncPoly.compose", "span", ALL),
    ("rings.is_zero", "genuslab.rings", "RationalField.is_zero", "count", ALL),
    ("rings.is_zero", "genuslab.rings", "GaussianField.is_zero", "count", VERIFY_RIGIDITY),
    ("rings.is_zero", "genuslab.series", "PolyRing.is_zero", "count", VERIFY),
    ("rings.is_zero", "genuslab.series", "SeriesRing.is_zero", "count", ALL),
    ("manifolds.builtin", "genuslab.manifolds", "builtin", "span-args", ALL),
    ("manifolds.integrate", "genuslab.manifolds", "CohomologyModel.integrate", "span", ALL),
    ("genus.index_density", "genuslab.genus", "index_density", "span-args", ALL),
    ("genus.word_factor_product", "genuslab.genus", "word_factor_product", "span", ALL),
    ("genus.twisted_index", "genuslab.genus", "twisted_index", "span", ALL),
    ("genus.char_series", "genuslab.genus", "char_series", "span", ALL),
    ("genus.genus_value", "genuslab.genus", "genus_value", "span", ALL),
    ("cusp.generator_expansions", "genuslab.cusp", "generator_expansions", "span-args", VERIFY),
    ("cusp.verify_modularity", "genuslab.cusp", "verify_modularity", "span", VERIFY),
    ("cusp.normalized_phi", "genuslab.cusp", "normalized_phi", "span", VERIFY),
    ("localization.local_term", "genuslab.localization", "local_term", "span", VERIFY_RIGIDITY),
    ("localization.rigidity_check", "genuslab.localization", "rigidity_check", "span", VERIFY_RIGIDITY),
    ("obstructions.code_audit", "genuslab.obstructions", "code_audit", "span", VERIFY),
    ("obstructions.cross_check_prediction", "genuslab.obstructions", "cross_check_prediction", "span", VERIFY),
    ("cli.emit", "genuslab.cli", "emit", "span", ALL),
]

SUITE_MODULE = "genuslab.suites"


@dataclass
class Stat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    repeats: int = 0          # calls whose arguments were already seen
    coeff_products: int = 0   # series.qseries_mul only
    depth: int = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack = [[0.0]]      # per active span: time covered by child spans
        self._counting = [True]    # off while a hook inspects values

    def span(self, key, fn, seen=None, hook=None):
        """Wrap `fn` as a span; `seen` collects argument keys, `hook` adds counters."""
        st = self.stats.setdefault(key, Stat())
        stack = self._stack
        counting = self._counting
        clock = time.perf_counter
        signature = inspect.signature(fn) if seen is not None else None

        def wrapper(*args, **kwargs):
            st.calls += 1
            if seen is not None or hook is not None:
                h0 = clock()
                counting[0] = False
                if seen is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    args_key = tuple(bound.arguments.items())
                    if args_key in seen:
                        st.repeats += 1
                    else:
                        seen.add(args_key)
                if hook is not None:
                    st.coeff_products += hook(args)
                counting[0] = True
                stack[-1][0] += clock() - h0
            frame = [0.0]
            stack.append(frame)
            st.depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st.depth -= 1
                st.self_s += dt - frame[0]
                if st.depth == 0:
                    st.incl_s += dt
                stack[-1][0] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, key, fn):
        """Wrap `fn` so that only its calls are counted."""
        st = self.stats.setdefault(key, Stat())
        counting = self._counting

        def wrapper(*args, **kwargs):
            if counting[0]:
                st.calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self) -> dict:
        return {
            key: {
                "calls": st.calls,
                "incl_s": st.incl_s,
                "self_s": st.self_s,
                "repeats": st.repeats,
                "coeff_products": st.coeff_products,
            }
            for key, st in self.stats.items()
        }


def series_products(args) -> int:
    """Coefficient products of one QSeries multiplication, from public values.

    Series by series: pairs of nonzero known coefficients whose exponents sum
    below the product's guaranteed order.  Series by scalar: one product per
    nonzero coefficient.
    """
    a, b = args[0], args[1]
    sa = a.support()
    if type(b) is not type(a):
        return len(sa)
    sb = b.support()
    if not sa or not sb:
        return 0
    order = min(a.order + sb[0], b.order + sa[0])
    total = 0
    j = len(sb)
    for e in sa:  # two-pointer count of pairs with e + f < order
        while j and e + sb[j - 1] >= order:
            j -= 1
        total += j
    return total


def _lookup(module, qualname: str):
    """The object bound at `qualname` in `module`, as stored (a plain function for methods)."""
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return vars(owner)[attr]


def _replace_everywhere(original, wrapper) -> int:
    """Rebind every genuslab reference to `original`; return how many were found."""
    found = 0
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "genuslab" or mod_name.startswith("genuslab.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                found += 1
            elif isinstance(value, dict):
                for dkey, dvalue in value.items():
                    if dvalue is original:
                        value[dkey] = wrapper
                        found += 1
            elif isinstance(value, type) and value.__module__ == mod_name:
                for ckey, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        setattr(value, ckey, wrapper)
                        found += 1
    return found


def install(tracer: Tracer) -> dict[str, tuple[str, tuple]]:
    """Wrap every row of WRAPPED and every suite.

    Stats are kept per wrapped function, keyed "module.qualname"; the result
    maps each key to its layer name and the workloads that must call it.
    """
    layers = {}
    for layer, mod_name, qualname, kind, workloads in WRAPPED:
        original = _lookup(importlib.import_module(mod_name), qualname)
        key = f"{mod_name}.{qualname}"
        if kind == "count":
            wrapper = tracer.count(key, original)
        elif kind == "span-args":
            wrapper = tracer.span(key, original, seen=set())
        else:
            hook = series_products if layer == "series.qseries_mul" else None
            wrapper = tracer.span(key, original, hook=hook)
        if not _replace_everywhere(original, wrapper):
            raise RuntimeError(f"{key} is not bound anywhere")
        layers[key] = (layer, workloads)
    suites = importlib.import_module(SUITE_MODULE)
    for name, fn in list(suites.SUITES.items()):
        key = f"{SUITE_MODULE}.{fn.__name__}"
        _replace_everywhere(fn, tracer.span(key, fn))
        layers[key] = (f"suites.{name}", VERIFY)
    return layers
