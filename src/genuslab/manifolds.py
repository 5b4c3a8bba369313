"""Manifold models: cohomology ring, fundamental-class pairing, tangent data.

A model is the minimal exact data needed to evaluate characteristic numbers:

* a truncated cohomology ring with even-degree generators (degree 2 or 4) and
  the value of the fundamental class on the top monomial;
* virtual tangent root data: a list of (linear form, multiplicity) entries,
  each in Chern flavour (the form is a degree-2 root) or Pontryagin flavour
  (the form is a degree-4 squared root), plus a trivial-rank correction delta
  = (virtual rank) - (actual rank in root pairs).

`root_product` and `root_sum` are the one place where tangent entries become
characteristic classes.  `root_sum` puts every root into a univariate series
f (Pontryagin entries through the even powers of f, in v = x^2): each
monomial alpha of a power form^k takes f's coefficient at half the degree of
alpha, times a rational weight, the sum of mult * [alpha] form^k over the
entries (`_root_weights`).  `root_product` takes f in log form, f = f0
exp(log f) with log f(0) = 0, so the whole tangent product is one
exponential, exp(root_sum(log f)), and one scalar f0^rank, rank = sum mult -
delta: it divides by delta copies of f(0), so a virtual description and the
actual bundle give the same characteristic numbers.

The records check nothing themselves.  A model reads its real dimension from
its generators' degrees and caps.  `load_model` validates a model file:
generator degrees and caps, distinct symbols, nonzero multiplicities, each
form's degree against its entry's kind, and the declared `dim_real` against
the generators; it ignores the keys it does not read, such as the orientation
note that older model files carry.  It reads numbers with the readers of
`rings`, so a literal past the int-to-str digit limit is a ResourceCapError.
Every model then passes
`ManifoldModel.validate_dimensions` (tangent rank, nonzero pairing, real
dimension <= MAX_DIM_REAL, a ResourceCapError above it), and builtin catalog
entries also `_self_check`: two independent classical identities
(signature/Euler characteristic/A-hat vanishing); a builtin that fails one is
a bug, not bad input, so the failure is an `InternalInconsistencyError`.  A
catalog product past the cap is refused before its factors' self-checks, and
so is one of more than three leaves: the factor limit counts the catalog
manifolds inside nested `product(...)` and x-joined names, not one level.
`euler_characteristic` is the catalog's one Euler number: a model stores none.

Models are hashable, so that `genus`, `euler_characteristic` and
`_root_weights` can cache values per model.  A model hashes its name and
dimension: equal models share both, and the tangent entries hold their forms
as dicts, which do not hash.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import prod
from typing import NamedTuple

from .errors import InternalInconsistencyError, ResourceCapError, StructuralError, ValidationError
from .rings import QQ, as_fraction, format_fraction, read_fraction, read_int, read_json
from .series import PolyRing, TruncPoly

CHERN = "chern"
PONTRYAGIN = "pontryagin"
MAX_DIM_REAL = 400  # the real dimension of every model; the genus work grows steeply with it


class Generator(NamedTuple):
    symbol: str
    degree: int  # 2 or 4
    cap: int     # nilpotency: symbol^(cap+1) = 0


class CohomologyModel(NamedTuple):
    generators: tuple[Generator, ...]
    pairing: Fraction  # value of the fundamental class on prod(gen^cap)

    def poly_ring(self, base) -> PolyRing:
        return PolyRing(
            tuple(g.symbol for g in self.generators),
            tuple(g.cap for g in self.generators),
            base,
        )

    @property
    def dim_real(self) -> int:
        return sum(g.degree * g.cap for g in self.generators)

    def integrate(self, cls: TruncPoly, scalar=None):
        """Pair a cohomology class (times a base-ring scalar, if one is given) with the fundamental class."""
        value = cls.coefficient(tuple(g.cap for g in self.generators)) * self.pairing
        return value if scalar is None else value * scalar


class TangentEntry(NamedTuple):
    form: dict          # {symbol: Fraction} linear form in the generators
    mult: int           # signed multiplicity; negative entries invert factors
    kind: str           # CHERN: degree-2 root; PONTRYAGIN: degree-4 squared root


class TangentData(NamedTuple):
    entries: tuple[TangentEntry, ...]
    delta: int  # virtual rank minus actual rank (in complex ranks / root pairs)

    @property
    def style(self) -> str:
        kinds = {e.kind for e in self.entries}
        if kinds <= {CHERN}:
            return CHERN
        if kinds == {PONTRYAGIN}:
            return PONTRYAGIN
        return "mixed"


class ManifoldModel(NamedTuple):
    name: str
    cohomology: CohomologyModel
    tangent: TangentData
    spin: bool

    def __hash__(self):  # consistent with tuple equality; the tangent forms are dicts and do not hash
        return hash((self.name, self.dim_real))

    @property
    def dim_real(self) -> int:
        return self.cohomology.dim_real

    def poly_ring(self, base=QQ) -> PolyRing:
        return self.cohomology.poly_ring(base)

    def integrate(self, cls: TruncPoly, scalar=None):
        return self.cohomology.integrate(cls, scalar)

    def validate_dimensions(self):
        ranks = sum(e.mult for e in self.tangent.entries) - self.tangent.delta
        if self.dim_real and ranks != self.dim_real // 2:
            raise ValidationError(
                f"{self.name}: tangent entries give rank {ranks}, expected "
                f"{self.dim_real // 2}",
                code="dimension-mismatch",
            )
        if self.cohomology.pairing == 0:
            raise ValidationError(
                f"{self.name}: fundamental-class pairing is zero", code="zero-pairing"
            )
        if self.dim_real > MAX_DIM_REAL:
            raise ResourceCapError(f"{self.name}: real dimension {self.dim_real} > {MAX_DIM_REAL}")
        return self


def root_degree(model: ManifoldModel) -> int:
    """The x-order that a series f needs, so that f(root) of every tangent root is exact under the caps."""
    xc = sum(g.cap for g in model.cohomology.generators if g.degree == 2)
    vc = sum(g.cap for g in model.cohomology.generators if g.degree == 4)
    return max(1, xc, 2 * vc)


@cache
def _root_weights(model: ManifoldModel) -> tuple:
    """(alpha, d, w) per monomial: w = sum over the entries of mult * [alpha] form^k, for k >= 0.

    A monomial alpha of form^k has cohomological degree 2k for a Chern root
    and 4k for a Pontryagin squared root, which is x^(2k); either way it
    takes the x^d coefficient of f, with d half its degree.
    """
    ring = model.poly_ring(QQ)
    halves = [g.degree // 2 for g in model.cohomology.generators]
    weights = {}
    for entry in model.tangent.entries:
        form, power = ring.linear_form(entry.form), ring.one()
        while power:
            for exps, c in power.coeffs.items():
                weights[exps] = weights.get(exps, 0) + entry.mult * c
            power = power * form
    return tuple((exps, sum(e * h for e, h in zip(exps, halves)), w) for exps, w in weights.items() if w)


def root_sum(model: ManifoldModel, f: TruncPoly) -> TruncPoly:
    """sum mult * f(root) over the tangent entries, in the cohomology ring over f's base; no delta correction.

    Each monomial takes one coefficient of f times a rational weight
    (`_root_weights`).  Pontryagin entries know only the squared root, so an
    f with odd terms needs Chern-style data.
    """
    if any(e % 2 for (e,) in f.coeffs) and any(entry.kind == PONTRYAGIN for entry in model.tangent.entries):
        raise StructuralError(f"{model.name}: this class needs Chern-style tangent data")
    terms = {exps: f.coeffs[(d,)] * w for exps, d, w in _root_weights(model) if (d,) in f.coeffs}
    return TruncPoly(model.poly_ring(f.ring.base), terms, _clean=True)


def root_product(model: ManifoldModel, log_f: TruncPoly, f0):
    """(exp(root_sum(model, log_f)), f0^rank or None when it is 1), rank = sum mult - delta.

    For f = f0 exp(log_f) the two multiply to prod f(root)^mult over the
    tangent entries, divided by f(0)^delta: one exponential, and no power
    per entry.  `integrate` takes the pair and scales only the paired value
    by f0^rank, where a product with it would scale every coefficient.
    """
    rank = sum(e.mult for e in model.tangent.entries) - model.tangent.delta
    return root_sum(model, log_f).exp(), f0 ** rank if rank and f0 != 1 else None


def total_chern_class(model: ManifoldModel) -> TruncPoly:
    """prod (1 + root)^mult over Chern entries; trivial summands contribute 1, so no scalar."""
    x = PolyRing(("x",), (root_degree(model),), QQ).gen("x")
    return root_product(model, (1 + x).log(), 1)[0]


@cache
def euler_characteristic(model: ManifoldModel) -> Fraction:
    """Top Chern number; requires Chern-style tangent data.

    Cached per process, as `genus.genus_value` is: the catalog self-check of a
    model computes it, and later callers with an equal model reuse it.
    """
    return model.integrate(total_chern_class(model))


def first_chern_class(model: ManifoldModel) -> TruncPoly:
    """sum mult * root over Chern entries; requires Chern-style tangent data."""
    return root_sum(model, PolyRing(("x",), (1,), QQ).gen("x"))


# -- builtin catalog ----------------------------------------------------------


def point() -> ManifoldModel:
    """The positively oriented point."""
    model = ManifoldModel(
        name="pt",
        cohomology=CohomologyModel((), Fraction(1)),
        tangent=TangentData((), 0),
        spin=True,
    )
    return model.validate_dimensions()


def complex_projective_space(n: int) -> ManifoldModel:
    """CP^n: generator h of degree 2, pairing 1, virtual roots (n+1)h, delta 1.

    Complex orientation, so sign(CP^{2m}) = +1.
    """
    if n < 1:
        raise ValidationError("CP^n needs n >= 1", code="invalid")
    coh = CohomologyModel((Generator("h", 2, n),), Fraction(1))
    tangent = TangentData((TangentEntry({"h": Fraction(1)}, n + 1, CHERN),), 1)
    model = ManifoldModel(
        name=f"CP{n}",
        cohomology=coh,
        tangent=tangent,
        spin=(n % 2 == 1),
    )
    return model.validate_dimensions()


def quaternionic_projective_space(n: int) -> ManifoldModel:
    """HP^n: generator u of degree 4, Pontryagin class (1+u)^{2n+2}(1+4u)^{-1}; sign(HP^n) = +1 for even n."""
    if n < 1:
        raise ValidationError("HP^n needs n >= 1", code="invalid")
    coh = CohomologyModel((Generator("u", 4, n),), Fraction(1))
    tangent = TangentData(
        (
            TangentEntry({"u": Fraction(1)}, 2 * n + 2, PONTRYAGIN),
            TangentEntry({"u": Fraction(4)}, -1, PONTRYAGIN),
        ),
        1,
    )
    model = ManifoldModel(
        name=f"HP{n}",
        cohomology=coh,
        tangent=tangent,
        spin=True,
    )
    return model.validate_dimensions()


def hypersurface(n: int, degree: int) -> ManifoldModel:
    """Degree-l hypersurface in CP^{n+1}: c = (1+h)^{n+2} (1+l h)^{-1}; complex orientation, <h^n,[V]> = l."""
    if n < 1 or degree < 1:
        raise ValidationError("V(n,l) needs n >= 1 and l >= 1", code="invalid")
    coh = CohomologyModel((Generator("h", 2, n),), Fraction(degree))
    tangent = TangentData(
        (
            TangentEntry({"h": Fraction(1)}, n + 2, CHERN),
            TangentEntry({"h": Fraction(degree)}, -1, CHERN),
        ),
        1,
    )
    model = ManifoldModel(
        name=f"V({n},{degree})",
        cohomology=coh,
        tangent=tangent,
        spin=((n + 2 - degree) % 2 == 0),
    )
    return model.validate_dimensions()


def product(factors) -> ManifoldModel:
    """Product model: disjoint generators, pairing and tangent data combined; product orientation."""
    factors = list(factors)
    if len(factors) == 1:
        return factors[0]
    gens = []
    pairing = Fraction(1)
    entries = []
    delta = 0
    for i, m in enumerate(factors, start=1):
        rename = {g.symbol: f"{g.symbol}{i}" for g in m.cohomology.generators}
        gens.extend(
            Generator(rename[g.symbol], g.degree, g.cap)
            for g in m.cohomology.generators
        )
        pairing *= m.cohomology.pairing
        for e in m.tangent.entries:
            entries.append(
                TangentEntry({rename[s]: c for s, c in e.form.items()}, e.mult, e.kind)
            )
        delta += m.tangent.delta
    model = ManifoldModel(
        name="x".join(m.name for m in factors),
        cohomology=CohomologyModel(tuple(gens), pairing),
        tangent=TangentData(tuple(entries), delta),
        spin=all(m.spin for m in factors),
    )
    return model.validate_dimensions()


def _self_check(model: ManifoldModel, kind: str, factors: list) -> ManifoldModel:
    """Two independent classical identities per catalog entry, plus chi."""
    from . import genus  # local import: genus consumes models, catalog checks use genus

    name = model.name
    chi = euler_characteristic(model) if model.tangent.style == CHERN else None
    checks = []
    if kind == "cp":
        n = model.dim_real // 2
        checks.append(("euler", chi, Fraction(n + 1)))
        if n % 2 == 0:
            checks.append(("signature", genus.genus_value(genus.GenusSpec.signature(), model), Fraction(1)))
        else:
            checks.append(("ahat", genus.genus_value(genus.GenusSpec.ahat(), model), Fraction(0)))
    elif kind == "hp":
        n = model.dim_real // 4
        sig = Fraction(1) if n % 2 == 0 else Fraction(0)
        checks.append(("signature", genus.genus_value(genus.GenusSpec.signature(), model), sig))
        checks.append(("ahat", genus.genus_value(genus.GenusSpec.ahat(), model), Fraction(0)))
    elif kind == "v":
        n = model.dim_real // 2
        degree = model.cohomology.pairing
        c1 = first_chern_class(model)
        ring = model.poly_ring()
        checks.append(("c1", c1, ring.gen("h") * (n + 2 - degree)))
        if degree == n and (n % 2 == 0 or n == 1):
            closed = Fraction((n - 1) ** (n + 2) - 1, n) + (n + 2)
            checks.append(("euler-closed-form", chi, closed))
    elif kind == "product":
        if chi is not None:
            checks.append(("euler-multiplicative", chi, prod(map(euler_characteristic, factors))))
        sig_product = Fraction(1)
        computable = all(f.dim_real % 4 == 0 for f in factors)
        if computable and model.dim_real % 4 == 0:
            for factor in factors:
                sig_product *= genus.genus_value(genus.GenusSpec.signature(), factor)
            checks.append(
                ("signature-multiplicative",
                 genus.genus_value(genus.GenusSpec.signature(), model), sig_product)
            )
    for label, got, want in checks:
        if got != want:
            raise InternalInconsistencyError(
                f"catalog self-check failed for {name}: {label} = {got}, expected {want}"
            )
    return model


def builtin(name: str) -> ManifoldModel:
    """Catalog lookup: pt, CPn, HPn, V(n,l), product(a,b,...)."""
    return _build(name.strip())


@cache
def _build(key: str) -> ManifoldModel:
    model, kind, names = _construct(key)
    return model if kind is None else _self_check(model, kind, [builtin(n) for n in names])


def _construct(key: str):
    """(model, self-check kind, factor names) of a catalog key, unchecked; pt has no kind.

    A product is built from unchecked factors, so that its dimension cap refuses
    it before `_build` self-checks any factor.
    """
    if key == "pt":
        return point(), None, ()
    if key.startswith("product(") and key.endswith(")"):
        names = [p for p in _split_args(key[len("product(") : -1]) if p]
    elif len(names := _split_args(key, "x")) == 1:  # else a product's name: its factors' names joined by x
        names = None
    if names is not None:
        factors = [_construct(n)[0] for n in names]  # a factor's name joins its leaves' names with x
        if not 1 <= sum(len(_split_args(f.name, "x")) for f in factors) <= 3:
            raise ValidationError("products support 1 to 3 factors", code="invalid")
        return product(factors), "product", names
    if key.startswith("CP"):
        return complex_projective_space(_int_arg(key[2:], key)), "cp", ()
    if key.startswith("HP"):
        return quaternionic_projective_space(_int_arg(key[2:], key)), "hp", ()
    if key.startswith("V(") and key.endswith(")"):
        args = [a for a in _split_args(key[2:-1]) if a]
        if len(args) != 2:
            raise ValidationError(f"V takes two arguments, got {key!r}", code="invalid")
        return hypersurface(_int_arg(args[0], key), _int_arg(args[1], key)), "v", ()
    raise ValidationError(f"unknown builtin manifold {key!r}", code="invalid")


def _int_arg(text: str, key: str) -> int:
    """An integer argument of the builtin name `key`."""
    try:
        return read_int(text)
    except ValueError:
        raise ValidationError(f"malformed builtin name {key!r}", code="invalid") from None


def _split_args(text: str, sep: str = ","):
    """Split on `sep` where it is not nested inside parentheses, as `str.split` does; parts are stripped."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return parts


# -- structured-text loader ----------------------------------------------------


def load_model(source) -> ManifoldModel:
    """Load and validate a model from a JSON file path or dict."""
    doc = _json_object(source)
    for field_name in ("name", "dim_real", "spin", "generators", "pairing", "tangent"):
        if field_name not in doc:
            raise ValidationError(f"missing field {field_name!r}", code="schema")
    if not isinstance(doc["name"], str) or not isinstance(doc["spin"], bool):
        raise ValidationError("name must be a string, spin a boolean", code="schema")
    if not _is_int(doc["dim_real"]):
        raise ValidationError("dim_real must be an integer", code="schema")
    gens = []
    if not isinstance(doc["generators"], list):
        raise ValidationError("generators must be a list", code="schema")
    for g in doc["generators"]:
        try:
            sym, deg, cap = g["symbol"], g["degree"], g["cap"]
        except (TypeError, KeyError) as exc:
            raise ValidationError(f"malformed generator {g!r}", code="schema") from exc
        if not (_is_int(deg) and deg in (2, 4)) or not _is_int(cap) or cap < 1:
            raise ValidationError(
                f"generator {sym!r}: degree must be 2 or 4 and cap >= 1", code="schema"
            )
        gens.append(Generator(str(sym), deg, cap))
    if len({g.symbol for g in gens}) != len(gens):
        raise ValidationError("duplicate generator symbols", code="schema")
    pairing = _rational(doc["pairing"])
    t = doc["tangent"]
    if not isinstance(t, dict) or t.get("style") not in (CHERN, PONTRYAGIN):
        raise ValidationError('tangent.style must be "chern" or "pontryagin"', code="schema")
    if not _is_int(t.get("delta")):
        raise ValidationError("tangent.delta must be an integer", code="schema")
    if not isinstance(t.get("entries", []), list):
        raise ValidationError("tangent.entries must be a list", code="schema")
    entries = []
    for e in t.get("entries", []):
        try:
            form, mult = e["form"], e["mult"]
        except (TypeError, KeyError) as exc:
            raise ValidationError(f"malformed tangent entry {e!r}", code="schema") from exc
        if not _is_int(mult) or mult == 0:
            raise ValidationError("entry mult must be a nonzero integer", code="schema")
        if not form:
            raise ValidationError("entry form must be a non-empty mapping", code="schema")
        form_degree = 2 if t["style"] == CHERN else 4  # a root, or a squared root
        entries.append(TangentEntry(parse_form(form, gens, form_degree), mult, t["style"]))
    cohomology = CohomologyModel(tuple(gens), pairing)
    if cohomology.dim_real != doc["dim_real"]:
        raise ValidationError(
            f"{doc['name']}: generator degrees sum to {cohomology.dim_real}, "
            f"declared dimension is {doc['dim_real']}",
            code="dimension-mismatch",
        )
    model = ManifoldModel(
        name=doc["name"],
        cohomology=cohomology,
        tangent=TangentData(tuple(entries), t["delta"]),
        spin=doc["spin"],
    )
    return model.validate_dimensions()


def dump_model(model: ManifoldModel) -> dict:
    """Schema dict for a single-style model (round-trips through load_model)."""
    style = model.tangent.style
    if style not in (CHERN, PONTRYAGIN):
        raise StructuralError("mixed-style models have no file representation")
    return {
        "name": model.name,
        "dim_real": model.dim_real,
        "spin": model.spin,
        "generators": [
            {"symbol": g.symbol, "degree": g.degree, "cap": g.cap}
            for g in model.cohomology.generators
        ],
        "pairing": format_fraction(model.cohomology.pairing),
        "tangent": {
            "style": style,
            "delta": model.tangent.delta,
            "entries": [
                {
                    "form": {s: format_fraction(as_fraction(c)) for s, c in e.form.items()},
                    "mult": e.mult,
                }
                for e in model.tangent.entries
            ],
        },
    }


def parse_form(form, generators, degree: int) -> dict:
    """A {symbol: rational} linear form in degree-`degree` generators, from its JSON value."""
    if not isinstance(form, dict):
        raise ValidationError(f"form {form!r} is not a mapping", code="schema")
    parsed = {}
    for sym, c in form.items():
        if (sym, degree) not in {(g.symbol, g.degree) for g in generators}:
            raise ValidationError(f"form uses {sym!r}, not a degree-{degree} generator", code="schema")
        parsed[sym] = _rational(c)
    return parsed


def _rational(value) -> Fraction:
    """A rational of a model or action file: a "p/q" string or a JSON number."""
    try:
        return read_fraction(str(value))
    except ValueError:
        raise ValidationError(f"not a rational literal: {value!r}", code="schema") from None


def _is_int(value) -> bool:
    """An int that is not a bool (JSON true/false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _json_object(source) -> dict:
    """The JSON object of a model or action file path, or a dict as it is."""
    if isinstance(source, dict):
        return source
    try:
        doc = read_json(path=source)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {source}: {exc}", code="invalid") from exc
    except ValueError as exc:
        raise ValidationError(f"not valid JSON: {exc}", code="schema") from exc
    if not isinstance(doc, dict):
        raise ValidationError("top-level JSON value must be an object", code="schema")
    return doc
