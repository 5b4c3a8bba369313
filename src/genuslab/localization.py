"""Lefschetz fixed-point computation of equivariant twisted-signature series.

A circle action is given by its fixed components: each carries a manifold
model (possibly a point) and the normal data, a list of complex line summands
(first Chern class as a linear form in the component's generators, nonzero
integer rotation weight).  At an exact sample value lambda (rational, or
Gaussian rational for order-4 points) the local term of a component X is

    < T-factors(tangent roots of X) * N-factors(normal summands), [X] >

with the loop-space signature density as T-factor and, per normal summand
(y, w) and q-level n, a factor that depends on lam only through a = lam^w:

    N_a = (1 + a^-1 e^-y) / (1 - a^-1 e^-y)
          * prod_n (1 + q^n a e^y)(1 + q^n a^-1 e^-y)
                 / ((1 - q^n a e^y)(1 - q^n a^-1 e^-y)).

The Jacobi triple product writes Theta_+-(z) (the `genus` docstring) as
prod_n (1 - q^n)(1 +- q^n z)(1 +- q^(n-1)/z), so N_a(y) = Theta_+(z) / Theta_-(z)
at z = a e^y: `_n_factor` hands `theta_terms` of a to `theta_quotient`,
which runs the division at s -> den(a) den(1/a) s.  Replacing (a, y) by
(1/a, -y) swaps the level factors and negates the q-free one, so
N_(1/a)(y) = -N_a(-y): one build serves {a, 1/a} per (q-order, y-cap), and
`local_term` composes it with each summand's Chern form.  `sample_power`
computes lam^w once per sample and weight, for `check_admissible` and for
`normal_factor`'s a alike.  The N-factors are `functools.cache`d per (series
ring, y-cap, a).  Of {a, 1/a}, the first in (re, im) order is built, whichever
of the two is asked for first, and the other is derived from it, so lam = i
and lam = -i share their builds too.  A point component has y-cap 0: its local term
multiplies the constant series of its N-factors, with no composition, and its
empty tangent product builds no density (`genus.word_factor_product`).

An action reads its dimension and spin from its ambient model.  The records
check nothing themselves: every builtin and `load_action` returns its action
through `CircleActionData.validate`, which requires dim + codim = the ambient
model's dimension for each fixed component and a nonzero weight for each
normal summand (`load_action` checks the file's schema before it).
`cpn_linear_action` also checks its recipe's fixed components against the
Euler characteristic of CP^n; a builtin that fails it is a bug, not bad input,
so the failure is an `InternalInconsistencyError`.

Sample points are admissible when no lam^w = 1 for an occurring weight w.
Rigidity compares the series of exact samples of either field directly, by
value across Q ⊂ Q(i) (`QSeries` equality), which certifies less than their
number suggests.  The bundles are real, so each q^N coefficient of the
equivariant series is a Laurent polynomial P_N with P_N(1/lam) = P_N(lam): a
sample counts only through t = lam + 1/lam (lam and 1/lam, or i and -i, are
one).  log N_a carries a^m at q^N only for m <= N, the q-free factor stays
bounded as lam -> 0 or infinity and the tangent word is free of lam, so
deg P_N <= N w_max for the largest |weight| w_max: certifying q^0..q^Q needs
Q w_max + 1 samples with distinct t.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .errors import InternalInconsistencyError, ValidationError
from .genus import SIGNATURE_CUSP, cusp_series, theta_quotient, theta_terms, word_factor_product
from .manifolds import ManifoldModel, _is_int, _read_json, builtin, euler_characteristic, load_model, parse_form
from .rings import I_UNIT, QI, QQ, GaussianRational
from .series import PolyRing, QSeries, SeriesRing, TruncPoly


class NormalSummand(NamedTuple):
    chern: dict          # {symbol: Fraction} in the component's generators
    weight: int


class FixedComponent(NamedTuple):
    model: ManifoldModel
    normal: tuple[NormalSummand, ...]

    @property
    def codim(self) -> int:
        return 2 * len(self.normal)

    def weights(self) -> list[int]:
        return [s.weight for s in self.normal]


class CircleActionData(NamedTuple):
    components: tuple[FixedComponent, ...]
    ambient_model: ManifoldModel
    name: str = ""

    def validate(self) -> "CircleActionData":
        for comp in self.components:
            if 0 in comp.weights():
                raise ValidationError("normal rotation weights must be nonzero", code="invalid")
            if comp.model.dim_real + comp.codim != self.ambient_model.dim_real:
                raise ValidationError(
                    f"component {comp.model.name}: dim {comp.model.dim_real} + "
                    f"codim {comp.codim} != ambient {self.ambient_model.dim_real}",
                    code="dimension-mismatch",
                )
        return self


def detect_parity(action: CircleActionData):
    """'even' if every fixed codimension is 0 mod 4, 'odd' if 2 mod 4, else None."""
    residues = {comp.codim % 4 for comp in action.components}
    if residues <= {0}:
        return "even"
    if residues <= {2}:
        return "odd"
    return None


def odd_action_forces_zero(action: CircleActionData) -> bool:
    """Spin ambient with odd action: the normalized genus vanishes identically."""
    return action.ambient_model.spin and detect_parity(action) == "odd"


# -- sample points -------------------------------------------------------------


def base_ring_for(lam):
    return QI if isinstance(lam, GaussianRational) else QQ


def check_admissible(action: CircleActionData, lam) -> None:
    """No lambda^w may equal 1 for any occurring weight w."""
    base = base_ring_for(lam)
    lam = base.const(lam)
    if lam == 1 or base.is_zero(lam):
        raise ValidationError(f"sample {lam} is not admissible", code="inadmissible")
    for w in (w for comp in action.components for w in comp.weights()):
        if sample_power(base, lam, w) == 1:
            raise ValidationError(f"sample {lam} is inadmissible: lambda^{w} = 1", code="inadmissible")


@cache
def sample_power(base, lam, weight: int):
    """lam^weight in `base`, computed once per sample and weight."""
    return base.const(lam) ** weight


# -- local terms ----------------------------------------------------------------


def normal_factor(S: SeriesRing, cap: int, lam, weight: int) -> TruncPoly:
    """N-factor N_a, a = lam^weight, of a normal summand as a series in y over S to y^cap."""
    a = sample_power(S.base, lam, weight)
    if a == 1:
        raise ValidationError(f"sample inadmissible on weight {weight}", code="inadmissible")
    return _n_factor(S, cap, a)


@cache
def _n_factor(S: SeriesRing, cap: int, a) -> TruncPoly:
    """N_a to y^cap: built for the first of {a, 1/a} in (re, im) order, the other as N_a(y) = -N_(1/a)(-y)."""
    inv = S.base.invert(a)
    if _re_im(inv) < _re_im(a):
        flipped = _n_factor(S, cap, inv)
        return TruncPoly(flipped.ring, {(n,): c if n % 2 else -c for (n,), c in flipped.coeffs.items()}, _clean=True)
    # s -> den(a) den(1/a) s clears every denominator but those of the s^0 terms
    return theta_quotient(PolyRing(("y",), (cap,), S), *theta_terms(S, a))


def _re_im(a) -> tuple:
    return (a.re, a.im) if isinstance(a, GaussianRational) else (a, 0)


def local_term(component: FixedComponent, lam, qorder: int) -> QSeries:
    """Equivariant local contribution of one fixed component at sample lam."""
    base = base_ring_for(lam)
    lam = base.const(lam)
    S = SeriesRing(base, 2 * qorder + 2)
    model = component.model
    ring = model.poly_ring(S)
    cap = sum(ring.caps)
    total, scalar = word_factor_product(model, SIGNATURE_CUSP, S)
    for summand in component.normal:
        factor = normal_factor(S, cap, lam, summand.weight)
        total = total * (factor.compose(ring.linear_form(summand.chern)) if cap else factor.constant_term())
    return model.integrate(total, scalar)


def equivariant_series(action: CircleActionData, lam, qorder: int) -> QSeries:
    """Sum of the local terms over all fixed components."""
    check_admissible(action, lam)
    terms = [local_term(comp, lam, qorder) for comp in action.components]
    return sum(terms[1:], terms[0])


# -- rigidity -------------------------------------------------------------------


class RigidityReport(NamedTuple):
    action: str
    samples: tuple
    qorder: int
    spin: bool
    all_samples_equal: bool
    matches_loop_series: bool | None
    q0_constant: bool
    status: str  # PASS / FAIL / OBSERVATIONAL
    series: str  # repr of the first sample's series


def rigidity_check(action: CircleActionData, samples, qorder: int) -> RigidityReport:
    """Evaluate the localization sum at several exact samples and compare.

    Spin ambient: equality across samples and with the nonequivariant series
    is asserted (FAIL signals a bug or bad fixed-point data).  Non-spin
    ambient: the q^0 coefficient must still be constant (signature rigidity);
    higher coefficients are reported observationally.
    """
    samples = tuple(samples)
    if not samples:
        raise ValidationError("rigidity check needs at least one sample", code="invalid")
    values = [equivariant_series(action, s, qorder) for s in samples]
    all_equal = all(values[0] == v for v in values[1:])
    q0s = [v.coefficient(0) for v in values]
    q0_constant = all(c == q0s[0] for c in q0s)
    matches = None
    if action.ambient_model.dim_real % 4 == 0:
        loop = cusp_series(action.ambient_model, SIGNATURE_CUSP, qorder).series
        matches = all(v == loop for v in values)
        q0_constant = q0_constant and q0s[0] == loop.coefficient(0)
    if action.ambient_model.spin:
        status = "PASS" if all_equal and matches in (True, None) else "FAIL"
    else:
        status = "OBSERVATIONAL" if q0_constant else "FAIL"
    return RigidityReport(
        action=action.name,
        samples=samples,
        qorder=qorder,
        spin=action.ambient_model.spin,
        all_samples_equal=all_equal,
        matches_loop_series=matches,
        q0_constant=q0_constant,
        status=status,
        series=repr(values[0]),
    )


def order4_local_identities(qorder: int) -> dict:
    """The two exact identities for order-4 sample points.

    * a normal pair with opposite roots y, -y at lambda = i multiplies to the
      constant -1 (every q-level cancels);
    * an isolated point with all weights +-1 in ambient dimension 4k
      contributes exactly (-1)^k, again with all q-levels cancelling.
    """
    factor = normal_factor(SeriesRing(QI, 2 * qorder + 2), 3, I_UNIT, 1)
    pair_product = factor * factor.compose(-factor.ring.gen("y"))  # the second root is -y
    pair_is_minus_one = pair_product == -factor.ring.one()

    point = FixedComponent(builtin("pt"), tuple(NormalSummand({}, 1) for _ in range(4)))
    term = local_term(point, I_UNIT, qorder)
    point_value = term.coefficient(0)
    point_is_unit = term.support() == [0] and point_value in (QI.one(), -QI.one())
    return {
        "normal_pair_is_minus_one": pair_is_minus_one,
        "point_term_is_plus_minus_one": point_is_unit,
        "point_term_value": point_value,
    }


def euler_fixed_check(action: CircleActionData) -> bool:
    """Sum of component Euler characteristics against the ambient one.

    The components and the ambient model all need Chern-style tangent data.
    """
    total = sum(euler_characteristic(comp.model) for comp in action.components)
    return total == euler_characteristic(action.ambient_model)


# -- builtin actions --------------------------------------------------------------


_ACTION_RE = re.compile(r"^(CP|HP)(\d+)_(linear|diagonal)\((\s*-?\d+\s*(?:,\s*-?\d+\s*)*)\)$")  # integer weights


def builtin_action(name: str) -> CircleActionData:
    """CPn_linear(m0,...,mn) or HPn_diagonal(a0,...,an)."""
    m = _ACTION_RE.match(name.strip())
    if not m:
        raise ValidationError(f"unknown builtin action {name!r}", code="invalid")
    family, n, kind, arglist = m.group(1), int(m.group(2)), m.group(3), m.group(4)
    weights = [int(a) for a in arglist.split(",")]
    if len(weights) != n + 1:
        raise ValidationError(
            f"{family}{n} action needs {n + 1} weights, got {len(weights)}", code="invalid"
        )
    if family == "CP" and kind == "linear":
        return cpn_linear_action(weights, name)
    if family == "HP" and kind == "diagonal":
        return hpn_diagonal_action(weights, name)
    raise ValidationError(f"unknown builtin action {name!r}", code="invalid")


def cpn_linear_action(weights, name: str) -> CircleActionData:
    """Linear circle action on CP^n with the given coordinate weights.

    Fixed components are the sub-projective spaces on equal-weight index
    groups; the normal summand toward coordinate j has Chern class h and
    rotation weight m_j - m_group.
    """
    n = len(weights) - 1
    if n < 1:
        raise ValidationError("CP^n action needs n >= 1", code="invalid")
    ambient = builtin(f"CP{n}")
    groups: dict[int, list[int]] = {}
    for idx, w in enumerate(weights):
        groups.setdefault(w, []).append(idx)
    components = []
    for value in sorted(groups):
        idxs = groups[value]
        size = len(idxs) - 1
        model = builtin("pt") if size == 0 else builtin(f"CP{size}")
        normal = []
        h = {"h": Fraction(1)} if size > 0 else {}
        for j, wj in enumerate(weights):
            if j in idxs:
                continue
            normal.append(NormalSummand(dict(h), wj - value))
        components.append(FixedComponent(model, tuple(normal)))
    action = CircleActionData(
        components=tuple(components),
        ambient_model=ambient,
        name=name,
    ).validate()
    if not euler_fixed_check(action):
        raise InternalInconsistencyError(
            f"builtin action {name}: fixed-point data fails the Euler-characteristic check"
        )
    return action


def hpn_diagonal_action(weights, name: str) -> CircleActionData:
    """Diagonal circle action on HP^n with distinct positive weights.

    Isolated fixed points; the complex tangent weights at point i are
    {a_j - a_i, -(a_j + a_i) : j != i}.  The recipe is validated by the
    cancellation and epsilon-series tests, not assumed.
    """
    n = len(weights) - 1
    if n < 1:
        raise ValidationError("HP^n action needs n >= 1", code="invalid")
    if len(set(weights)) != len(weights) or any(a < 1 for a in weights):
        raise ValidationError(
            "HP^n diagonal actions need distinct weights >= 1", code="invalid"
        )
    ambient = builtin(f"HP{n}")
    pt = builtin("pt")
    components = []
    for i, ai in enumerate(weights):
        normal = []
        for j, aj in enumerate(weights):
            if j == i:
                continue
            normal.append(NormalSummand({}, aj - ai))
            normal.append(NormalSummand({}, -(aj + ai)))
        components.append(FixedComponent(pt, tuple(normal)))
    return CircleActionData(
        components=tuple(components),
        ambient_model=ambient,
        name=name,
    ).validate()


# -- action files -----------------------------------------------------------------


def _resolve_model_ref(ref):
    if ref == "point":
        return builtin("pt")
    if isinstance(ref, str):
        if ref.startswith("builtin:"):
            return builtin(ref[len("builtin:") :])
        raise ValidationError(f"bad model reference {ref!r}", code="schema")
    if isinstance(ref, dict):
        return load_model(ref)
    raise ValidationError(f"bad model reference {ref!r}", code="schema")


def load_action(source) -> CircleActionData:
    """Load an action description from a JSON path or dict."""
    doc = _read_json(source)
    for field_name in ("ambient", "components"):
        if field_name not in doc:
            raise ValidationError(f"missing field {field_name!r}", code="schema")
    ambient = _resolve_model_ref(doc["ambient"])
    components = []
    if not isinstance(doc["components"], list) or not doc["components"]:
        raise ValidationError("components must be a non-empty list", code="schema")
    for c in doc["components"]:
        if not isinstance(c, dict) or not isinstance(c.get("normal", []), list):
            raise ValidationError(f"malformed component {c!r}", code="schema")
        model = _resolve_model_ref(c.get("model", "point"))
        normal = []
        for s in c.get("normal", []):
            try:
                form, weight = s["chern"], s["weight"]
            except (TypeError, KeyError) as exc:
                raise ValidationError(f"malformed normal entry {s!r}", code="schema") from exc
            if not _is_int(weight) or weight == 0:
                raise ValidationError("weights must be nonzero integers", code="schema")
            # a line bundle's first Chern class has degree 2
            form = parse_form({} if form is None else form, model.cohomology.generators, 2)
            normal.append(NormalSummand(form, weight))
        components.append(FixedComponent(model, tuple(normal)))
    return CircleActionData(
        components=tuple(components),
        ambient_model=ambient,
        name=str(doc.get("name", "user action file")),
    ).validate()


def dump_action(action: CircleActionData) -> dict:
    """Schema dict for an action whose models, the ambient one included, are catalog entries."""
    def ref(model: ManifoldModel):
        return "point" if model.dim_real == 0 else f"builtin:{model.name}"

    return {
        "name": action.name,
        "ambient": ref(action.ambient_model),
        "components": [
            {
                "model": ref(c.model),
                "normal": [
                    {"chern": {s: str(v) for s, v in n.chern.items()}, "weight": n.weight}
                    for n in c.normal
                ],
            }
            for c in action.components
        ],
    }
