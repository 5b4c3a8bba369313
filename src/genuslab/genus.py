"""Level-2 elliptic genus engine.

The genus is determined by its logarithm

    g(u) = integral_0^u dt / sqrt(1 - 2*delta*t^2 + epsilon*t^4),

with the signature at (delta, epsilon) = (1, 1) and the A-hat genus at
(-1/8, 0); the generic case keeps delta, epsilon as polynomial generators of
weight 2 and 4.  The characteristic series is Q(x) = x / f(x) with f = g^{-1}.
From f'^2 = 1 - 2*delta*f^2 + epsilon*f^4, differentiating gives

    f'' = -2*delta*f + 2*epsilon*f^3,    f(0) = 0, f'(0) = 1,

so f = u + sum a_n u^n with (n+2)(n+1) a_(n+2) = -2*delta*a_n + 2*epsilon*[u^n] f^3.
f is odd, and [u^n] f^3 = sum_i a_i [u^(n-i)] f^2 over odd i, where the even
coefficients [u^m] f^2 = sum_i a_i a_(m-i) need only a_j with j < m: each step
is a few base-ring sums over coefficients already known.  Q is even, so it
also takes Pontryagin-style root data, which only knows squared roots, once
rewritten in v = x^2.

Each cusp (signature, A-hat) names a genus spec and an index density per root
pair +-x:

    A-hat:      x / (e^{x/2} - e^{-x/2})
    signature:  x * (1 + e^{-x}) / (1 - e^{-x})        (= x*coth(x/2))

`twisted_index` pairs a density with the character of one of four single
bundles, < density(roots) * ch(word), [M] >, a rational.  `cusp_series` pairs
it with the cusp's infinite loop-space word, which attaches per root pair and
q-level n

    loop word (signature cusp):   (1+q^n e^x)(1+q^n e^-x) / ((1-q^n e^x)(1-q^n e^-x))
    A-hat-cusp word:              (1-q^n e^x)(1-q^n e^-x)  for odd n,
                                  its inverse               for even n,

so its q^n coefficients are twisted indices of the bundles that the word
collects at q-level n.

`index_density` builds every density, keyed by its cusp, from one theta
quotient.  By the Jacobi triple product (Hirzebruch-Berger-Jung ch. 6; Zagier
1988), with s^2 = q and
Theta_+-(z) = sum_(n >= 0) (+-1)^n s^(n(n+1)) (z^n +- z^(-n-1)),

    loop word * signature density   = Theta_+(e^x) / (Theta_-(e^x) / x),
    A-hat-cusp word * A-hat density = sum_(n in Z) (-1)^n s^(2n^2) e^((n-1/2)x)
                                      / (sum_(n in Z) (-1)^n s^(2n(n+1)) e^(nx) / x),

where both denominators vanish at x = 0.  Over q-series these are the word
densities; the q-free densities of the single-bundle twists are their s^0
columns, e.g. (1 + e^-x) / ((1 - e^-x) / x) = x*coth(x/2), so over Q the same
quotient runs over series known below s^1.  `theta_quotient` divides two such
sums, each (den, rden, terms) with integer terms (e, re, im, r) for
(re + i im)/den s^e e^(r x/rden), at most two per s-exponent.  Column k of the
numerator P and denominator D is sum (re + i im) r^k s^e / (den rden^k k!),
from int products alone, and N_n = D_0^-1 (P_n - sum_(j >= 1) D_j N_(n-j))
takes one inverse, with denominator a_0^order for the s^0 numerator a_0 of D_0
over den.  The densities have den = 1 (rden = 2 for the A-hat half-integer
exponents).  In the localization N-factor Theta_+(a e^x) / Theta_-(a e^x) the
terms carry a^n and a^(-n-1) at s^(n(n+1)), and a_0 grows like
(den(a) den(1/a))^sqrt(order); so `theta_terms` gives them at s -> C s with
C = den(a) den(1/a), where only the s^0 terms 1 +- 1/a keep a denominator, the
one den = den(1/a): with a = (p + qi)/d and 1/a = (u + vi)/d', each term times
d' is (p + qi)^n d^(e-n) d'^(e+1) or (u + vi)^(n+1) d^e d'^(e-n) at e = n(n+1),
a Gaussian integer.  `QSeries.rescale` scales back exactly.  Genus values, word
densities and bundle characters all reach the tangent roots through
`manifolds.root_product` and `root_sum`.

`char_series`, `genus_value`, `index_density` and `cusp_series` here, and
`manifolds.euler_characteristic`, are `functools.cache`d for the life of the
process, keyed by genus specs, models (hashable as the `manifolds` docstring
states), cusps, orders and base rings.  A spec holds rationals or the generic
generators, so equal specs share one base ring.  The values are immutable, so
every caller may share them.  The suites of `verify --suite all` ask for the
same values again and again: the catalog self-checks and the A-hat-vanishing
and expansion suites evaluate the same A-hat genera, the generating and
modularity suites the same generic genera, the catalog self-checks and the
euler suite the same Euler characteristics, and the cusp bootstrap and the
modularity, rigidity and expansion checks take the same cusp series, the
expansion checks at the job's q-order.  One process computes each of them once.

These and the package's other process caches are all `functools` caches: the
others are `manifolds._build` (the catalog), `cusp.generator_expansions`, and
`localization.sample_power` and `localization._n_factor` (the N-factors).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, isqrt
from typing import NamedTuple

from .errors import InternalInconsistencyError, ResourceCapError, StructuralError
from .manifolds import ManifoldModel, builtin, root_product, root_sum
from .rings import QQ, as_fraction
from .series import PolyRing, QSeries, SeriesRing, TruncPoly, _numerators, _series

# Generic coefficient ring Q[delta, epsilon]; weight(delta) = 2, weight(epsilon) = 4,
# so caps (12, 6) cover every manifold of real dimension <= 48.
GENERIC_RING = PolyRing(("delta", "epsilon"), (12, 6), QQ)


class GenusSpec(NamedTuple):
    """Level-2 genus parameters; rationals or the generic generators."""

    delta: object
    epsilon: object

    @classmethod
    def generic(cls) -> "GenusSpec":
        return cls(GENERIC_RING.gen("delta"), GENERIC_RING.gen("epsilon"))

    @classmethod
    def signature(cls) -> "GenusSpec":
        return cls(Fraction(1), Fraction(1))

    @classmethod
    def ahat(cls) -> "GenusSpec":
        return cls(Fraction(-1, 8), Fraction(0))

    @classmethod
    def named(cls, name: str) -> "GenusSpec":
        try:
            return {"generic": cls.generic, "signature": cls.signature, "ahat": cls.ahat}[name]()
        except KeyError:
            raise StructuralError(f"unknown genus spec {name!r}") from None

    @property
    def base_ring(self):
        return GENERIC_RING if isinstance(self.delta, TruncPoly) else QQ


# The two cusps, each with its genus spec, index density and loop-space word,
# and the four single bundles that `twisted_index` pairs with a density.
SIGNATURE_CUSP = "signature"
AHAT_CUSP = "ahat"
TANGENT = "tangent"                      # complexified real tangent bundle
EXT2_PLUS_TANGENT = "ext2-plus-tangent"  # Lambda^2 TM + TM, complexified
TANGENT_CHERN = "tangent-chern"          # T + C^delta, not T: ch = sum mult*e^form, no delta correction
TRIVIAL = "trivial"

_BUNDLES = {TANGENT, EXT2_PLUS_TANGENT, TANGENT_CHERN, TRIVIAL}


class IndexSeries(NamedTuple):
    """A q-expansion of twisted indices of a manifold of dimension 4k."""

    series: QSeries
    k: int


# -- characteristic series ------------------------------------------------------


@cache
def char_series(spec: GenusSpec, order: int) -> TruncPoly:
    """Q(x) = x / f(x) to x-order `order`; even in x.

    f's odd coefficients a_n, n <= order + 1, come from the scalar recurrence
    in the module docstring.
    """
    zero = spec.base_ring.zero()
    a = {1: spec.base_ring.one()}
    square = {}  # [u^m] f^2 for even m
    for n in range(1, order, 2):
        square[n - 1] = sum((a[i] * a[n - 1 - i] for i in range(1, n - 1, 2)), zero)
        cube = sum((a[i] * square[n - i] for i in range(1, n + 1, 2)), zero)
        rhs = cube * (2 * spec.epsilon) - a[n] * (2 * spec.delta)
        a[n + 2] = rhs * Fraction(1, (n + 1) * (n + 2))
    return TruncPoly(PolyRing(("u",), (order,), spec.base_ring), {(n - 1,): c for n, c in a.items()}).inverse()


def _divide_by_var(p: TruncPoly) -> TruncPoly:
    """p/x for univariate p with zero constant term, in p's ring."""
    if not p.ring.base.is_zero(p.constant_term()):
        raise StructuralError("cannot divide by the variable: nonzero constant term")
    return TruncPoly(p.ring, {(e - 1,): c for (e,), c in p.coeffs.items() if e >= 1})


# -- genus values --------------------------------------------------------------


@cache
def genus_value(spec: GenusSpec, model: ManifoldModel):
    """Evaluate the genus on a manifold model (exact scalar or delta/epsilon poly).

    It is 0 in real dimensions not divisible by 4, which carry no Pontryagin
    numbers (Q is even).
    """
    if model.dim_real % 4:
        return spec.base_ring.zero()
    weight_cap = min(GENERIC_RING.caps[0], 2 * GENERIC_RING.caps[1])  # delta^k, epsilon^(k/2)
    if isinstance(spec.delta, TruncPoly) and model.dim_real // 4 > weight_cap:
        raise ResourceCapError(
            f"the generic genus of {model.name} has weight {model.dim_real // 4}; the "
            f"delta/epsilon ring holds weight <= {weight_cap} (real dimension <= {4 * weight_cap})"
        )
    Q = char_series(spec, _density_limits(model))
    return model.integrate(*root_product(model, Q))


def legendre_coefficient(spec: GenusSpec, k: int):
    """The t^{2k} coefficient of (1 - 2 delta t^2 + epsilon t^4)^(-1/2).

    It is epsilon^(k/2) P_k(delta / sqrt(epsilon)) for the Legendre polynomial
    P_k: the sum over j <= k/2 of
    (-1)^j (2k-2j)! / (2^k j! (k-j)! (k-2j)!) delta^(k-2j) epsilon^j.
    """
    return sum(
        (
            spec.delta ** (k - 2 * j) * spec.epsilon ** j * Fraction(
                (-1) ** j * factorial(2 * k - 2 * j),
                2 ** k * factorial(j) * factorial(k - j) * factorial(k - 2 * j),
            )
            for j in range(k // 2 + 1)
        ),
        spec.base_ring.zero(),
    )


def cp_generating_check(spec: GenusSpec, kmax: int) -> bool:
    """Genus of CP^{2k} against the t^{2k} coefficient of the defining series."""
    for k in range(0, kmax + 1):
        model = builtin("pt") if k == 0 else builtin(f"CP{2 * k}")
        if genus_value(spec, model) != legendre_coefficient(spec, k):
            return False
    return True


# -- index densities -----------------------------------------------------------


def _exp_x(ring: PolyRing, scale: Fraction) -> TruncPoly:
    """e^{scale*x} as a univariate polynomial with constant coefficients."""
    scale = as_fraction(scale)
    coeffs = (scale ** j / factorial(j) for j in range(ring.caps[0] + 1))
    return TruncPoly(ring, {(j,): ring.base.const(c) for j, c in enumerate(coeffs)})


def theta_terms(S: SeriesRing, a) -> tuple:
    """(num, den, scale) of `theta_quotient` for Theta_+(a e^x) / Theta_-(a e^x), from int pairs."""
    d, (p,), im = _numerators(S, [a])
    q = im[0] if im else 0
    g = gcd(d * p, d * q, p * p + q * q)  # 1/a = d (p - qi) / (p^2 + q^2) = (u + vi) / d'
    u, v, d_inv = d * p // g, -d * q // g, (p * p + q * q) // g
    plus, x, y, z, w = [], 1, 0, u, v  # x + yi = (p + qi)^n, z + wi = (u + vi)^(n+1)
    for n in range(isqrt(S.order) + 1):  # n(n+1) >= order once n > isqrt(order)
        e = n * n + n
        f, h = d ** (e - n) * d_inv ** (e + 1), d ** e * d_inv ** (e - n)  # a^n, a^(-n-1) times scale^e d'
        plus += [(e, x * f, y * f, n), (e, z * h, w * h, -n - 1)]
        x, y, z, w = x * p - y * q, x * q + y * p, z * u - w * v, z * v + w * u
    minus = [(e, x, y, r) if r % 2 == 0 else (e, -x, -y, r) for e, x, y, r in plus]  # Theta_-: sign (-1)^r
    return (d_inv, 1, plus), (d_inv, 1, minus), d * d_inv


def theta_quotient(X: PolyRing, num, den, scale: int = 1) -> TruncPoly:
    """(sum over `num`) / (sum over `den`) in X = S[x], from sums (den, rden, terms) given at s -> scale * s.

    The denominator gets one more x-order, so that a zero x^0 column can be
    divided out; the quotient is scaled back to s (module docstring).
    """
    S, cap = X.base, X.caps[0]
    P, D = _theta_columns(S, num, cap), _theta_columns(S, den, cap + 1)
    D = D[1:] if D[0].is_zero() else D
    inv, N = D[0].inverse(), []
    for n in range(cap + 1):
        N.append(inv * (P[n] - sum((D[j] * N[n - j] for j in range(1, n + 1)), S.zero())))
    return TruncPoly(X, {(n,): c.rescale(Fraction(1, scale)) for n, c in enumerate(N)})  # drops zero columns


def _theta_columns(S: SeriesRing, theta, cap: int) -> list:
    """The x^k columns, k <= cap, of a sum (den, rden, terms) as in the module docstring, over e < S.order."""
    den, rden, terms = theta
    terms = [t for t in terms if t[0] < S.order]

    def column(part, k):  # sum of the numerators t[part] (1: re, 2: im) times r^k, at their s-exponents
        out = [0] * S.order
        for t in terms:
            out[t[0]] += t[part] * t[3] ** k
        return out

    return [_series(S, 0, den * rden ** k * factorial(k), column(1, k), column(2, k) if S.gaussian else None,
                    S.order) for k in range(cap + 1)]


@cache
def index_density(cusp: str, xmax: int, base) -> TruncPoly:
    """Per-root-pair density of the `cusp` index as a univariate series in x over `base`.

    Over a SeriesRing it is the word density, the theta quotient of the module
    docstring; over Q it is the q-free density, the s^0 column of that quotient.
    """
    S = base if isinstance(base, SeriesRing) else SeriesRing(QQ, 1)
    if cusp == SIGNATURE_CUSP:
        theta = theta_terms(S, 1)
    elif cusp == AHAT_CUSP:
        ns = range(-isqrt(S.order), isqrt(S.order) + 1)
        theta = ((1, 2, [(2 * n * n, (-1) ** abs(n), 0, 2 * n - 1) for n in ns]),
                 (1, 1, [(2 * n * n + 2 * n, (-1) ** abs(n), 0, n) for n in ns]))
    else:
        raise StructuralError(f"unknown density {cusp!r}")
    dens = theta_quotient(PolyRing(("x",), (xmax + xmax % 2,), S), *theta)
    if S is base:
        return dens
    return TruncPoly(PolyRing(("x",), dens.ring.caps, base), {e: c.coefficient(0) for e, c in dens.coeffs.items()})


def _density_limits(model: ManifoldModel) -> int:
    """x-order needed so every root substitution is exact under the caps."""
    xc = sum(g.cap for g in model.cohomology.generators if g.degree == 2)
    vc = sum(g.cap for g in model.cohomology.generators if g.degree == 4)
    return max(1, xc, 2 * vc)


def word_factor_product(model: ManifoldModel, cusp: str, base):
    """Tangent product of the `cusp` density over `base`, as the pair `root_product` returns."""
    if not model.tangent.entries and not model.tangent.delta:  # no tangent roots: 1, and no density
        return model.poly_ring(base).one(), None
    return root_product(model, index_density(cusp, _density_limits(model), base))


# -- twisted indices -----------------------------------------------------------


def twisted_index(cusp: str, model: ManifoldModel, word: str) -> Fraction:
    """< density * ch(word), [M] > for the `cusp` density and a single bundle `word`: q-free, rational."""
    if word not in _BUNDLES:
        raise StructuralError(f"unsupported twist word {word!r}")
    total, scalar = word_factor_product(model, cusp, QQ)
    return model.integrate(total * _bundle_character(model, word), scalar)


def _bundle_character(model: ManifoldModel, word: str):
    """ch(word) from the tangent roots; the trivial bundle is the constant 1.

    With E = TM_C and its Adams operations psi^k E, of roots the pairs +-k x
    less the 2 delta trivial roots, the lambda-ring identity
    Lambda^2 E = (E^2 - psi^2 E) / 2 gives ext2-plus-tangent from ch(E) and
    ch(psi^2 E).
    """
    if word == TRIVIAL:
        return 1
    X = PolyRing(("x",), (_density_limits(model),), QQ)
    if word == TANGENT_CHERN:
        return root_sum(model, _exp_x(X, 1))

    def adams(k):
        return root_sum(model, _exp_x(X, k) + _exp_x(X, -k)) - 2 * model.tangent.delta

    tangent = adams(1)
    if word == TANGENT:
        return tangent
    return tangent + (tangent * tangent - adams(2)) * Fraction(1, 2)


# -- cusp expansion series ------------------------------------------------------


@cache
def cusp_series(model: ManifoldModel, cusp: str, qorder: int) -> IndexSeries:
    """The raw weight-2k index series at `cusp`, < word density, [M] >, known below q^(qorder+1).

    At the A-hat cusp this is q^(k/2) phi_0, Witten's series without its
    q^(-k/2) prefactor; at the signature cusp, the loop-space signature series.
    """
    S = SeriesRing(QQ, 2 * qorder + 2)
    if model.dim_real % 4:
        return IndexSeries(S.zero(), 0)
    return IndexSeries(model.integrate(*word_factor_product(model, cusp, S)), model.dim_real // 4)


def pole_order(series: QSeries):
    """-(lowest nonzero s-exponent)/2 in q-units; None when zero to order."""
    e = series.lowest_exponent()
    if e is None:
        return None
    return Fraction(-e, 2)


# -- hypersurface closed form ----------------------------------------------------


def hypersurface_index_closed(n: int) -> Fraction:
    """A-hat index of degree-n hypersurfaces twisted by T + C, the holomorphic tangent plus a trivial line.

    The twist is TANGENT_CHERN, whose character (n + 2) e^h - e^(n h) is that
    of T + C on a hypersurface (delta 1), so the value is the index twisted
    by T plus the A-hat genus.

    Three pipelines must agree: a residue computation in h, a coefficient
    extraction after the substitution w = e^h - 1, and the direct twisted
    index on the catalog model; returns the common value.
    """
    if n < 2 or n % 2:
        raise StructuralError("closed form applies to even n >= 2")
    # (a) residue of n*B/h^{n+1}: the h^n coefficient of B, times n
    H = PolyRing(("h",), (n + 2,), QQ)
    half_diff = _exp_x(H, Fraction(1, 2)) - _exp_x(H, Fraction(-1, 2))
    ahat_factor = _divide_by_var(half_diff).inverse() ** (n + 2)
    n_diff = _exp_x(H, Fraction(n, 2)) - _exp_x(H, Fraction(-n, 2))
    mid = _divide_by_var(n_diff) * Fraction(1, n)
    tail = _exp_x(H, 1) * (n + 2) - _exp_x(H, n)
    B = ahat_factor * mid * tail
    residue = B.coefficient((n,)) * n
    # (b) coefficient of w^{n+1} in ((1+w)^n - 1)((n+2)(1+w) - (1+w)^n)
    W = PolyRing(("w",), (n + 1,), QQ)
    w1 = W.one() + W.gen("w")
    poly = (w1 ** n - 1) * (w1 * (n + 2) - w1 ** n)
    wcoeff = poly.coefficient((n + 1,))
    # (c) direct twisted index on the catalog hypersurface
    direct = twisted_index("ahat", builtin(f"V({n},{n})"), TANGENT_CHERN)
    if not (residue == wcoeff == direct):
        raise InternalInconsistencyError(
            f"hypersurface index pipelines disagree for n={n}: "
            f"residue={residue}, w-coefficient={wcoeff}, direct={direct}"
        )
    return residue


def hypersurface_index_closed_form_value(n: int) -> Fraction:
    """The closed form n + 2 - C(2n, n+1) (for comparison in callers/tests)."""
    return Fraction(n + 2 - comb(2 * n, n + 1))
