"""Property tests of QSeries against a dense coefficient-by-coefficient oracle.

`Dense` keeps a {s-exponent: Fraction or GaussianRational} map and the first
unknown exponent, and implements every operation with scalar arithmetic
only, following the guarantees of the `series` module docstring:

* a sum is known below the smaller order;
* a product of series known below oa and ob with lowest exponents la and lb
  is known below min(oa + lb, ob + la), where a known-zero series has its
  lowest exponent at its order;
* the inverse of a series known below o with lowest exponent l is known below
  o - 2l and starts at -l;
* shifting by k moves both the lowest exponent and the order by k;
* the zeroth power is 1, known below max(o, ring order);
* rescaling by a nonzero rational c multiplies the coefficient of s^e by c^e
  and keeps the order, for lowest exponent >= 0; any other series raises
  StructuralError.

Each case builds series through the public constructor from lists that may
carry leading and trailing zeros, may start at a negative exponent, and may
be zero, over Q and over Q(i).  Equality is by value across Q ⊂ Q(i): each
series is also compared with the same values built over the other base (a
series over Q copied to Q(i), the real part of a series over Q(i)), while
`+`, `-` and `*` across the two bases must raise StructuralError.

`TruncPoly` is checked the same way against {exponent vector: Fraction}
dicts: monomials past a cap are dropped after the full product, powers are
repeated products, and the inverse solves a * b = 1 monomial by monomial in
lexicographic order.  Operands of every coercible kind (int and Fraction
on either side, a polynomial of the base ring on the right) must act as
constants, and a polynomial or q-series of any other ring must raise
StructuralError.

`TruncPoly` powers over a `SeriesRing` (Miller's recurrence in the kernel)
are checked against the code it replaced, kept here as oracles: square and
multiply from one, with negative powers through the geometric-series
inverse.  Every coefficient must match in `lo`, `order`, denominator and
numerators, so the kernel may not lose a guaranteed term anywhere.
`rings.power`, the one square-and-multiply, must equal repeated
multiplication in the same sense, and a negative power must invert its
constant term once.  `TruncPoly.log` and `exp` must give back f as
exp(log f) f(0) in the same sense, over Q, Q(i) and q-series.
"""

import operator
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genuslab import manifolds
from genuslab.errors import NotInvertibleError, StructuralError
from genuslab.genus import AHAT_CUSP, log_density
from genuslab.rings import QI, QQ, GaussianRational, power
from genuslab.series import PolyRing, QSeries, SeriesRing, TruncPoly

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


class Dense:
    def __init__(self, ring, terms, order):
        self.ring = ring
        self.order = order
        self.terms = {e: c for e, c in terms.items() if e < order and c != 0}

    @property
    def lo(self):
        return min(self.terms, default=self.order)

    def at(self, e):
        return self.terms.get(e, self.ring.base.zero())

    def __add__(self, other):
        order = min(self.order, other.order)
        keys = set(self.terms) | set(other.terms)
        return Dense(self.ring, {e: self.at(e) + other.at(e) for e in keys}, order)

    def __neg__(self):
        return Dense(self.ring, {e: -c for e, c in self.terms.items()}, self.order)

    def scale(self, c):
        return Dense(self.ring, {e: x * c for e, x in self.terms.items()}, self.order)

    def __mul__(self, other):
        order = min(self.order + other.lo, other.order + self.lo)
        out = {}
        for e, x in self.terms.items():
            for f, y in other.terms.items():
                out[e + f] = out.get(e + f, self.ring.base.zero()) + x * y
        return Dense(self.ring, out, order)

    def inverse(self):
        lo, n = self.lo, self.order - self.lo
        a = [self.at(lo + j) for j in range(n)]
        b = [self.ring.base.one() / a[0]]
        for m in range(1, n):
            acc = self.ring.base.zero()
            for j in range(1, m + 1):
                acc = acc + a[j] * b[m - j]
            b.append(-(acc / a[0]))
        return Dense(self.ring, {-lo + j: c for j, c in enumerate(b)}, self.order - 2 * lo)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return Dense(self.ring, {0: self.ring.base.one()}, max(self.order, self.ring.order))
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            if n > 1:
                base = base * base
            n >>= 1
        return out

    def shift(self, k):
        return Dense(self.ring, {e + k: c for e, c in self.terms.items()}, self.order + k)

    def equal_below(self, other, upto):
        return all(self.at(e) == other.at(e) for e in range(min(self.lo, other.lo), upto))


def agrees(series: QSeries, dense: Dense) -> bool:
    """Same value, same lo and order, and canonical coefficients."""
    zero = dense.ring.base.zero()
    span = range(min(series.lo, dense.lo) - 2, dense.order)
    return (
        series.order == dense.order
        and series.lo == dense.lo
        and series.support() == sorted(dense.terms)
        and series.lowest_exponent() == (dense.lo if dense.terms else None)
        and all(series.coefficient(e) == dense.at(e) for e in span)
        and all(type(series.coefficient(e)) is type(zero) for e in span)
        and list(series.coeffs) == [dense.at(e) for e in range(series.lo, series.lo + len(series.coeffs))]
        and (not series.coeffs or series.coeffs[-1] != 0)
    )


def scalar(base, re, im, den):
    if base == QQ:
        return Fraction(re, den)
    return GaussianRational(Fraction(re, den), Fraction(im, den))


SCALAR = st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 6))


@st.composite
def cases(draw):
    """Two series over one ring over Q or Q(i), their oracles, and a scalar."""
    base = draw(st.sampled_from([QQ, QI]))
    ring = SeriesRing(base, draw(st.integers(-2, 10)))
    pairs = []
    for _ in range(2):
        lo = draw(st.integers(-4, 4))
        coeffs = [scalar(base, *t) for t in draw(st.lists(SCALAR, max_size=8))]
        order = draw(st.integers(lo - 2, lo + 10))
        terms = {lo + i: c for i, c in enumerate(coeffs)}
        pairs.append((QSeries(ring, lo, coeffs, order), Dense(ring, terms, order)))
    return pairs, scalar(base, *draw(SCALAR))


def over_other_base(s: QSeries):
    """The series with its oracle over the other base: a Q series copied to Q(i), or a Q(i) series's real part."""
    if s.ring.base == QQ:
        ring, coeffs = SeriesRing(QI, s.ring.order), list(s.coeffs)
    else:
        ring, coeffs = SeriesRing(QQ, s.ring.order), [c.re for c in s.coeffs]
    return QSeries(ring, s.lo, coeffs, s.order), Dense(ring, {s.lo + i: c for i, c in enumerate(coeffs)}, s.order)


@PROPERTY
@given(cases())
def test_construction_is_canonical(case):
    for s, d in case[0]:
        assert agrees(s, d)


@PROPERTY
@given(cases())
def test_sum_difference_and_negation(case):
    (a, da), (b, db) = case[0]
    assert agrees(a + b, da + db)
    assert agrees(a - b, da + (-db))
    assert agrees(-a, -da)


@PROPERTY
@given(cases(), st.integers(-3, 3))
def test_scalar_multiples(case, n):
    (a, da), _ = case[0]
    c = case[1]
    assert agrees(a * c, da.scale(c))
    assert agrees(c * a, da.scale(c))
    assert agrees(a * n, da.scale(Fraction(n)))
    assert agrees(a + c, da + Dense(a.ring, {0: c}, a.ring.order))


@PROPERTY
@given(cases())
def test_products(case):
    (a, da), (b, db) = case[0]
    assert agrees(a * b, da * db)
    assert agrees(b * a, db * da)


@PROPERTY
@given(cases(), st.integers(-3, 3))
def test_inverse_and_powers(case, n):
    (a, da), _ = case[0]
    if a.is_zero():
        if n >= 0:
            assert agrees(a ** n, da ** n)
        return
    assert agrees(a.inverse(), da.inverse())
    assert agrees(a ** n, da ** n)


@PROPERTY
@given(cases(), st.integers(-5, 5))
def test_shift_and_comparison(case, k):
    (a, da), (b, db) = case[0]
    assert agrees(a.shift(k), da.shift(k))
    hi = min(a.order, b.order)
    assert (a == b) == da.equal_below(db, hi)
    other, dother = over_other_base(b)
    assert (a == other) == (other == a) == da.equal_below(dother, hi)
    copy, _ = over_other_base(a)  # a Q series equals its Q(i) copy; a Q(i) one with an imaginary part no Q series
    assert (a == copy) == (a.ring.base == QQ or all(c.im == 0 for c in a.coeffs))
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(StructuralError):
            op(a, other)
        with pytest.raises(StructuralError):
            op(other, a)


@PROPERTY
@given(cases(), SCALAR)
def test_rescale(case, c):
    (a, da), _ = case[0]
    c = Fraction(c[0] or 7, c[2])
    if a.lo < 0:
        with pytest.raises(StructuralError):
            a.rescale(c)
    else:
        assert agrees(a.rescale(c), Dense(a.ring, {e: x * c ** e for e, x in da.terms.items()}, da.order))


def test_series_ring_base_must_be_q_or_gaussian():
    with pytest.raises(StructuralError):
        SeriesRing(PolyRing(("t",), (2,), QQ), 4)
    with pytest.raises(StructuralError):
        SeriesRing(SeriesRing(QQ, 4), 4)


# -- TruncPoly -------------------------------------------------------------------


def capped(terms, caps):
    """The oracle's normal form: no zero coefficient, no monomial past a cap."""
    return {e: c for e, c in terms.items() if c != 0 and all(x <= k for x, k in zip(e, caps))}


def dense_add(a, b, caps):
    return capped({e: a.get(e, 0) + b.get(e, 0) for e in set(a) | set(b)}, caps)


def dense_mul(a, b, caps):
    out = {}
    for e, x in a.items():
        for f, y in b.items():
            g = tuple(map(operator.add, e, f))
            out[g] = out.get(g, 0) + x * y
    return capped(out, caps)


def dense_pow(a, n, caps):
    out = capped({(0,) * len(caps): Fraction(1)}, caps)
    for _ in range(n):
        out = dense_mul(out, a, caps)
    return out


def dense_inverse(a, caps):
    """Solve a * b = 1: each b(m) from a(0) and the b(k) with k < m componentwise."""
    zero = (0,) * len(caps)
    b = {}
    for m in sorted(product(*(range(k + 1) for k in caps))):
        acc = Fraction(m == zero)
        for k, y in b.items():
            d = tuple(map(operator.sub, m, k))
            if min(d) >= 0:
                acc -= a.get(d, 0) * y
        b[m] = acc / a[zero]
    return capped(b, caps)


FRACTION = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 6))


@st.composite
def poly_cases(draw):
    """Two polynomials over Q[x, y] with small caps, from dicts that reach past the caps."""
    caps = (draw(st.integers(0, 3)), draw(st.integers(0, 2)))
    ring = PolyRing(("x", "y"), caps, QQ)
    monomial = st.tuples(st.integers(0, caps[0] + 2), st.integers(0, caps[1] + 2))
    pairs = []
    for _ in range(2):
        terms = draw(st.dictionaries(monomial, FRACTION, max_size=6))
        pairs.append((TruncPoly(ring, terms), capped(terms, caps)))
    return ring, pairs


@PROPERTY
@given(poly_cases())
def test_poly_ring_operations_respect_the_caps(case):
    ring, ((a, da), (b, db)) = case
    caps = ring.caps
    assert a.coeffs == da and b.coeffs == db
    assert (a + b).coeffs == dense_add(da, db, caps)
    assert (a - b).coeffs == dense_add(da, {e: -c for e, c in db.items()}, caps)
    assert (-a).coeffs == {e: -c for e, c in da.items()}
    assert (a * b).coeffs == dense_mul(da, db, caps)
    assert (b * a).coeffs == dense_mul(da, db, caps)


@PROPERTY
@given(poly_cases(), st.integers(-3, 4))
def test_poly_inverse_and_powers(case, n):
    ring, ((a, da), _) = case
    caps = ring.caps
    if a.constant_term() == 0:
        for op in (a.inverse, lambda: a ** -1):
            with pytest.raises(NotInvertibleError):
                op()
        if n >= 0:
            assert (a ** n).coeffs == dense_pow(da, n, caps)
        return
    inv = dense_inverse(da, caps)
    assert a.inverse().coeffs == inv
    assert (a ** n).coeffs == (dense_pow(da, n, caps) if n >= 0 else dense_pow(inv, -n, caps))
    assert (a * a.inverse()).coeffs == capped({(0, 0): Fraction(1)}, caps)


@PROPERTY
@given(poly_cases(), st.integers(-4, 4), FRACTION)
def test_poly_coerces_scalars_to_constants(case, n, c):
    ring, ((a, da), _) = case
    caps = ring.caps
    neg = {e: -x for e, x in da.items()}
    for v in (n, c):
        k = capped({(0, 0): Fraction(v)}, caps)
        assert (a + v).coeffs == (v + a).coeffs == dense_add(da, k, caps)
        assert (a - v).coeffs == dense_add(da, {e: -x for e, x in k.items()}, caps)
        assert (v - a).coeffs == dense_add(neg, k, caps)
        assert (a * v).coeffs == (v * a).coeffs == dense_mul(da, k, caps)
        assert (a == v) == (da == k)
        assert ring.const(v).coeffs == k


BASE_TERMS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)), FRACTION, max_size=3)


@PROPERTY
@given(poly_cases(), st.lists(BASE_TERMS, min_size=1, max_size=4))
def test_poly_over_a_poly_ring_coerces_base_elements(case, raw):
    # a polynomial in t whose coefficients lie in Q[x, y]: elements of Q[x, y] act as constants
    base, ((b, _), _) = case
    ring = PolyRing(("t",), (len(raw) - 1,), base)
    p = TruncPoly(ring, {(j,): TruncPoly(base, terms) for j, terms in enumerate(raw)})
    coeffs = [p.coefficient((j,)) for j in range(len(raw))]
    assert [(p + b).coefficient((j,)) for j in range(len(raw))] == [coeffs[0] + b] + coeffs[1:]
    assert [(p - b).coefficient((j,)) for j in range(len(raw))] == [coeffs[0] - b] + coeffs[1:]
    assert [(p * b).coefficient((j,)) for j in range(len(raw))] == [x * b for x in coeffs]
    assert ring.const(b) == b
    assert ring.const(3) == ring.const(base.const(3)) == 3


@PROPERTY
@given(poly_cases())
def test_poly_rejects_foreign_rings(case):
    ring, ((a, _), _) = case
    foreign = [
        PolyRing(("x", "y"), (ring.caps[0] + 1, ring.caps[1]), QQ).one(),  # other caps
        PolyRing(("x", "z"), ring.caps, QQ).one(),  # other variables
        PolyRing(("x", "y"), ring.caps, QI).one(),  # other base ring
        SeriesRing(QQ, 4).one(),  # a q-series, not an element of Q
        GaussianRational(0, 1),  # not an element of Q
    ]
    ops = (operator.add, operator.sub, operator.mul, operator.eq)
    for f in foreign:
        for op in ops:
            with pytest.raises(StructuralError):
                op(a, f)
            with pytest.raises(StructuralError):
                op(f, a)
    with pytest.raises(TypeError):
        a + "x"


# -- TruncPoly powers over a SeriesRing -------------------------------------------


def geometric_inverse(p):
    """The replaced inverse: c0^-1 times the sum of u^j for u = 1 - p / c0, nilpotent under the caps."""
    ring = p.ring
    c0_inv = ring.base.invert(p.constant_term())
    u = ring.one() - p * c0_inv
    out = term = ring.one()
    for _ in range(sum(ring.caps)):
        term = term * u
        if term.is_zero():
            break
        out = out + term
    return out * c0_inv


def squaring_pow(p, n):
    """The replaced power: square and multiply from one, through the geometric inverse for n < 0."""
    if n < 0:
        return squaring_pow(geometric_inverse(p), -n)
    out, square = p.ring.one(), p
    while n:
        if n & 1:
            out = out * square
        square = square * square
        n >>= 1
    return out


def numerators(p):
    """Every coefficient's lo, order, denominator and numerators."""
    return {e: (c.lo, c.order, c._den, c._re, c._im) for e, c in p.coeffs.items()}


@st.composite
def series_polys(draw, caps, lead_lo, truncated):
    """A polynomial over Q or Q(i) q-series under `caps`: constant term from `lead_lo`, other lo in 0..2.

    With `truncated`, a coefficient may be known only below the ring's order.
    """
    base = draw(st.sampled_from([QQ, QI]))
    S = SeriesRing(base, draw(st.integers(3, 8)))

    def series(lo):
        coeffs = [scalar(base, *draw(SCALAR)) for _ in range(draw(st.integers(1, S.order)))]
        coeffs[0] = coeffs[0] or 1
        order = S.order - draw(st.integers(0, 3)) if truncated and draw(st.booleans()) else S.order
        return QSeries(S, lo, coeffs, max(order, lo + 1))

    ring = PolyRing(("x", "y")[: len(caps)], caps, S)
    monomials = list(product(*(range(c + 1) for c in caps)))[1:]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4, unique=True))
    terms = {m: series(draw(st.integers(0, 2))) for m in chosen}
    terms[(0,) * len(caps)] = series(draw(lead_lo))
    return TruncPoly(ring, terms)


CAPS = pytest.mark.parametrize("caps", [(8,), (2, 2)], ids=["8", "2x2"])
POWERS = st.integers(-3, 12)


@CAPS
@PROPERTY
@given(data=st.data())
def test_series_poly_powers_match_square_and_multiply(caps, data):
    # a unit constant term at s^0 and every coefficient known to the ring order: the recurrence runs
    p = data.draw(series_polys(caps, st.just(0), truncated=False))
    n = data.draw(POWERS)
    assert numerators(p ** n) == numerators(squaring_pow(p, n))
    assert numerators(p.inverse()) == numerators(geometric_inverse(p))


@CAPS
@PROPERTY
@given(data=st.data())
def test_series_poly_powers_keep_their_guarantees(caps, data):
    # a constant term above s^0 or coefficients truncated below the ring order, where
    # dividing by c0 can lower a guaranteed order: positive powers must not take the recurrence
    p = data.draw(series_polys(caps, st.integers(0, 2), truncated=True))
    n = data.draw(POWERS)
    assert numerators(p ** n) == numerators(squaring_pow(p, n))


@pytest.mark.parametrize(
    "terms, n",
    [
        # c0 = s^2: dividing by it would leave x^2 known below s^1, not s^3
        ({0: (2, [1], 3), 2: (0, [1], 3)}, 1),
        # x known below s^1 and x^2 below s^2: the recurrence would lose s^1 of x^2
        ({0: (0, [-1], 3), 1: (0, [1], 1), 2: (0, [1], 2)}, 2),
    ],
    ids=["c0-above-s0", "truncated"],
)
def test_positive_powers_that_must_not_divide_by_c0(terms, n):
    S = SeriesRing(QQ, 3)
    p = TruncPoly(PolyRing(("x",), (3,), S), {(e,): QSeries(S, *t) for e, t in terms.items()})
    assert numerators(p ** n) == numerators(squaring_pow(p, n))


@pytest.mark.parametrize("base", [QQ, QI], ids=["Q", "Q(i)"])
def test_nilpotent_powers_and_their_inverse(base):
    S = SeriesRing(base, 6)
    ring = PolyRing(("x", "y"), (3, 2), S)
    p = TruncPoly(ring, {(1, 0): QSeries(S, 0, [1, 2], 6), (0, 1): QSeries(S, 1, [3], 6)})
    for n in range(1, 7):
        assert numerators(p ** n) == numerators(squaring_pow(p, n))
        assert (p ** n).coeffs == dense_pow(p.coeffs, n, ring.caps)  # the values, by repeated products
    for op in (p.inverse, lambda: p ** -1, lambda: p ** -3):
        with pytest.raises(NotInvertibleError, match="is not a unit; cannot invert series"):
            op()


@CAPS
@pytest.mark.parametrize("kind", ["Q", "Q(i)", "q-series"])
@PROPERTY
@given(data=st.data())
def test_exp_of_log_times_the_constant_term_is_the_polynomial(caps, kind, data):
    if kind == "q-series":
        f = data.draw(series_polys(caps, st.just(0), truncated=False))
    else:
        base = QQ if kind == "Q" else QI
        monomials = list(product(*(range(c + 1) for c in caps)))
        chosen = data.draw(st.lists(st.sampled_from(monomials), max_size=6, unique=True))
        terms = {m: scalar(base, *data.draw(SCALAR)) for m in chosen}
        terms[(0,) * len(caps)] = scalar(base, *data.draw(SCALAR)) or base.one()
        f = TruncPoly(PolyRing(("x", "y")[: len(caps)], caps, base), terms)
    log_f = f.log()
    assert log_f.constant_term() == 0
    exact = numerators if kind == "q-series" else (lambda p: p.coeffs)
    assert exact(log_f.exp() * f.constant_term()) == exact(f)
    with pytest.raises(StructuralError, match="zero constant term"):
        f.exp()


def test_cp8_ahat_product_takes_a_bounded_number_of_series_products(monkeypatch):
    # CP8 has one tangent entry of multiplicity 9 and delta 1; at q-order 12 the A-hat-cusp
    # density is a series over SeriesRing(Q, 26).  Square and multiply took 111 products, and the
    # Horner substitution, Miller power and product per tangent entry 62; one exponential takes 25.
    S = SeriesRing(QQ, 26)
    log_f, f0 = log_density(AHAT_CUSP, 8, S)
    model = manifolds.builtin("CP8")
    made = []
    mul = QSeries.__mul__

    def counted(a, b):
        made.append(1)
        return mul(a, b)

    monkeypatch.setattr(QSeries, "__mul__", counted)
    monkeypatch.setattr(QSeries, "__rmul__", counted)
    manifolds.root_product(model, log_f, f0)
    assert len(made) <= 25


def repeated(x, n):
    """x * x * ... * x, n >= 1 factors, multiplied from the left."""
    out = x
    for _ in range(n - 1):
        out = out * x
    return out


def series_numerators(a):
    return a.lo, a.order, a._den, a._re, a._im


@PROPERTY
@given(data=st.data(), n=st.integers(1, 9))
def test_power_is_repeated_multiplication(data, n):
    g = scalar(QI, *data.draw(SCALAR))
    assert power(g, n) == g ** n == repeated(g, n)
    if g:
        assert g ** -n == repeated(g.inverse(), n)
    # a q-series starting above s^0, known to a few terms past its coefficients
    base = data.draw(st.sampled_from([QQ, QI]))
    coeffs = [scalar(base, *t) for t in data.draw(st.lists(SCALAR, min_size=1, max_size=6))]
    coeffs[0] = coeffs[0] or 1
    lo = data.draw(st.integers(1, 3))
    a = QSeries(SeriesRing(base, 8), lo, coeffs, lo + len(coeffs) + data.draw(st.integers(0, 4)))
    assert series_numerators(power(a, n)) == series_numerators(a ** n) == series_numerators(repeated(a, n))
    # a nilpotent polynomial over q-series: its constant term taken away
    p = data.draw(series_polys((2, 2), st.integers(0, 2), truncated=True))
    p = p - p.constant_term()
    assert numerators(power(p, n)) == numerators(p ** n) == numerators(repeated(p, n))


def test_negative_series_poly_power_inverts_once(monkeypatch):
    S = SeriesRing(QQ, 6)
    ring = PolyRing(("x",), (4,), S)
    p = TruncPoly(ring, {(0,): QSeries(S, 0, [2, 1, 3], 6), (1,): QSeries(S, 0, [1, -1], 6), (3,): S.const(5)})
    inverse, calls = QSeries.inverse, []

    def counted(a):
        calls.append(a)
        return inverse(a)

    monkeypatch.setattr(QSeries, "inverse", counted)
    q = p ** -3
    assert len(calls) == 1
    assert q * repeated(p, 3) == ring.one()
