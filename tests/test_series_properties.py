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
* the zeroth power is 1, known below max(o, ring order).

Each case builds series through the public constructor from lists that may
carry leading and trailing zeros, may start at a negative exponent, and may
be zero, over Q and over Q(i).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genuslab.errors import StructuralError
from genuslab.rings import QI, QQ, GaussianRational
from genuslab.series import PolyRing, QSeries, SeriesRing

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

    def same_to(self, other, upto):
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
@given(cases(), st.integers(-5, 5), st.integers(-6, 0))
def test_shift_and_comparison(case, k, back):
    (a, da), (b, db) = case[0]
    assert agrees(a.shift(k), da.shift(k))
    hi = min(a.order, b.order)
    assert a.same_to(b) == da.same_to(db, hi)
    assert a.same_to(b, hi + back) == da.same_to(db, hi + back)
    assert (a == b) == da.same_to(db, hi)
    with pytest.raises(StructuralError):
        a.same_to(b, hi + 1)


def test_series_ring_base_must_be_q_or_gaussian():
    with pytest.raises(StructuralError):
        SeriesRing(PolyRing(("t",), (2,), QQ), 4)
    with pytest.raises(StructuralError):
        SeriesRing(SeriesRing(QQ, 4), 4)
