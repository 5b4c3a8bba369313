"""Kernel tests: exact scalars, truncated polynomials, q-series.

Expected values are produced by independent oracles (binomial theorem,
multiply-back, compose-back, brute-force expansion) rather than by the code
paths under test.
"""

import operator
import random
from fractions import Fraction
from math import comb

import pytest

from genuslab.errors import NotInvertibleError, StructuralError
from genuslab.genus import GENERIC_RING
from genuslab.rings import QQ, QI, GaussianRational, I_UNIT
from genuslab.series import PolyRing, QSeries, SeriesRing, TruncPoly


def poly1(cap, var="t", base=QQ):
    return PolyRing((var,), (cap,), base)


# -- scalars ---------------------------------------------------------------


def test_fraction_is_canonical():
    a = Fraction(-6, -4)
    assert a.denominator > 0
    assert (a.numerator, a.denominator) == (3, 2)


def test_gaussian_field_axioms():
    i = I_UNIT
    assert i * i == -1
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    b = GaussianRational(2, 5)
    assert (a + b) - b == a
    assert a * b == b * a
    assert a * (b + i) == a * b + a * i
    assert a * a.inverse() == 1
    assert (a / b) * b == a


def test_gaussian_powers_of_i():
    assert I_UNIT ** 2 == -1
    assert I_UNIT ** 3 == GaussianRational(0, -1)
    assert I_UNIT ** 4 == 1
    assert I_UNIT ** -1 == GaussianRational(0, -1)


# -- polynomial arithmetic ---------------------------------------------------


def test_truncation_drops_capped_monomials():
    R = poly1(1, "h")
    h = R.gen("h")
    assert (1 + h) * (1 - h) == R.one()  # h^2 is cut


def test_product_matches_brute_force_expansion():
    # (1+h)^6 * (1+4h)^{-1} mod h^3: coefficient of h^2 is 15 - 24 + 16 = 7
    R = poly1(2, "h")
    h = R.gen("h")
    p = (1 + h) ** 6 * (1 + 4 * h).inverse()
    # oracle: convolve the two expansions directly
    a = [comb(6, j) for j in range(3)]
    b = [(-4) ** j for j in range(3)]
    expected = [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(3)]
    assert [p.coefficient((n,)) for n in range(3)] == expected
    assert p.coefficient((2,)) == 7


def test_cap_mismatch_is_structural_error():
    a = poly1(2).one()
    b = poly1(3).one()
    with pytest.raises(StructuralError):
        a + b
    with pytest.raises(StructuralError):
        a * b


def test_base_ring_element_is_a_constant_only_on_the_right():
    # on the left, the base ring's own operator meets a foreign ring, as in test_poly_rejects_foreign_rings
    R = PolyRing(("t",), (2,), GENERIC_RING)
    d = GENERIC_RING.gen("delta")
    p = R.gen("t") * d + 1
    assert p + d == R.const(d) + p
    assert p - d == -(R.const(d) - p)
    assert p * d == R.const(d) * p
    assert (p + d).ring == (p - d).ring == (p * d).ring == R
    assert R.const(d) == d == R.const(d)  # equality coerces from either side, as hashing does
    assert p != d != p
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(StructuralError):
            op(d, p)


def test_constant_polynomials_hash_as_their_coefficient():
    R = poly1(3)
    assert len({R.const(3), 3}) == 1
    assert hash(R.zero()) == hash(0)
    assert hash(R.const(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(poly1(2, base=QI).const(I_UNIT)) == hash(I_UNIT)
    d = GENERIC_RING.gen("delta")
    assert hash(PolyRing(("t",), (2,), GENERIC_RING).const(d)) == hash(d)
    t = R.gen("t")
    assert len({t + 1, 1 + t, R.const(1) + t}) == 1


def test_a_base_ring_constant_is_one_set_element_in_either_order():
    R = PolyRing(("t",), (2,), GENERIC_RING)
    d = GENERIC_RING.gen("delta")
    assert len({R.const(d), d}) == len({d, R.const(d)}) == 1
    assert {d: 1}[R.const(d)] == {R.const(d): 1}[d] == 1
    p = R.gen("t") * d
    assert len({p, d}) == len({d, p}) == 2


def test_ring_laws_on_random_sparse_polys():
    rng = random.Random(7)
    R = PolyRing(("x", "y"), (6, 5), QQ)
    for _ in range(40):
        polys = []
        for _ in range(3):
            coeffs = {}
            for _ in range(rng.randint(1, 6)):
                e = (rng.randint(0, 6), rng.randint(0, 5))
                coeffs[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            polys.append(TruncPoly(R, coeffs))
        a, b, c = polys
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_inverse_round_trip():
    R = poly1(3)
    t = R.gen("t")
    inv = (1 - t).inverse()
    assert inv == 1 + t + t ** 2 + t ** 3  # geometric series
    R2 = poly1(2, "u")
    u = R2.gen("u")
    g = (1 + 4 * u).inverse()
    assert g == 1 - 4 * u + 16 * u ** 2
    assert g * (1 + 4 * u) == R2.one()


def test_inverse_of_constant():
    R = poly1(2)
    two = R.const(2)
    assert two.inverse() == R.const(Fraction(1, 2))


def test_inverse_random_round_trip():
    rng = random.Random(11)
    R = PolyRing(("x", "y"), (4, 4), QQ)
    for _ in range(100):
        coeffs = {(0, 0): Fraction(rng.choice([1, -1, 2, 3, 5]), rng.randint(1, 4))}
        for _ in range(rng.randint(0, 5)):
            e = (rng.randint(0, 4), rng.randint(0, 4))
            if e != (0, 0):
                coeffs[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        a = TruncPoly(R, coeffs)
        assert a * a.inverse() == R.one()


def test_non_unit_constant_rejected():
    R = poly1(3)
    t = R.gen("t")
    with pytest.raises(NotInvertibleError):
        t.inverse()


def test_inverse_over_gaussian_rationals():
    R = poly1(3, base=QI)
    t = R.gen("t")
    p = R.one() + t * I_UNIT
    # geometric series oracle: 1/(1 + i t) = sum (-i t)^j, 1/(1 + i t)^2 = sum (j+1) (-i t)^j
    assert p.inverse().univar_coeffs() == [1, -I_UNIT, -1, I_UNIT]
    assert (p ** -2).univar_coeffs() == [1, -2 * I_UNIT, -3, 4 * I_UNIT]
    assert p * p.inverse() == R.one()
    for q in (t, t * I_UNIT + t ** 2):
        with pytest.raises(NotInvertibleError):
            q.inverse()
        with pytest.raises(NotInvertibleError):
            q ** -2


# -- compose -----------------------------------------------------------------


def test_compose_exponential_change_of_variables():
    # w = e^h - 1;  1/(1+w) composed back is e^{-h} (direct expansion oracle)
    H = poly1(2, "h")
    h = H.gen("h")
    e_h = 1 + h + Fraction(1, 2) * h ** 2
    w = e_h - 1
    F = poly1(2, "t")
    t = F.gen("t")
    geom_alt = (1 + t).inverse()  # 1 - t + t^2
    assert geom_alt.compose(w) == 1 - h + Fraction(1, 2) * h ** 2
    # and the plain geometric series gives 1/(2 - e^h)
    geom = (1 - t).inverse()
    assert geom.compose(w) == (2 - e_h).inverse()


def test_compose_at_zero_gives_constant_term():
    F = poly1(3, "t")
    t = F.gen("t")
    f = 5 + 2 * t + t ** 2
    z = poly1(4, "h").zero()
    assert f.compose(z) == 5


def test_coefficient_extraction():
    R = poly1(3, "q")
    q = R.gen("q")
    assert ((1 + q) ** 3).coefficient((2,)) == 3


def test_evaluate_sums_from_the_given_zero():
    R = PolyRing(("delta", "epsilon"), (2, 1), QQ)
    S = series_ring(6)
    values = {"delta": monomial(S, 2), "epsilon": S.one()}
    zero = S.zero()
    assert R.zero().evaluate(values, zero) is zero
    assert R.zero().evaluate(values, Fraction(0)) == 0
    constant = R.const(Fraction(3, 2)).evaluate(values, zero)
    assert isinstance(constant, QSeries) and constant == S.const(Fraction(3, 2))
    assert (R.gen("delta") * 2 + R.gen("epsilon")).evaluate(values, zero) == monomial(S, 2, 2) + 1


# -- q-series -----------------------------------------------------------------


def series_ring(order=12, base=QQ):
    return SeriesRing(base, order)


def q_series(S, q_coeffs, lo_q=0):
    """A q-power series (integer q-exponents) embedded via s^2 = q."""
    spread = [x for c in q_coeffs for x in (c, 0)]
    return QSeries(S, 2 * lo_q, spread, S.order)


def monomial(S, s_exp, c=1):
    """c * s^s_exp, known to the ring's order past the exponent."""
    return QSeries(S, s_exp, [c], S.order + s_exp)


def test_qseries_square():
    S = series_ring(8)
    one_plus_q = q_series(S, [1, 1])
    sq = one_plus_q * one_plus_q
    assert sq.coefficient(0) == 1
    assert sq.coefficient(2) == 2
    assert sq.coefficient(4) == 1


def test_qseries_embedding_commutes_with_multiplication():
    rng = random.Random(23)
    S = series_ring(16)
    for _ in range(50):
        a_q = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
        b_q = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
        # multiply as plain q-polynomials first (oracle), then embed
        prod_q = [
            sum(a_q[i] * b_q[n - i] for i in range(max(0, n - 4), min(n, 4) + 1))
            for n in range(8)
        ]
        a, b = q_series(S, a_q), q_series(S, b_q)
        embedded = q_series(S, prod_q)
        assert a * b == embedded


def test_qseries_laurent_shift_and_inverse():
    S = series_ring(10)
    # q^{-1} * (q + q^2) = 1 + q
    f = q_series(S, [1, 1], lo_q=1)
    assert f.shift(-2) == q_series(S, [1, 1])
    inv = f.inverse()
    assert (f * inv).coefficient(0) == 1
    assert f * inv == S.one()
    assert inv.lo == -2


def test_qseries_guarantee_tracking():
    S = series_ring(6)
    a = q_series(S, [1, 1])
    with pytest.raises(StructuralError):
        a.coefficient(6)
    shifted = a.shift(4)  # knows exponents < 10
    assert shifted.order == 10
    assert shifted.coefficient(8) == 0
    b = S.zero()
    assert (a * b).is_zero()


def test_qseries_inverse_random_round_trip():
    rng = random.Random(31)
    S = series_ring(12)
    for _ in range(100):
        coeffs = [Fraction(rng.choice([1, -1, 2]))] + [
            Fraction(rng.randint(-4, 4)) for _ in range(5)
        ]
        a = q_series(S, coeffs)
        assert a * a.inverse() == S.one()


def test_qseries_half_exponents():
    S = series_ring(9)
    s = monomial(S, 1)
    f = s * s
    assert f.coefficient(2) == 1
    assert (s ** 3).coefficient(3) == 1  # q^(3/2) = s^3


def test_qseries_over_gaussian_coefficients():
    S = series_ring(8, QI)
    f = S.const(I_UNIT) * monomial(S, 2) + S.one()
    g = f * f
    assert g.coefficient(0) == 1
    assert g.coefficient(2) == GaussianRational(0, 2)
    assert g.coefficient(4) == -1


def test_poly_over_series_ring():
    # cohomology polynomial with q-series coefficients: (1 - q e^h) inversion
    S = series_ring(8)
    R = PolyRing(("h",), (2,), S)
    h = R.gen("h")
    e_h = R.one() + h + Fraction(1, 2) * h * h
    f = R.one() - R.const(monomial(S, 2)) * e_h
    g = f.inverse()
    assert (f * g) == R.one()
    c0 = g.constant_term()  # 1/(1-q) as a q-series
    assert c0 == q_series(S, [1, 1, 1, 1])
