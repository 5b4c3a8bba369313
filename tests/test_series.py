"""Kernel tests: exact scalars, truncated polynomials, q-series.

Expected values are produced by independent oracles (binomial theorem,
multiply-back, compose-back, brute-force expansion) rather than by the code
paths under test.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from genuslab.errors import NotInvertibleError, StructuralError
from genuslab.genus import GENERIC_RING
from genuslab.rings import QQ, QI, GaussianRational, I_UNIT, rational_sqrt
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


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


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


def test_base_ring_element_on_the_left_acts_as_a_constant():
    R = PolyRing(("t",), (2,), GENERIC_RING)
    d = GENERIC_RING.gen("delta")
    p = R.gen("t") * d + 1
    assert d + p == p + d == R.const(d) + p
    assert d - p == -(p - d)
    assert d * p == p * d
    assert (d + p).ring == (d - p).ring == (d * p).ring == R
    assert d == R.const(d) and R.const(d) == d
    assert d != p and p != d


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


def test_ring_laws_on_random_sparse_polys():
    rng = random.Random(7)
    R = PolyRing(("x", "y"), (6, 5))
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
    R = PolyRing(("x", "y"), (4, 4))
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


# -- rational powers ----------------------------------------------------------


def test_powhalf_central_binomials():
    # (1-4t)^{-1/2} = sum C(2j,j) t^j, by the binomial theorem oracle
    R = poly1(3)
    t = R.gen("t")
    p = (1 - 4 * t).rational_pow(Fraction(-1, 2))
    expected = [comb(2 * j, j) for j in range(4)]
    assert [p.coefficient((j,)) for j in range(4)] == expected
    assert expected == [1, 2, 6, 20]


def test_powhalf_elliptic_integrand():
    # (1 - 2 d t^2 + e t^4)^{-1/2} over Q[d,e], binomial oracle with
    # u = 2 d t^2 - e t^4: sum_j C(-1/2, j) (-u)^j
    R = PolyRing(("t", "d", "e"), (4, 2, 1))
    t, d, e = (R.gen(v) for v in ("t", "d", "e"))
    p = (1 - 2 * d * t ** 2 + e * t ** 4).rational_pow(Fraction(-1, 2))
    u = 2 * d * t ** 2 - e * t ** 4
    oracle = R.one()
    term = R.one()
    binom = Fraction(1)
    for j in range(1, 3):
        binom *= Fraction(-1 - 2 * (j - 1), 2 * j) * Fraction(-1)
        term = term * u
        oracle = oracle + term * binom
    assert p == oracle


def test_powhalf_round_trips():
    rng = random.Random(3)
    R = poly1(5, "x")
    x = R.gen("x")
    for _ in range(100):
        a = R.one()
        for j in range(1, 6):
            a = a + Fraction(rng.randint(-5, 5), rng.randint(1, 5)) * x ** j
        r = a.rational_pow(Fraction(-1, 2))
        assert r * r * a == R.one()
        s = a.rational_pow(Fraction(1, 2))
        assert s * s == a


def test_powhalf_scalar_normalization():
    R = poly1(2, "x")
    x = R.gen("x")
    p = (4 + 8 * x).rational_pow(Fraction(1, 2))
    assert p * p == 4 + 8 * x
    assert p.constant_term() == 2
    assert R.one().rational_pow(Fraction(1, 2)) == R.one()
    with pytest.raises(NotInvertibleError):
        (2 + x).rational_pow(Fraction(1, 2))  # 2 is not a rational square


# -- exp / compose / integrate / reversion -----------------------------------


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


def test_integrate():
    R = poly1(0, "u")
    assert R.one().integrate() == poly1(1, "u").gen("u")
    G = poly1(4, "u")
    u = G.gen("u")
    p = 1 + 3 * u ** 2
    assert p.integrate() == poly1(5, "u").gen("u") + poly1(5, "u").gen("u") ** 3


def test_coefficient_extraction():
    R = poly1(3, "q")
    q = R.gen("q")
    assert ((1 + q) ** 3).coefficient((2,)) == 3


def test_reversion_identity_and_cubic():
    R = poly1(5, "u")
    u = R.gen("u")
    assert u.reversion() == u
    g = u + u ** 3
    r = g.reversion()
    assert r == u - u ** 3 + 3 * u ** 5
    assert g.compose(r) == u  # compose-back oracle


def test_reversion_round_trip_random_odd_series():
    rng = random.Random(19)
    R = poly1(7, "u")
    u = R.gen("u")
    for _ in range(25):
        g = u
        for j in (3, 5, 7):
            g = g + Fraction(rng.randint(-4, 4), rng.randint(1, 4)) * u ** j
        r = g.reversion()
        assert g.compose(r) == u
        # reversion of an odd series is odd
        assert all(e % 2 == 1 for (e,) in r.coeffs)


def test_reversion_rejects_bad_leading_terms():
    R = poly1(4, "u")
    u = R.gen("u")
    with pytest.raises(StructuralError):
        (2 * u).reversion()
    with pytest.raises(StructuralError):
        (1 + u).reversion()


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
    assert sq.q_coefficient(0) == 1
    assert sq.q_coefficient(1) == 2
    assert sq.q_coefficient(2) == 1


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
        assert (a * b).same_to(embedded)


def test_qseries_laurent_shift_and_inverse():
    S = series_ring(10)
    # q^{-1} * (q + q^2) = 1 + q
    f = q_series(S, [1, 1], lo_q=1)
    assert f.shift(-2).same_to(q_series(S, [1, 1]))
    inv = f.inverse()
    assert (f * inv).q_coefficient(0) == 1
    assert (f * inv).same_to(S.one())
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
        assert (a * a.inverse()).same_to(S.one())


def test_qseries_half_exponents():
    S = series_ring(9)
    s = monomial(S, 1)
    f = s * s
    assert f.q_coefficient(1) == 1
    assert (s ** 3).q_coefficient(Fraction(3, 2)) == 1


def test_qseries_over_gaussian_coefficients():
    S = series_ring(8, QI)
    f = S.const(I_UNIT) * monomial(S, 2) + S.one()
    g = f * f
    assert g.q_coefficient(0) == 1
    assert g.q_coefficient(1) == GaussianRational(0, 2)
    assert g.q_coefficient(2) == -1


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
    assert c0.same_to(q_series(S, [1, 1, 1, 1]))
