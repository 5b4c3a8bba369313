"""The theta-quotient builder against the q-level product it replaces.

`index_density` (cusp-word densities) and `localization.normal_factor` divide two
theta series with `genus.theta_quotient`.  `normal_factor` builds the factor
of the first of {a, 1/a}, a = lam^w, in (re, im) order once, with s scaled by
den(a) den(1/a) during the division, and derives the other one from it.  The
oracle here is the infinite product itself, one q-level at a time with one
polynomial inverse per level, written only with the public ring operations
and test-local exponentials.  Both sides must agree exactly: the same ring,
the same monomials, and for every coefficient the same q-series values, `lo`
and `order`.  `genus.log_density`, the word densities in log form, must give
them back as c0 exp(L) in the same sense, over Q and over Q(i).
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest

from genuslab import localization
from genuslab.genus import index_density, log_density
from genuslab.localization import builtin_action, equivariant_series, normal_factor
from genuslab.rings import I_UNIT, QI, QQ, GaussianRational
from genuslab.series import PolyRing, QSeries, SeriesRing, TruncPoly


def exp_poly(ring, scale):
    """e^(scale * x) in a univariate ring, from its power series."""
    scale = Fraction(scale)
    return TruncPoly(ring, {(j,): ring.base.const(scale ** j / factorial(j)) for j in range(ring.caps[0] + 1)})


def divide_by_x(p):
    return TruncPoly(p.ring, {(e - 1,): c for (e,), c in p.coeffs.items() if e >= 1})


def q_levels(ring, e_pos, e_neg, lw=1, lwi=1):
    """(n, plus, minus) for each q-level n with 2n below the series order.

    plus = (1 + q^n lw e_pos)(1 + q^n lwi e_neg), minus the same with minus signs.
    """
    S = ring.base
    one = ring.one()
    n = 1
    while 2 * n < S.order:
        qp = ring.const(QSeries(S, 2 * n, [lw], S.order + 2 * n))
        qm = ring.const(QSeries(S, 2 * n, [lwi], S.order + 2 * n))
        yield n, (one + qp * e_pos) * (one + qm * e_neg), (one - qp * e_pos) * (one - qm * e_neg)
        n += 1


def density_oracle(kind, xmax, S):
    pad = xmax + 2
    X = PolyRing(("x",), (pad,), S)
    one = X.one()
    e_pos, e_neg = exp_poly(X, 1), exp_poly(X, -1)
    if kind == "signature":
        dens = (one + e_neg) * divide_by_x(one - e_neg).inverse()
    else:
        dens = divide_by_x(exp_poly(X, Fraction(1, 2)) - exp_poly(X, Fraction(-1, 2))).inverse()
    for n, plus, minus in q_levels(X, e_pos, e_neg):
        if kind == "signature":
            dens = dens * plus * minus.inverse()
        elif n % 2:
            dens = dens * minus
        else:
            dens = dens * minus.inverse()
    cap = xmax + xmax % 2
    return TruncPoly(PolyRing(("x",), (cap,), S), {e: c for e, c in dens.coeffs.items() if e[0] <= cap})


@lru_cache(maxsize=None)
def n_factor_oracle(S, cap, lam, w):
    Y = PolyRing(("y",), (cap,), S)
    one = Y.one()
    e_pos, e_neg = exp_poly(Y, 1), exp_poly(Y, -1)
    lw, lwi = lam ** w, lam ** (-w)
    factor = (one + e_neg * lwi) * (one - e_neg * lwi).inverse()
    for _, plus, minus in q_levels(Y, e_pos, e_neg, lw, lwi):
        factor = factor * plus * minus.inverse()
    return factor


def exactly(p):
    """Ring and every coefficient's (lo, order, values)."""
    return p.ring, {e: (c.lo, c.order, c.coeffs) for e, c in p.coeffs.items()}


@pytest.mark.parametrize("qorder", [1, 4, 9])
@pytest.mark.parametrize("xmax", [2, 8, 16])
@pytest.mark.parametrize("kind", ["signature", "ahat"], ids=["word-loop", "word-ahat-cusp"])
def test_word_density_is_the_level_product(kind, xmax, qorder):
    S = SeriesRing(QQ, 2 * qorder + 2)
    assert exactly(index_density(kind, xmax, S)) == exactly(density_oracle(kind, xmax, S))
    # in log form: the log's q-terms are divisor sums, the log of the level product term by term
    for base in (QQ, QI):
        S = SeriesRing(base, 2 * qorder + 2)
        log_f, c0 = log_density(kind, xmax, S)
        assert log_f.constant_term() == 0
        assert exactly(log_f.exp() * c0) == exactly(index_density(kind, xmax, S))
    free, c0 = log_density(kind, xmax, QQ)
    assert (free.exp() * c0).coeffs == index_density(kind, xmax, QQ).coeffs


@pytest.mark.parametrize("cap", [0, 3])
@pytest.mark.parametrize("w", [1, -2, 3])
@pytest.mark.parametrize(
    "lam", [Fraction(2), Fraction(-1, 3), I_UNIT, GaussianRational(1, 1)], ids=["2", "-1/3", "i", "1+i"]
)
def test_normal_factor_is_the_level_product(lam, w, cap):
    S = SeriesRing(QI if isinstance(lam, GaussianRational) else QQ, 12)
    assert exactly(normal_factor(S, cap, lam, w)) == exactly(n_factor_oracle(S, cap, lam, w))


def test_normal_factor_is_cached_per_ring_cap_sample_and_weight():
    S = SeriesRing(QQ, 10)
    assert normal_factor(S, 2, Fraction(3), 1) is normal_factor(SeriesRing(QQ, 10), 2, Fraction(3), 1)
    assert normal_factor(S, 2, Fraction(3), 1) is not normal_factor(S, 2, Fraction(3), -1)


LAMBDAS = [Fraction(2), Fraction(-1, 3), I_UNIT, GaussianRational(1, 1)]


@pytest.fixture
def builds(monkeypatch):
    """Empty the N-factor cache and record the a of each factor N_a built anew, not derived."""
    localization._n_factor.cache_clear()
    made = []
    terms = localization.theta_terms
    monkeypatch.setattr(localization, "theta_terms", lambda S, a: made.append(a) or terms(S, a))
    return made


def built_of_pair(a):
    """The one of {a, 1/a} whose factor is built: the first in (re, im) order."""
    return min(a, 1 / a, key=lambda x: (x.re, x.im) if isinstance(x, GaussianRational) else (x, 0))


@pytest.mark.parametrize("signs", [(1, -1), (-1, 1)], ids=["w,-w", "-w,w"])
@pytest.mark.parametrize("cap", [0, 1, 2, 3])
@pytest.mark.parametrize("w", [1, 3])
@pytest.mark.parametrize("lam", LAMBDAS, ids=["2", "-1/3", "i", "1+i"])
def test_the_factor_at_minus_w_is_derived_exactly(builds, lam, w, cap, signs):
    # S order 26 is the rigidity pool's q-order 12; either order of first use builds the same one factor
    S = SeriesRing(QI if isinstance(lam, GaussianRational) else QQ, 26)
    for weight in (signs[0] * w, signs[1] * w):
        assert exactly(normal_factor(S, cap, lam, weight)) == exactly(n_factor_oracle(S, cap, lam, weight))
    assert builds == [built_of_pair(lam ** w)]


@pytest.mark.parametrize("cap", [0, 1, 2, 3])
@pytest.mark.parametrize("w", [-1, -3])
@pytest.mark.parametrize("lam", LAMBDAS, ids=["2", "-1/3", "i", "1+i"])
def test_the_factor_at_the_inverse_sample_is_derived_exactly(builds, lam, w, cap):
    S = SeriesRing(QI if isinstance(lam, GaussianRational) else QQ, 26)
    for mu in (lam, 1 / lam):
        assert exactly(normal_factor(S, cap, mu, w)) == exactly(n_factor_oracle(S, cap, mu, w))
    assert len(builds) == 1


@pytest.mark.parametrize("cap", [0, 3])
@pytest.mark.parametrize(
    "lam, w", [(Fraction(5), 8), (Fraction(5), -8), (Fraction(3), 7), (GaussianRational(1, 1), 5)],
    ids=["5^8", "5^-8", "3^7", "(1+i)^5"],
)
def test_the_rescaled_division_is_exact(builds, lam, w, cap):
    # the rigidity pool's largest |a| and denominators: the division runs at s * 5^8, 3^7 and 8
    S = SeriesRing(QI if isinstance(lam, GaussianRational) else QQ, 26)
    assert exactly(normal_factor(S, cap, lam, w)) == exactly(n_factor_oracle(S, cap, lam, w))
    assert len(builds) == 1


def test_the_rescaled_division_is_exact_at_q_order_96(builds):
    S = SeriesRing(QQ, 194)
    assert exactly(normal_factor(S, 0, Fraction(5), 8)) == exactly(n_factor_oracle(S, 0, Fraction(5), 8))
    assert len(builds) == 1


@pytest.mark.parametrize(
    "name, count",
    [("CP3_linear(0,1,2,3)", 3), ("HP3_diagonal(1,2,3,5)", 8)],
)
def test_one_build_per_pair_of_inverse_weights(builds, name, count):
    # CP3: weights +-1, +-2, +-3; HP3(1,2,3,5): +-1..+-4 and -5..-8
    equivariant_series(builtin_action(name), Fraction(2), 4)
    assert len(builds) == count


OFF_LATTICE = [GaussianRational(Fraction(2, 3), Fraction(-1, 3)), GaussianRational(3, -2)]


@pytest.mark.parametrize("cap", [0, 3])
@pytest.mark.parametrize("w", [1, -2, 5, -8, 8])
@pytest.mark.parametrize("lam", OFF_LATTICE, ids=["(2-i)/3", "3-2i"])
def test_gaussian_samples_off_the_unit_lattice_are_the_level_product(lam, w, cap):
    # a = (p + qi)/d with d > 1 or |p|, |q| > 1: both int pairs and both denominators are nontrivial
    S = SeriesRing(QI, 12)
    assert exactly(normal_factor(S, cap, lam, w)) == exactly(n_factor_oracle(S, cap, lam, w))


@pytest.mark.parametrize("samples", [(I_UNIT, -I_UNIT), (-I_UNIT, I_UNIT)], ids=["i,-i", "-i,i"])
@pytest.mark.parametrize("cap", [0, 2])
@pytest.mark.parametrize("w", [1, 2, 3, 5])
def test_i_and_minus_i_share_one_build(builds, w, cap, samples):
    # (-i)^w = 1/i^w: of the factors at i and -i, one is derived from the other
    S = SeriesRing(QI, 18)
    for lam in samples:
        assert exactly(normal_factor(S, cap, lam, w)) == exactly(n_factor_oracle(S, cap, lam, w))
    assert builds == [built_of_pair(I_UNIT ** w)]


@pytest.mark.parametrize("lam", [Fraction(2), I_UNIT], ids=["2", "i"])
def test_a_point_builds_no_density(empty_caches, lam):
    # the local term of a fixed point is the product of its N-factors' constant series
    point = builtin_action("HP2_diagonal(1,2,4)").components[0]
    assert point.model.dim_real == 0
    empty_caches()
    term = localization.local_term(point, lam, 4)
    assert index_density.cache_info().misses == 0
    S = SeriesRing(QI if isinstance(lam, GaussianRational) else QQ, 10)
    factors = [n_factor_oracle(S, 0, lam, w).constant_term() for w in point.weights()]
    product = factors[0]
    for f in factors[1:]:
        product = product * f
    assert (term.lo, term.order, term.coeffs) == (product.lo, product.order, product.coeffs)
