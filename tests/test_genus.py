"""Genus engine: characteristic series, twisted words, closed forms."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from genuslab import series
from genuslab.errors import StructuralError
from genuslab.genus import (
    AHAT_CUSP,
    EXT2_PLUS_TANGENT,
    GENERIC_RING,
    SIGNATURE_CUSP,
    GenusSpec,
    TANGENT,
    TANGENT_CHERN,
    TRIVIAL,
    char_series,
    cp_generating_check,
    cusp_series,
    genus_value,
    hypersurface_index_closed,
    hypersurface_index_closed_form_value,
    index_density,
    legendre_coefficient,
    pole_order,
    twisted_index,
    word_factor_product,
)
from genuslab.manifolds import builtin, load_model, root_product
from genuslab.rings import QQ
from genuslab.series import PolyRing, TruncPoly

D = GENERIC_RING.gen("delta")
E = GENERIC_RING.gen("epsilon")


# -- logarithm / characteristic series -------------------------------------------


def chain_oracle(spec, order):
    """Q = x / g^{-1}(x) by the integral route, from public TruncPoly operations.

    Binomial integrand (1 - w)^(-1/2) = sum C(2j, j) (w/4)^j with
    w = 2 delta u^2 - epsilon u^4, termwise integral g, degree-by-degree
    reversion f of g (g'(0) = 1, so subtracting the degree-d error of g(f)
    fixes degree d), then x/f.
    """
    base = spec.base_ring
    U = PolyRing(("u",), (order + 1,), base)
    u = U.gen("u")
    w = (u * u) * (2 * spec.delta) - (u ** 4) * spec.epsilon
    integrand = term = U.one()
    for j in range(1, order + 1):
        term = term * w * Fraction(2 * j - 1, 2 * j)
        integrand = integrand + term
    g = TruncPoly(U, {(e + 1,): c * Fraction(1, e + 1) for (e,), c in integrand.coeffs.items()})
    f = u
    for d in range(2, order + 2):
        f = f - TruncPoly(U, {(d,): g.compose(f).coefficient((d,))})
    x_over_f = TruncPoly(PolyRing(("u",), (order,), base), {(e - 1,): c for (e,), c in f.coeffs.items()})
    return x_over_f.inverse()


@pytest.mark.parametrize(
    "spec",
    [
        GenusSpec.signature(),
        GenusSpec.ahat(),
        GenusSpec.generic(),
        GenusSpec(Fraction(2), Fraction(-3, 7)),
    ],
    ids=["signature", "ahat", "generic", "rational"],
)
def test_char_series_matches_the_integral_chain(spec):
    top = 16
    oracle = chain_oracle(spec, top)
    for order in range(1, top + 1):
        Q = char_series(spec, order)
        assert Q.ring == PolyRing(("u",), (order,), spec.base_ring)
        assert Q.coeffs == {e: c for e, c in oracle.coeffs.items() if e[0] <= order}


def cube_oracle(spec, order):
    """Q = x / f from the recurrence with [u^n] f^3 read off the whole cube f * f * f at every step."""
    ring = PolyRing(("u",), (order + 1,), spec.base_ring)
    f = ring.gen("u")
    for n in range(1, order, 2):
        rhs = (f * f * f).coefficient((n,)) * (2 * spec.epsilon) - f.coefficient((n,)) * (2 * spec.delta)
        f = f + TruncPoly(ring, {(n + 2,): rhs * Fraction(1, (n + 1) * (n + 2))})
    x_over_f = TruncPoly(PolyRing(("u",), (order,), spec.base_ring), {(e - 1,): c for (e,), c in f.coeffs.items()})
    return x_over_f.inverse()


@pytest.mark.parametrize(
    "spec", [GenusSpec.signature(), GenusSpec.ahat(), GenusSpec.generic()], ids=["signature", "ahat", "generic"]
)
def test_char_series_matches_the_cube_construction(spec):
    for order in range(1, 13):
        Q, oracle = char_series(spec, order), cube_oracle(spec, order)
        assert Q.ring == oracle.ring and Q.coeffs == oracle.coeffs


def test_ahat_char_series():
    Q = char_series(GenusSpec.ahat(), 6)
    assert Q.coefficient((0,)) == 1
    assert Q.coefficient((2,)) == Fraction(-1, 24)
    assert Q.coefficient((4,)) == Fraction(7, 5760)
    assert all(e % 2 == 0 for (e,) in Q.coeffs)


def test_signature_char_series_is_x_over_tanh():
    Q = char_series(GenusSpec.signature(), 6)
    assert Q.coefficient((2,)) == Fraction(1, 3)
    assert Q.coefficient((4,)) == Fraction(-1, 45)
    assert Q.coefficient((6,)) == Fraction(2, 945)


def test_generic_char_series():
    # by hand: f = u - (d/3) u^3 + (d^2/30 + e/10) u^5, so
    # Q = 1/(f/u) = 1 + (d/3) x^2 + (7 d^2/90 - e/10) x^4
    Q = char_series(GenusSpec.generic(), 5)
    assert Q.coefficient((0,)) == GENERIC_RING.one()
    assert Q.coefficient((2,)) == D * Fraction(1, 3)
    assert Q.coefficient((4,)) == D * D * Fraction(7, 90) - E * Fraction(1, 10)
    assert all(e % 2 == 0 for (e,) in Q.coeffs)  # even series


def inverse_log(spec, order):
    """f = x / Q(x), read back from char_series, in a ring of cap order + 1."""
    Q = char_series(spec, order)
    U = PolyRing(("u",), (order + 1,), spec.base_ring)
    return U, TruncPoly(U, {(e + 1,): c for (e,), c in Q.inverse().coeffs.items()})


def test_char_series_inverts_the_logarithm():
    # compose-back oracle: g(f(u)) = u for g = sum L_k u^(2k+1) / (2k+1),
    # the termwise integral of the Legendre generating series
    spec = GenusSpec.generic()
    U, f = inverse_log(spec, 12)
    g = TruncPoly(U, {(2 * k + 1,): legendre_coefficient(spec, k) * Fraction(1, 2 * k + 1) for k in range(7)})
    assert g.compose(f) == U.gen("u")
    assert all(e % 2 == 1 for (e,) in f.coeffs)  # the inverse of an odd series is odd


def test_char_series_satisfies_the_first_order_equation():
    # the recurrence comes from f'' = -2 d f + 2 e f^3; check f'^2 = 1 - 2 d f^2 + e f^4
    spec = GenusSpec.generic()
    U, f = inverse_log(spec, 12)
    df = TruncPoly(U, {(e - 1,): c * e for (e,), c in f.coeffs.items()})
    lhs = df * df
    rhs = U.one() - f * f * (2 * spec.delta) + f ** 4 * spec.epsilon
    # f' is known to u-order 11 (one degree is lost by differentiating)
    assert all(lhs.coefficient((n,)) == rhs.coefficient((n,)) for n in range(12))


# -- Legendre coefficients of the generating series ------------------------------


def test_legendre_central_binomials():
    # (1 - 4t^2)^{-1/2} = sum C(2k, k) t^{2k}
    spec = GenusSpec(Fraction(2), Fraction(0))
    assert [legendre_coefficient(spec, k) for k in range(8)] == [comb(2 * k, k) for k in range(8)]


def test_legendre_geometric_when_epsilon_is_delta_squared():
    # (1 - 2 d t^2 + d^2 t^4)^{-1/2} = (1 - d t^2)^{-1}, i.e. P_k(1) = 1
    assert [legendre_coefficient(GenusSpec.signature(), k) for k in range(8)] == [1] * 8
    spec = GenusSpec(Fraction(-3, 5), Fraction(9, 25))
    assert [legendre_coefficient(spec, k) for k in range(8)] == [Fraction(-3, 5) ** k for k in range(8)]


def test_legendre_round_trips():
    # S = sum L_k t^{2k} satisfies S^2 (1 - 2 d t^2 + e t^4) = 1
    rng = random.Random(3)
    R = PolyRing(("t",), (12,), QQ)
    t = R.gen("t")
    for _ in range(25):
        spec = GenusSpec(
            Fraction(rng.randint(-5, 5), rng.randint(1, 5)), Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        )
        S = TruncPoly(R, {(2 * k,): legendre_coefficient(spec, k) for k in range(7)})
        assert S * S * (1 - 2 * spec.delta * t ** 2 + spec.epsilon * t ** 4) == R.one()


# -- genus values ----------------------------------------------------------------


def test_cp2_gives_delta_and_hp2_gives_epsilon():
    assert genus_value(GenusSpec.generic(), builtin("CP2")) == D
    assert genus_value(GenusSpec.generic(), builtin("HP2")) == E


def test_cp4_matches_binomial_oracle():
    # t^4 coefficient of (1-2dt^2+et^4)^{-1/2} is (3d^2-e)/2
    assert genus_value(GenusSpec.generic(), builtin("CP4")) == (3 * D * D - E) * Fraction(1, 2)


def test_generating_function_check():
    assert cp_generating_check(GenusSpec.generic(), 4)
    assert cp_generating_check(GenusSpec.signature(), 3)
    assert cp_generating_check(GenusSpec.ahat(), 3)


def test_genus_vanishes_off_dimension_4k():
    assert genus_value(GenusSpec.ahat(), builtin("CP3")) == 0
    assert genus_value(GenusSpec.generic(), builtin("CP1")) == GENERIC_RING.zero()


def test_ahat_values():
    assert genus_value(GenusSpec.ahat(), builtin("CP2")) == Fraction(-1, 8)
    for n in (1, 2, 3):
        assert genus_value(GenusSpec.ahat(), builtin(f"HP{n}")) == 0
    for m in (1, 2, 3):
        assert genus_value(GenusSpec.ahat(), builtin(f"CP{2 * m + 1}")) == 0


def test_signature_values():
    assert genus_value(GenusSpec.signature(), builtin("CP2")) == 1
    assert genus_value(GenusSpec.signature(), builtin("HP2")) == 1
    assert genus_value(GenusSpec.signature(), builtin("HP3")) == 0
    # sign(V4) via L-genus: independent hand computation from p1 = -10h^2, p2 = 175h^4
    assert genus_value(GenusSpec.signature(), builtin("V(4,4)")) == 100


def test_multiplicativity_on_catalog_pairs():
    pairs = [("CP2", "CP2"), ("CP2", "HP2"), ("HP2", "V(4,4)"), ("CP4", "CP2")]
    for a, b in pairs:
        va = genus_value(GenusSpec.generic(), builtin(a))
        vb = genus_value(GenusSpec.generic(), builtin(b))
        vprod = genus_value(GenusSpec.generic(), builtin(f"product({a},{b})"))
        assert vprod == va * vb


def test_weight_grading():
    for name in ("CP2", "CP4", "HP2", "HP3", "V(4,4)", "product(CP2,HP2)"):
        m = builtin(name)
        k = m.dim_real // 4
        value = genus_value(GenusSpec.generic(), m)
        for (a, b), _ in value.coeffs.items():
            assert 2 * a + 4 * b == 2 * k


def test_specialization_commutes():
    for name in ("CP2", "CP4", "HP2", "V(4,4)"):
        m = builtin(name)
        generic = genus_value(GenusSpec.generic(), m)
        assert generic.evaluate({"delta": Fraction(1), "epsilon": Fraction(1)}, Fraction(0)) == genus_value(
            GenusSpec.signature(), m
        )
        assert generic.evaluate(
            {"delta": Fraction(-1, 8), "epsilon": Fraction(0)}, Fraction(0)
        ) == genus_value(GenusSpec.ahat(), m)


# -- twisted indices ---------------------------------------------------------------


def test_untwisted_indices_match_genus_values():
    assert twisted_index("signature", builtin("CP2"), TRIVIAL) == 1
    assert twisted_index("ahat", builtin("CP2"), TRIVIAL) == Fraction(-1, 8)
    assert twisted_index("signature", builtin("HP2"), TRIVIAL) == 1
    assert twisted_index("ahat", builtin("V(4,4)"), TRIVIAL) == 0
    # the bundle path divides by the density's zero-root value (2 for the
    # signature density) delta times: delta = 1 on CPn, HPn and V(n,l), 2 on products
    names = ("pt", "CP2", "CP4", "CP6", "CP8", "HP1", "HP2", "HP3", "HP4",
             "V(2,2)", "V(2,3)", "V(4,3)", "V(4,4)", "V(6,2)",
             "product(CP2,CP2)", "product(HP2,HP2)", "product(CP2,HP2)", "product(CP1,CP1)")
    for name in names:
        m = builtin(name)
        assert m.dim_real % 4 == 0 and m.dim_real <= 16
        for spec in ("signature", "ahat"):
            assert twisted_index(spec, m, TRIVIAL) == genus_value(GenusSpec.named(spec), m), (name, spec)


def test_loop_series_q0_is_signature():
    for name in ("CP2", "CP4", "HP2", "HP3", "V(4,4)", "product(CP2,CP2)"):
        m = builtin(name)
        s = cusp_series(m, SIGNATURE_CUSP, 3)
        assert s.series.coefficient(0) == genus_value(GenusSpec.signature(), m)


def test_phi0_lowest_coefficient_is_ahat():
    for name in ("CP2", "CP4", "HP2", "V(4,4)"):
        m = builtin(name)
        k = m.dim_real // 4
        phi0 = cusp_series(m, AHAT_CUSP, 3).series.shift(-k)  # phi_0 = q^(-k/2) times the raw series
        assert phi0.coefficient(-k) == genus_value(GenusSpec.ahat(), m)


def test_phi0_first_two_coefficients_for_all_catalog():
    # q^{k/2} Phi_0 = A-hat(M) - A-hat(M, TM_C) q + ...; product(CP2,HP2) mixes Chern and Pontryagin entries
    for name in ("CP2", "CP4", "HP2", "HP3", "V(4,4)", "product(CP2,CP2)", "product(CP2,HP2)"):
        m = builtin(name)
        raw = cusp_series(m, AHAT_CUSP, 3).series
        assert raw.coefficient(0) == genus_value(GenusSpec.ahat(), m)
        assert raw.coefficient(2) == -twisted_index("ahat", m, TANGENT)


def test_hp2_tangent_twist_nonzero():
    value = twisted_index("ahat", builtin("HP2"), TANGENT)
    assert value != 0
    raw = cusp_series(builtin("HP2"), AHAT_CUSP, 3).series
    assert raw.coefficient(2) == -value


def test_ext2_word_matches_q2_coefficient():
    for name in ("CP2", "HP2", "V(4,4)", "product(CP2,HP2)"):
        m = builtin(name)
        raw = cusp_series(m, AHAT_CUSP, 3).series
        assert raw.coefficient(4) == twisted_index("ahat", m, EXT2_PLUS_TANGENT)


def lambda_t_ext2_plus_tangent(model):
    """ch(TM_C) + ch(Lambda^2 TM_C) as the t and t^2 coefficients of Lambda_t(TM_C).

    Lambda_t(TM_C) is the root product of (1 + t e^x)(1 + t e^-x) over Q[t]/t^3,
    with base ring elements only as right operands.
    """
    T = PolyRing(("t",), (2,), QQ)
    XT = PolyRing(("x",), (max(1, model.dim_real // 2),), T)
    t = T.gen("t")

    def exp(sign):
        return TruncPoly(XT, {(j,): T.const(Fraction(sign ** j, factorial(j))) for j in range(XT.caps[0] + 1)})

    total, scalar = root_product(model, (exp(1) * t + 1) * (exp(-1) * t + 1))
    lam = total if scalar is None else total * scalar  # (1 + t)^(-2 delta) for the trivial roots
    return TruncPoly(model.poly_ring(), {e: c.coefficient((1,)) + c.coefficient((2,)) for e, c in lam.coeffs.items()})


@pytest.mark.parametrize("name", ["CP2", "CP4", "HP2", "HP3", "V(4,4)", "product(CP2,HP2)", "CP1-reduced"])
def test_ext2_plus_tangent_matches_the_lambda_t_route(name):
    m = cp1_reduced() if name == "CP1-reduced" else builtin(name)
    character = lambda_t_ext2_plus_tangent(m)
    for spec in ("ahat", "signature"):
        total, scalar = word_factor_product(m, spec, QQ)
        oracle = m.integrate(total * character, scalar)
        assert twisted_index(spec, m, EXT2_PLUS_TANGENT) == oracle


def test_loop_series_multiplicative_on_product():
    a = cusp_series(builtin("CP2"), SIGNATURE_CUSP, 4).series
    prod = cusp_series(builtin("product(CP2,CP2)"), SIGNATURE_CUSP, 4).series
    assert prod == a * a


def cp1_reduced():
    """CP1 as the reduced root {(2h,1), delta 0}; the catalog model has virtual roots {(h,2), delta 1}."""
    return load_model(
        {
            "name": "CP1-reduced",
            "dim_real": 2,
            "spin": True,
            "generators": [{"symbol": "h", "degree": 2, "cap": 1}],
            "pairing": "1",
            "tangent": {
                "style": "chern",
                "delta": 0,
                "entries": [{"form": {"h": "2"}, "mult": 1}],
            },
        }
    )


def test_delta_correction_equivalence_on_cp1():
    # CP1 as virtual roots {(h,2), delta 1} and as the reduced root {(2h,1), delta 0}
    reduced = cp1_reduced()
    virtual = builtin("CP1")
    for cusp in (SIGNATURE_CUSP, AHAT_CUSP):
        a = cusp_series(reduced, cusp, 4).series
        b = cusp_series(virtual, cusp, 4).series
        assert a == b
    assert twisted_index("ahat", reduced, TANGENT) == twisted_index("ahat", virtual, TANGENT)


def test_quadric_model_agrees_with_cp1_x_cp1():
    # V(2,2) and CP1 x CP1 are the same manifold through different models
    a = cusp_series(builtin("V(2,2)"), SIGNATURE_CUSP, 4).series
    b = cusp_series(builtin("product(CP1,CP1)"), SIGNATURE_CUSP, 4).series
    assert a == b


def test_word_exponent_parity():
    for name in ("CP2", "HP2", "V(4,4)"):
        m = builtin(name)
        loop = cusp_series(m, SIGNATURE_CUSP, 4).series
        assert all(e % 2 == 0 for e in loop.support())
        raw = cusp_series(m, AHAT_CUSP, 4).series  # q^(k/2) phi_0: integral powers of q
        assert all(e % 2 == 0 for e in raw.support())


def test_integrality_on_spin_catalog_models():
    for name in ("HP2", "HP3", "V(4,4)", "CP3"):
        m = builtin(name)
        if m.dim_real % 4:
            continue
        raw = cusp_series(m, AHAT_CUSP, 4).series
        for e in raw.support():
            assert raw.coefficient(e).denominator == 1


def test_unsupported_descriptor_combinations():
    for name in ("HP2", "product(CP2,HP2)"):
        with pytest.raises(StructuralError, match="needs Chern-style tangent data"):
            twisted_index("ahat", builtin(name), TANGENT_CHERN)
    with pytest.raises(StructuralError, match="unknown density"):
        index_density("signature-op", 4, QQ)


# -- hypersurface closed form -------------------------------------------------------


def test_hypersurface_closed_form_values():
    assert hypersurface_index_closed(4) == -50
    assert hypersurface_index_closed(6) == -784
    assert hypersurface_index_closed(8) == -11430
    for n in (4, 6, 8):
        assert hypersurface_index_closed_form_value(n) == n + 2 - comb(2 * n, n + 1)


def test_hypersurface_degree_two_probe():
    assert hypersurface_index_closed(2) == 0  # 4 - C(4,3)


def test_tangent_chern_is_tangent_plus_trivial_line():
    # on K3 = V(2,4): chi(K3, T) = -20 plus A-hat(K3) = 2, the index twisted by the trivial line
    k3 = builtin("V(2,4)")
    assert genus_value(GenusSpec.ahat(), k3) == 2
    assert twisted_index("ahat", k3, TANGENT_CHERN) == -18


# -- pole orders -----------------------------------------------------------------------


def test_pole_order_v4():
    m = builtin("V(4,4)")
    p = cusp_series(m, AHAT_CUSP, 4).series.shift(-2)  # phi_0, k = 2
    # dim 8: A-hat vanishes, the tangent twist does not: pole order dim/8 - 1 = 0
    assert genus_value(GenusSpec.ahat(), m) == 0
    assert twisted_index("ahat", m, TANGENT) != 0
    assert pole_order(p) == 0


def test_pole_order_hp2_and_vanish_counts():
    p = cusp_series(builtin("HP2"), AHAT_CUSP, 4).series.shift(-2)  # phi_0, k = 2
    assert p.coefficient(-2) == 0      # A-hat(HP2) = 0
    assert p.coefficient(0) != 0       # tangent twist survives


def test_pole_order_zero_series_is_indeterminate():
    zero = cusp_series(builtin("CP3"), AHAT_CUSP, 3)  # dim not divisible by 4
    assert zero.k == 0
    assert pole_order(zero.series) is None


# -- one inverse per constant term --------------------------------------------------------


def test_a_cold_cusp_series_inverts_each_series_once(empty_caches, monkeypatch):
    # HP4 has entries of multiplicity 10 and -1 and delta 1: both powers and the f(0)^-1 scalar
    # invert the density's constant term f(0), which the series now keeps; with the theta
    # quotient's one inverse, two series are inverted (four before)
    empty_caches()
    model = builtin("HP4")  # the catalog self-check inverts no q-series
    calls = []
    real = series._inverse_ints

    def counting(a, den, n):
        calls.append(n)
        return real(a, den, n)

    monkeypatch.setattr(series, "_inverse_ints", counting)
    cusp_series(model, AHAT_CUSP, 6)
    assert len(calls) == 2
    empty_caches()
