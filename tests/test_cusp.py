"""Cusp expansions, modularity verification, weight-0 normalization."""

from fractions import Fraction

import pytest

from genuslab import cusp as cusp_module
from genuslab import suites
from genuslab.cusp import (
    generator_expansions,
    normalized_phi,
    self_intersection_compare,
    verify_modularity,
)
from genuslab.errors import InternalInconsistencyError, StructuralError
from genuslab.genus import AHAT_CUSP, SIGNATURE_CUSP, cusp_series
from genuslab.manifolds import builtin

MODULARITY_SET = ("CP4", "CP6", "HP2", "HP3", "V(4,4)", "product(CP2,CP2)")


def test_signature_cusp_constants():
    e = generator_expansions(SIGNATURE_CUSP, 4)
    assert e.delta_series.coefficient(0) == 1
    assert e.epsilon_series.coefficient(0) == 1


def test_ahat_cusp_leading_terms():
    e = generator_expansions(AHAT_CUSP, 4)
    assert e.delta_series.coefficient(0) == Fraction(-1, 8)
    assert e.epsilon_series.coefficient(0) == 0
    assert e.epsilon_series.lowest_exponent() == 2  # starts at q^1


def test_epsilon_consistency_in_both_cusps():
    # constructor raises InternalInconsistencyError if the identity fails
    for cusp in (SIGNATURE_CUSP, AHAT_CUSP):
        e = generator_expansions(cusp, 4)
        cp4 = cusp_series(builtin("CP4"), cusp, 4).series
        assert e.epsilon_series == e.delta_series ** 2 * 3 - cp4 * 2


def test_generator_independence_jacobian_ahat_cusp():
    e = generator_expansions(AHAT_CUSP, 3)
    d1, d2 = e.delta_series.coefficient(2), e.delta_series.coefficient(4)
    e1, e2 = e.epsilon_series.coefficient(2), e.epsilon_series.coefficient(4)
    assert d1 * e2 - d2 * e1 != 0


def test_signature_cusp_epsilon_is_constant_one():
    # Homogeneous rigidity: the loop-signature series of HP^2 is the constant 1,
    # so the Jacobian independence test is vacuous at this cusp; delta carries
    # all the q-dependence there.
    e = generator_expansions(SIGNATURE_CUSP, 4)
    assert e.epsilon_series == e.epsilon_series.ring.const(1)
    assert e.delta_series.coefficient(2) == 32  # 2*sign(CP2, complexified tangent)


def test_modularity_cp2_by_construction():
    assert verify_modularity(builtin("CP2"), SIGNATURE_CUSP, 4)
    assert verify_modularity(builtin("CP2"), AHAT_CUSP, 4)


def test_modularity_catalog_both_cusps():
    for name in MODULARITY_SET:
        m = builtin(name)
        assert verify_modularity(m, SIGNATURE_CUSP, 6), name
        assert verify_modularity(m, AHAT_CUSP, 6), name


@pytest.mark.parametrize("qorder", [2, 3, 4])
@pytest.mark.parametrize("cusp", [SIGNATURE_CUSP, AHAT_CUSP])
def test_modularity_of_a_constant_and_of_a_zero_generic_genus(cusp, qorder):
    # pt's generic genus is the constant 1 and HP3's is 0: the substitution sums from the ring's zero
    assert verify_modularity(builtin("pt"), cusp, qorder)
    assert verify_modularity(builtin("HP3"), cusp, qorder)


def test_cp4_substitution_is_half_3d2_minus_e():
    e = generator_expansions(SIGNATURE_CUSP, 6)
    lhs = cusp_series(builtin("CP4"), SIGNATURE_CUSP, 6).series
    rhs = (e.delta_series ** 2 * 3 - e.epsilon_series) * Fraction(1, 2)
    assert lhs == rhs


def test_substitution_respects_products():
    for cusp in (SIGNATURE_CUSP, AHAT_CUSP):
        a = cusp_series(builtin("CP2"), cusp, 4).series
        b = cusp_series(builtin("HP2"), cusp, 4).series
        prod = cusp_series(builtin("product(CP2,HP2)"), cusp, 4).series
        assert prod == a * b
        assert verify_modularity(builtin("product(CP2,HP2)"), cusp, 4)


def test_normalized_phi_hp2_is_one():
    n = normalized_phi(builtin("HP2"), SIGNATURE_CUSP, 6)
    assert n == n.ring.const(1)
    assert n.coefficient(0) == 1
    for e in n.support():
        assert e == 0


def test_normalized_phi_products_of_hp2():
    n = normalized_phi(builtin("product(HP2,HP2)"), SIGNATURE_CUSP, 5)
    assert n == n.ring.const(1)


def test_normalized_phi_point():
    n = normalized_phi(builtin("pt"), SIGNATURE_CUSP, 4)
    assert n.coefficient(0) == 1


def epsilon_division(model, cusp, qorder):
    """phi / epsilon^(k/2) by series division, and the power of phi_0 that it is.

    Odd k divides the square, phi^2 / epsilon^k, so that no square root of a
    q-series is taken.
    """
    ix = cusp_series(model, cusp, qorder)
    eps = generator_expansions(cusp, qorder).epsilon_series
    if ix.k % 2 == 0:
        return ix.series * eps ** (-(ix.k // 2)), 1
    return ix.series * ix.series * eps ** (-ix.k), 2


@pytest.mark.parametrize("qorder", range(2, 9))
@pytest.mark.parametrize("cusp", [SIGNATURE_CUSP, AHAT_CUSP])
def test_the_shift_is_the_epsilon_division(cusp, qorder):
    # epsilon is exactly 1 at the signature cusp and exactly q = s^2 at the A-hat cusp, so
    # dividing by epsilon^(k/2) is the identity or a shift by k s-powers
    for name in ("pt", "CP2", "HP1", "HP3", "product(HP1,HP1)", *MODULARITY_SET):
        oracle, power = epsilon_division(builtin(name), cusp, qorder)
        n = normalized_phi(builtin(name), cusp, qorder)
        shifted = n if power == 1 else n * n
        # no comparison is vacuous: CP6 at the A-hat cusp starts at s^-6, and each series is known
        # below s^(2q-6)
        assert min(oracle.order, shifted.order) >= 2 * qorder - 6, (name, oracle.order, shifted.order)
        assert oracle == shifted, name


def test_self_intersection_hp2_fixed_set():
    # sigma on HP2 with fixed set HP1 u pt: the transversal self-intersection
    # of the fixed set is a point ([HP1]^2 pairs to 1), so the normalized
    # series of HP2 and of a point must agree.
    a = cusp_series(builtin("HP2"), SIGNATURE_CUSP, 5)
    b = cusp_series(builtin("pt"), SIGNATURE_CUSP, 5)
    assert self_intersection_compare(a, b, SIGNATURE_CUSP)


def test_self_intersection_identical_manifolds():
    a = cusp_series(builtin("CP4"), SIGNATURE_CUSP, 4)
    assert self_intersection_compare(a, a, SIGNATURE_CUSP)


def test_self_intersection_empty_vs_zero():
    # an odd action forces Phi(M) = 0: comparing against the zero series
    # succeeds only when the manifold's series vanishes
    zero = cusp_series(builtin("CP3"), AHAT_CUSP, 4)  # identically zero (dim not 4k)
    a = cusp_series(builtin("HP2"), SIGNATURE_CUSP, 4)
    assert not self_intersection_compare(a, zero, SIGNATURE_CUSP)
    assert self_intersection_compare(zero, zero, SIGNATURE_CUSP)


@pytest.mark.parametrize("cusp", [SIGNATURE_CUSP, AHAT_CUSP])
def test_self_intersection_across_odd_and_even_k(cusp):
    # dimensions 4 and 8 (k = 1, 2): the weight-0 series compare with no squaring
    def series(name):
        return cusp_series(builtin(name), cusp, 4)

    # both normalized genera vanish
    assert self_intersection_compare(series("product(HP1,HP1)"), series("HP1"), cusp)
    # Phi(CP2 x CP2) = delta^2 / epsilon is not Phi(CP2) = delta / epsilon^(1/2)
    assert not self_intersection_compare(series("product(CP2,CP2)"), series("CP2"), cusp)
    assert not self_intersection_compare(series("CP2"), series("product(CP2,CP2)"), cusp)


def test_modularity_rejects_wrong_dimension():
    with pytest.raises(StructuralError):
        verify_modularity(builtin("CP3"), SIGNATURE_CUSP, 4)


def test_raw_vs_normalized_never_conflated():
    # raw series of HP2 at the A-hat cusp is epsilon-tilde (starts at q);
    # the normalized series is the constant 1 plus higher corrections
    raw = cusp_series(builtin("HP2"), AHAT_CUSP, 4).series
    assert raw.coefficient(0) == 0
    n = normalized_phi(builtin("HP2"), AHAT_CUSP, 4)
    assert n.coefficient(0) != 0


def perturbed_hp2(monkeypatch, at_cusp, s_exp):
    """Make `cusp.cusp_series` add s^s_exp to HP2's series at one cusp; the cached series stay unchanged."""
    real = cusp_module.cusp_series

    def perturbed(model, cusp, qorder):
        ix = real(model, cusp, qorder)
        if model.name == "HP2" and cusp == at_cusp:
            return ix._replace(series=ix.series + ix.series.ring.one().shift(s_exp))
        return ix

    monkeypatch.setattr(cusp_module, "cusp_series", perturbed)


def test_hp2_series_plus_q_fails_the_normalization_check(monkeypatch):
    # the check compares HP2's raw signature-cusp series with 1, so it can fail
    perturbed_hp2(monkeypatch, SIGNATURE_CUSP, 2)
    checks = {c["name"]: c["status"] for c in suites.suite_normalization(4)}
    assert checks == {
        "hp2-genus-is-epsilon": "PASS",
        "hp2-normalized-is-one": "FAIL",
        "hp2xhp2-normalized-is-one": "PASS",
    }


@pytest.mark.parametrize("s_exp", [2, 4])
def test_an_ahat_epsilon_that_is_not_exactly_q_raises(monkeypatch, empty_caches, s_exp):
    # s^2 doubles the leading q; s^4 keeps epsilon's start at q^1 and still breaks epsilon == q
    empty_caches()
    perturbed_hp2(monkeypatch, AHAT_CUSP, s_exp)
    with pytest.raises(InternalInconsistencyError, match="^ahat-cusp epsilon is not exactly q$"):
        generator_expansions(AHAT_CUSP, 4)
    generator_expansions(SIGNATURE_CUSP, 4)  # the other cusp is untouched
    empty_caches()


@pytest.mark.parametrize("qorder", [4, 6])
def test_the_expansion_checks_reuse_the_series_of_the_modularity_suite(empty_caches, qorder):
    # the head checks ask for the A-hat series at the job's q-order, which the cusp bootstrap
    # (CP2, HP2, CP4) and the modularity suite (the rest) have built
    empty_caches()
    suites.suite_modularity(qorder)
    misses = cusp_series.cache_info().misses
    checks = suites.suite_expansion(qorder)
    assert [c["status"] for c in checks] == ["PASS"] * 7
    assert cusp_series.cache_info().misses == misses
    empty_caches()
