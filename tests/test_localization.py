"""Fixed-point localization: local terms, cancellation, rigidity."""

from fractions import Fraction

import pytest

from genuslab.errors import StructuralError, ValidationError
from genuslab.genus import SIGNATURE_CUSP, cusp_series
from genuslab.localization import (
    CircleActionData,
    FixedComponent,
    NormalSummand,
    builtin_action,
    detect_parity,
    dump_action,
    equivariant_series,
    euler_fixed_check,
    load_action,
    local_term,
    odd_action_forces_zero,
    rigidity_check,
)
from genuslab.manifolds import builtin
from genuslab.rings import GaussianRational, I_UNIT, QI, QQ
from genuslab.series import PolyRing, QSeries, SeriesRing


def test_cp2_linear_components():
    a = builtin_action("CP2_linear(0,0,1)")
    assert len(a.components) == 2
    sizes = sorted(c.model.dim_real for c in a.components)
    assert sizes == [0, 2]
    by_dim = {c.model.dim_real: c for c in a.components}
    assert by_dim[2].weights() == [1]          # CP^1 with normal weight 1
    assert sorted(by_dim[0].weights()) == [-1, -1]  # the point


def test_hp1_weights_recipe():
    a = builtin_action("HP1_diagonal(1,2)")
    w = [sorted(c.weights()) for c in a.components]
    assert w == [[-3, 1], [-3, -1]]


def test_inadmissible_weight_coincidence():
    with pytest.raises(ValidationError):
        builtin_action("HP2_diagonal(1,1,2)")
    with pytest.raises(ValidationError):
        builtin_action("HP1_diagonal(0,1)")


def test_admissibility_of_samples():
    a = builtin_action("HP1_diagonal(1,2)")
    with pytest.raises(ValidationError):
        equivariant_series(a, 1, 2)  # lambda = 1 never admissible
    b = builtin_action("HP2_diagonal(1,2,5)")  # weight 4 occurs: i^4 = 1
    with pytest.raises(ValidationError):
        equivariant_series(b, GaussianRational(0, 1), 2)


def test_euler_fixed_point_counts():
    assert euler_fixed_check(builtin_action("CP2_linear(0,0,1)")) is True  # chi(CP^1) + chi(pt) = 3
    assert euler_fixed_check(builtin_action("CP4_linear(0,1,2,3,4)")) is True  # five points
    with pytest.raises(StructuralError, match="Chern-style"):  # HP2 has Pontryagin-style tangent data
        euler_fixed_check(builtin_action("HP2_diagonal(1,2,4)"))


def test_point_component_counts_its_pairing():
    # a point's Euler characteristic is its fundamental-class pairing, here 2 = chi(CP^1)
    from genuslab.manifolds import load_model

    point2 = load_model(
        {
            "name": "pt2",
            "dim_real": 0,
            "spin": True,
            "generators": [],
            "pairing": "2",
            "tangent": {"style": "chern", "delta": 0, "entries": []},
        }
    )
    component = FixedComponent(point2, (NormalSummand({}, 1),))
    action = CircleActionData((component,), builtin("CP1"), "test")
    assert euler_fixed_check(action) is True


@pytest.mark.parametrize("weights", [(5, 7), (5, 11)], ids=["rational-first", "gaussian-first"])
def test_local_term_keeps_rational_and_gaussian_samples_apart(weights):
    # Fraction(2) == GaussianRational(2) and the two hash alike, but they name different rings,
    # whichever is evaluated first; the N-factor cache keys on the ring as well as on lam^w
    c = FixedComponent(builtin("pt"), tuple(NormalSummand({}, w) for w in weights))
    samples = [Fraction(2), GaussianRational(2)]
    if weights == (5, 11):
        samples.reverse()
    terms = {type(lam): local_term(c, lam, 4) for lam in samples}
    assert terms[Fraction].ring.base == QQ and terms[GaussianRational].ring.base == QI
    assert terms[Fraction].coeffs == terms[GaussianRational].coeffs


def test_hp1_cancellation_to_all_orders():
    a = builtin_action("HP1_diagonal(1,2)")
    for lam in (Fraction(2), Fraction(3), Fraction(5, 2)):
        s = equivariant_series(a, lam, 5)
        assert s.is_zero()


def test_hp2_sum_equals_loop_series():
    a = builtin_action("HP2_diagonal(1,2,4)")
    loop = cusp_series(builtin("HP2"), SIGNATURE_CUSP, 5).series
    for lam in (Fraction(2), Fraction(3), Fraction(5)):
        s = equivariant_series(a, lam, 5)
        assert s == loop


def test_trivial_action_is_loop_series():
    for name in ("CP2", "HP2"):
        m = builtin(name)
        s = local_term(FixedComponent(m, ()), Fraction(7), 4)
        assert s == cusp_series(m, SIGNATURE_CUSP, 4).series


def test_rigidity_hp2_pass():
    a = builtin_action("HP2_diagonal(1,2,4)")
    report = rigidity_check(a, [Fraction(2), Fraction(3), Fraction(5)], 5)
    assert report.status == "PASS"
    assert report.all_samples_equal
    assert report.matches_loop_series


def test_rigidity_hp1_pass_with_zero():
    report = rigidity_check(builtin_action("HP1_diagonal(1,2)"), [Fraction(2), Fraction(3)], 5)
    assert report.status == "PASS"


def test_rigidity_cp2_observational():
    a = builtin_action("CP2_linear(0,1,2)")
    report = rigidity_check(a, [Fraction(2), Fraction(3)], 3)
    assert not a.ambient_model.spin
    assert report.q0_constant           # signature rigidity holds regardless
    assert report.status == "OBSERVATIONAL"


def test_reciprocal_samples_are_one_sample():
    # each q^N coefficient is a Laurent polynomial P_N with P_N(1/lam) = P_N(lam): lam and 1/lam
    # agree even where the character is not constant, so they certify nothing beyond one sample
    a = builtin_action("CP2_linear(0,1,3)")
    assert equivariant_series(a, Fraction(2), 3) == equivariant_series(a, Fraction(1, 2), 3)
    assert rigidity_check(a, [Fraction(2), Fraction(1, 2)], 3).all_samples_equal
    assert not rigidity_check(a, [Fraction(2), Fraction(3)], 3).all_samples_equal


def test_parity_detection():
    hp = builtin_action("HP2_diagonal(1,2,4)")
    assert detect_parity(hp) == "even"  # codim 8 at each point
    odd = CircleActionData(
        components=(
            FixedComponent(builtin("CP3"), (NormalSummand({}, 1),)),
        ),
        ambient_model=builtin("HP2"),  # dimension 8, spin
        name="synthetic",
    )
    assert detect_parity(odd) == "odd"
    assert odd_action_forces_zero(odd)


# -- the order-4 local-term identities --------------------------------------------


def test_nx_product_with_opposite_roots_is_minus_one():
    # normal pair y2 = -y1 at lambda = i: the product collapses to -1 exactly
    qorder = 5
    S = SeriesRing(QI, 2 * qorder + 2)
    Y = PolyRing(("y",), (3,), S)
    comp_model_ring = Y
    one = Y.one()
    y = Y.gen("y")
    lam = I_UNIT

    def n_factor(expform_pos, expform_neg, w):
        lw, lwi = lam ** w, lam ** (-w)
        f = (one + expform_neg * lwi) * (one - expform_neg * lwi).inverse()
        n = 1
        while 2 * n < S.order:
            qp = Y.const(QSeries(S, 2 * n, [lw], S.order + 2 * n))
            qm = Y.const(QSeries(S, 2 * n, [lwi], S.order + 2 * n))
            f = f * (one + qp * expform_pos) * (one + qm * expform_neg)
            f = f * ((one - qp * expform_pos) * (one - qm * expform_neg)).inverse()
            n += 1
        return f

    e_y = one + y + Fraction(1, 2) * y ** 2 + Fraction(1, 6) * y ** 3  # e^y to the cap y^3
    e_neg_y = one - y + Fraction(1, 2) * y ** 2 - Fraction(1, 6) * y ** 3
    prod = n_factor(e_y, e_neg_y, 1) * n_factor(e_neg_y, e_y, 1)  # second root is -y
    minus_one = -one
    assert prod == minus_one


def test_isolated_point_term_at_i_is_plus_minus_one():
    # all weights +-1 at lambda = i in ambient dimension 4k: every q-level
    # cancels and the term is (-1)^k exactly
    comp = FixedComponent(
        builtin("pt"),
        tuple(NormalSummand({}, w) for w in (1, 1, -1, 1)),  # 2k = 4 summands
    )
    term = local_term(comp, I_UNIT, 5)
    assert term.support() == [0]
    value = term.coefficient(0)
    assert value in (QI.one(), -QI.one())
    # with all weights +1 the value is ((1-i)/(1+i))^{2k} = (-1)^k
    comp2 = FixedComponent(builtin("pt"), tuple(NormalSummand({}, 1) for _ in range(4)))
    term2 = local_term(comp2, I_UNIT, 5)
    assert term2.support() == [0]
    assert term2.coefficient(0) == QI.one()  # k = 2


def test_gaussian_sample_on_hp2_matches_rational_samples():
    # no tangent weight of HP2_diagonal(1,2,4) is divisible by 4, so i is admissible
    a = builtin_action("HP2_diagonal(1,2,4)")
    report = rigidity_check(a, [Fraction(2), GaussianRational(0, 1)], 4)
    assert report.status == "PASS"
    assert report.all_samples_equal and report.matches_loop_series


# -- file round-trip ----------------------------------------------------------------


def test_action_file_round_trip(tmp_path):
    import json

    a = builtin_action("CP2_linear(0,0,1)")
    doc = dump_action(a)
    p = tmp_path / "action.json"
    p.write_text(json.dumps(doc))
    b = load_action(str(p))
    assert b.ambient_model == a.ambient_model
    assert len(b.components) == len(a.components)
    s1 = equivariant_series(a, Fraction(2), 3)
    s2 = equivariant_series(b, Fraction(2), 3)
    assert s1 == s2


def test_action_file_validation():
    with pytest.raises(ValidationError):
        load_action({"ambient": "builtin:CP2", "components": []})
    with pytest.raises(ValidationError):
        load_action(
            {
                "ambient": "builtin:CP2",
                "components": [
                    {"model": "point", "normal": [{"chern": {}, "weight": 0}]}
                ],
            }
        )
    # dimension mismatch: point with one normal plane in CP2 (needs two)
    with pytest.raises(ValidationError):
        load_action(
            {
                "ambient": "builtin:CP2",
                "components": [
                    {"model": "point", "normal": [{"chern": {}, "weight": 1}]}
                ],
            }
        )


def interpolate(points, t):
    """The polynomial through `points` (pairs (t_i, y_i) with distinct t_i), at t."""
    total = Fraction(0)
    for i, (ti, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (tj, _) in enumerate(points):
            if j != i:
                term *= (t - tj) / (ti - tj)
        total += term
    return total


def test_rigidity_degree_bound_in_t_is_sharp():
    # the q^N coefficient P_N of the equivariant series is a polynomial of degree
    # <= N w_max in t = lam + 1/lam (module docstring): N w_max + 1 samples with
    # distinct t fix it, and on this non-spin action N w_max samples do not
    action = builtin_action("CP2_linear(0,1,3)")
    w_max = max(abs(w) for comp in action.components for w in comp.weights())
    assert w_max == 3
    qorder = 3
    lams = [Fraction(n) for n in range(2, 3 * w_max + 5)] + [Fraction(5, 2), Fraction(7, 3)]
    series = {lam: equivariant_series(action, lam, qorder) for lam in lams}
    for n in range(qorder + 1):
        points = [(lam + 1 / lam, series[lam].coefficient(2 * n)) for lam in lams]
        d = n * w_max
        assert all(interpolate(points[: d + 1], t) == y for t, y in points[d + 1 :]), n
        if n:
            for m in (d - 1, d):
                assert any(interpolate(points[:m], t) != y for t, y in points[m:]), (n, m)


@pytest.mark.parametrize("name", ["HP2_diagonal(1,2,4)", "CP2_linear(0,1,3)"])
@pytest.mark.parametrize(
    "samples", [(I_UNIT, -I_UNIT, Fraction(2)), (Fraction(2), -I_UNIT, I_UNIT)], ids=["i,-i,2", "2,-i,i"]
)
def test_a_sample_gives_the_same_series_cold_and_after_other_samples(empty_caches, name, samples):
    # -i reuses the N-factors that i built (and the reverse), so a cache-order fault shows here
    action = builtin_action(name)

    def exactly(series):
        return series.ring, series.lo, series.order, series.coeffs

    cold = {}
    for lam in samples:
        empty_caches()
        cold[lam] = exactly(equivariant_series(action, lam, 8))
    empty_caches()
    for lam in samples:
        assert exactly(equivariant_series(action, lam, 8)) == cold[lam]
