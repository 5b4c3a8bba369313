"""Acceptance criteria, one test per criterion, all tolerances exact.

Each test prints a single `ACCEPTANCE <n> ... PASS` line (visible with -s or
-rA); a failure raises with the offending values.  Target runtime for the
whole file is well under a minute at the default q-order 6.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

from genuslab.cusp import (
    generator_expansions,
    normalized_phi,
    verify_modularity,
)
from genuslab.genus import (
    AHAT_CUSP,
    GENERIC_RING,
    SIGNATURE_CUSP,
    GenusSpec,
    TANGENT,
    cp_generating_check,
    cusp_series,
    genus_value,
    hypersurface_index_closed,
    twisted_index,
)
from genuslab.localization import (
    builtin_action,
    dump_action,
    equivariant_series,
    load_action,
    order4_local_identities,
    rigidity_check,
)
from genuslab.manifolds import builtin, dump_model, euler_characteristic, load_model
from genuslab.obstructions import (
    code_audit,
    codim_fixed,
    cross_check_prediction,
    m_invariant,
    reduced_weight,
)

QORDER = 6


def _report(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n:2d} [{label}]: PASS")


def test_criterion_01_generating_function():
    assert cp_generating_check(GenusSpec.generic(), 4)
    _report(1, "generating function for CP^{2k}, k <= 4, exact in Q[delta,epsilon]")


def test_criterion_02_hp2_normalized_genus():
    epsilon = GENERIC_RING.gen("epsilon")
    assert genus_value(GenusSpec.generic(), builtin("HP2")) == epsilon
    n = normalized_phi(builtin("HP2"), SIGNATURE_CUSP, QORDER)
    assert n == n.ring.const(1)
    _report(2, "phi(HP2) = epsilon and normalized expansion == 1 to q-order 6")


def test_criterion_03_hypersurface_three_pipelines():
    expected = {4: -50, 6: -784, 8: -11430}
    for n, value in expected.items():
        got = hypersurface_index_closed(n)  # raises if the pipelines disagree
        assert got == value, (n, got)
        assert got == n + 2 - comb(2 * n, n + 1)
    _report(3, "hypersurface index: residue = w-coefficient = direct = closed form")


def test_criterion_04_euler_closed_form():
    for n in (1, 2, 4, 6, 8, 10):
        closed = Fraction((n - 1) ** (n + 2) - 1, n) + (n + 2)
        assert euler_characteristic(builtin(f"V({n},{n})")) == closed, n
    for n in (3, 5, 7, 9):  # closed form non-integral: independent binomial oracle
        oracle = n * sum(comb(n + 2, j) * (-n) ** (n - j) for j in range(n + 1))
        assert euler_characteristic(builtin(f"V({n},{n})")) == oracle, n
    _report(4, "chi(V_n) closed form for n <= 10 (odd degrees via binomial oracle)")


def test_criterion_05_ahat_vanishing_instances():
    for m in (1, 2, 3):
        assert genus_value(GenusSpec.ahat(), builtin(f"CP{2 * m + 1}")) == 0
    for n in (1, 2, 3):
        assert genus_value(GenusSpec.ahat(), builtin(f"HP{n}")) == 0
    assert genus_value(GenusSpec.ahat(), builtin("CP2")) == Fraction(-1, 8)
    _report(5, "A-hat vanishing on CP^{2m+1}, HP^n; A-hat(CP2) = -1/8")


def test_criterion_06_cusp_modularity():
    for cusp in (SIGNATURE_CUSP, AHAT_CUSP):
        generator_expansions(cusp, QORDER)  # raises if epsilon-consistency fails
        for name in ("CP4", "CP6", "HP2", "HP3", "V(4,4)", "product(CP2,CP2)"):
            assert verify_modularity(builtin(name), cusp, QORDER), (name, cusp)
    _report(6, "modularity for six manifolds in both cusps, exact to q-order 6")


def test_criterion_07_rigidity_by_localization():
    action = builtin_action("HP2_diagonal(1,2,4)")
    loop = cusp_series(builtin("HP2"), SIGNATURE_CUSP, 5).series
    for lam in (Fraction(2), Fraction(3), Fraction(5)):
        assert equivariant_series(action, lam, 5) == loop, lam
    report = rigidity_check(action, [Fraction(2), Fraction(3), Fraction(5)], 5)
    assert report.status == "PASS"
    hp1 = builtin_action("HP1_diagonal(1,2)")
    for lam in (Fraction(2), Fraction(3), Fraction(5)):
        assert equivariant_series(hp1, lam, 5).is_zero(), lam
    _report(7, "HP2 localization equals loop series at three samples; HP1 sums to 0")


def test_criterion_08_order4_local_terms():
    ids = order4_local_identities(5)
    assert ids["normal_pair_is_minus_one"]
    assert ids["point_term_is_plus_minus_one"]
    _report(8, "order-4 local terms: N-pair = -1 and point term = +-1 over Q(i)")


def test_criterion_09_expansion_coefficients():
    for name in ("CP2", "CP4", "HP2", "HP3", "V(4,4)", "product(CP2,CP2)"):
        m = builtin(name)
        raw = cusp_series(m, AHAT_CUSP, 3).series
        assert raw.coefficient(0) == genus_value(GenusSpec.ahat(), m), name
        assert raw.coefficient(2) == -twisted_index("ahat", m, TANGENT), name
    assert cusp_series(builtin("HP2"), AHAT_CUSP, 3).series.coefficient(2) != 0
    _report(9, "first two expansion coefficients = A-hat(M), -A-hat(M,TM); HP2 nonzero")


def _oracle_reduced(k, o):
    for r in range(o // 2 + 1):
        if (k - r) % o == 0 or (k + r) % o == 0:
            return r
    raise AssertionError


def test_criterion_10_obstruction_oracles():
    for o in range(2, 7):
        for k in range(-12, 13):
            assert reduced_weight(k, o) == _oracle_reduced(k, o)
    rng = random.Random(424242)
    for _ in range(500):
        o = rng.randint(2, 6)
        d = rng.randint(1, 8)
        ws = [rng.choice([w for w in range(-12, 13) if w != 0]) for _ in range(d)]
        assert m_invariant(ws, o) == Fraction(sum(_oracle_reduced(w, o) for w in ws), o)
        assert codim_fixed(ws, o) == 2 * sum(1 for w in ws if w % o != 0)
        assert codim_fixed(ws, o) <= 2 * o * m_invariant(ws, o)
    for action_name, orders in (
        ("HP2_diagonal(1,2,4)", (2, 4)),
        ("HP1_diagonal(1,2)", (2,)),
        ("CP2_linear(0,1,2)", (2,)),
        ("CP4_linear(0,1,2,3,4)", (2,)),
    ):
        action = builtin_action(action_name)
        vectors = [c.weights() for c in action.components]
        for o in orders:
            assert cross_check_prediction(action.ambient_model, vectors, o, 3).passed
    _report(10, "m_o/codim agree with enumeration; predictions consistent on actions")


def test_criterion_11_code_audit_random_matrices():
    from itertools import combinations

    rng = random.Random(31337)
    for _ in range(1000):
        A = [[rng.randint(0, 1) for _ in range(12)] for _ in range(4)]
        report = code_audit(A)
        assert report.sublinearity_holds
        words = []
        for size in range(5):
            for subset in combinations(range(4), size):
                w = [0] * 12
                for i in subset:
                    w = [(a + b) % 2 for a, b in zip(w, A[i])]
                words.append(w)
        dist = {}
        for w in words:
            dist[sum(w)] = dist.get(sum(w), 0) + 1
        assert report.weight_distribution == dist
        assert report.dichotomy_holds == all(
            sum(w) <= 4 or 12 - sum(w) <= 2 for w in words
        )
        assert report.rows_have_two_odd_entries == all(
            sum(x % 2 for x in row) == 2 for row in A
        )
    _report(11, "1000 random 4x12 codes: sublinearity and predicates match enumeration")


def test_criterion_12_round_trips_and_determinism():
    # model and action files round-trip through the loaders
    for name in ("CP2", "HP3", "V(4,4)"):
        doc = dump_model(builtin(name))
        assert dump_model(load_model(doc)) == doc, name
    action = builtin_action("CP2_linear(0,0,1)")
    redone = load_action(dump_action(action))
    assert equivariant_series(action, Fraction(2), 2) == equivariant_series(redone, Fraction(2), 2)
    # `verify --suite all` is byte-identical across runs
    cmd = [sys.executable, "-m", "genuslab.cli", "verify", "--suite", "all", "--qorder", "6"]
    env = dict(os.environ)
    a = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
    b = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout and a.stdout
    assert json.loads(a.stdout)["status"] == "PASS"
    _report(12, "file round-trips and byte-identical `verify --suite all`")
