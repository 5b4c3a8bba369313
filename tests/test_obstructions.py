"""Obstruction combinatorics against brute-force oracles."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from genuslab import suites
from genuslab.cli import encode
from genuslab.errors import ResourceCapError, ValidationError
from genuslab.genus import cusp_series
from genuslab.localization import builtin_action
from genuslab.manifolds import builtin
from genuslab.obstructions import (
    BinaryCode,
    code_audit,
    codim_fixed,
    cross_check_prediction,
    lattice_normal_form,
    m_invariant,
    m_invariant_min,
    reduced_weight,
    rfpd_check,
    vanish_count_cyclic_codim,
    vanish_count_from_m,
    vanish_count_involution,
)


def oracle_reduced_weight(k, o):
    """Smallest r in 0..o//2 with r = k or r = -k mod o, by scanning."""
    for r in range(o // 2 + 1):
        if (k - r) % o == 0 or (k + r) % o == 0:
            return r
    raise AssertionError("unreachable")


def test_reduced_weight_examples():
    assert reduced_weight(3, 4) == 1
    assert reduced_weight(2, 4) == 2
    assert reduced_weight(5, 2) == 1


def test_reduced_weight_exhaustive_against_oracle():
    for o in range(2, 7):
        for k in range(-12, 13):
            assert reduced_weight(k, o) == oracle_reduced_weight(k, o)


def test_m_invariant_examples():
    assert m_invariant([1, 1], 2) == 1
    assert m_invariant([1, 3, 4], 4) == Fraction(1, 2)
    assert m_invariant([], 4) == 0


def test_m_invariant_random_vectors_against_oracle():
    rng = random.Random(5)
    for _ in range(500):
        o = rng.randint(2, 6)
        d = rng.randint(1, 8)
        ws = [rng.choice([w for w in range(-12, 13) if w != 0]) for _ in range(d)]
        expected = Fraction(sum(oracle_reduced_weight(w, o) for w in ws), o)
        assert m_invariant(ws, o) == expected
        # codim relation: codim <= 2*o*m_o
        assert codim_fixed(ws, o) <= 2 * o * m_invariant(ws, o)
        direct_codim = 2 * sum(1 for w in ws if w % o != 0)
        assert codim_fixed(ws, o) == direct_codim


def test_vanish_counts():
    assert vanish_count_involution(8) == 2
    assert vanish_count_from_m(Fraction(3, 2)) == 2
    assert vanish_count_cyclic_codim(6, 3) == 1
    assert vanish_count_involution(0) == 0
    assert vanish_count_from_m(0) == 0


def test_vanish_counts_against_inequality_oracle():
    # count = number of r >= 0 satisfying the strict inequality, i.e. max r+1
    for c in range(-8, 30):
        expected = len([r for r in range(40) if c > 4 * r])
        assert vanish_count_involution(c) == expected
        for o in range(2, 7):
            expected_o = len([r for r in range(40) if c > 2 * o * r])
            assert vanish_count_cyclic_codim(c, o) == expected_o
    for num in range(-8, 25):
        for den in (1, 2, 3, 4):
            m = Fraction(num, den)
            expected = len([r for r in range(40) if m > r])
            assert vanish_count_from_m(m) == expected


def test_vanish_monotonicity():
    prev = 0
    for c in range(0, 40):
        cur = vanish_count_involution(c)
        assert cur >= prev
        prev = cur


def test_cross_check_hp2_builtin_action():
    m = builtin("HP2")
    action = builtin_action("HP2_diagonal(1,2,4)")
    for o in (2, 4):
        report = cross_check_prediction(m, [c.weights() for c in action.components], o, 3)
        assert report.passed
        assert report.m_value <= 1  # tangent twist survives at index 1


def test_cross_check_fabricated_data_fails():
    m = builtin("HP2")
    fake = [[1, 1, 1, 1]]  # one component, m_2 = 2: predicts two vanishing coefficients
    report = cross_check_prediction(m, fake, 2, 3)
    assert not report.passed
    assert report.predicted_vanishing == 2
    assert report.first_nonzero_index == 1


def test_cross_check_zero_series_trivially_passes():
    m = builtin("HP3")  # loop/phi0 series vanish identically
    report = cross_check_prediction(m, [[1, 1, 1]], 2, 3)
    assert report.passed
    assert report.first_nonzero_index is None


@pytest.mark.parametrize("qorder", [4, 6, 8])
def test_the_obstruction_suite_reuses_the_series_of_the_modularity_suite(empty_caches, qorder):
    # the cross-checks ask for the A-hat series at the job's q-order: CP2's and HP2's come from the
    # cusp bootstrap, and HP1's is the one new build
    empty_caches()
    suites.suite_modularity(qorder)
    misses = cusp_series.cache_info().misses
    assert all(c["status"] == "PASS" for c in suites.suite_obstruction(qorder))
    assert cusp_series.cache_info().misses == misses + 1
    # the reports are those at q-order 3: the first nonzero index lies below both
    found = {}
    for name in ("HP2_diagonal(1,2,4)", "HP1_diagonal(1,2)", "CP2_linear(0,1,2)"):
        action = builtin_action(name)
        vectors = [c.weights() for c in action.components]
        report = cross_check_prediction(action.ambient_model, vectors, 2, qorder)
        assert report == cross_check_prediction(action.ambient_model, vectors, 2, 3)
        found[name] = (report.first_nonzero_index, report.predicted_vanishing, report.passed)
    assert found == {
        "HP2_diagonal(1,2,4)": (1, 1, True),
        "HP1_diagonal(1,2)": (None, 1, True),
        "CP2_linear(0,1,2)": (0, 0, True),
    }
    empty_caches()


def test_rfpd():
    assert rfpd_check([(8, [4, 0])])
    assert not rfpd_check([(8, [4, 4])])
    assert rfpd_check([(8, [6])])  # single component: vacuous
    assert rfpd_check([{"dim": 10, "components": [4, 4]}, (6, [2, 2])])


# -- lattice normal form ---------------------------------------------------------------


def rref_over_q(rows):
    """Row-reduced echelon form over Q (oracle for row-space comparison)."""
    m = [[Fraction(x) for x in row] for row in rows]
    lead = 0
    for r in range(len(m)):
        if lead >= len(m[0]):
            break
        i = r
        while m[i][lead] == 0:
            i += 1
            if i == len(m):
                i = r
                lead += 1
                if lead == len(m[0]):
                    return m
        m[i], m[r] = m[r], m[i]
        lv = m[r][lead]
        m[r] = [x / lv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][lead] != 0:
                f = m[i][lead]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        lead += 1
    return m


def test_normal_form_already_normal():
    res = lattice_normal_form([[1, 0, 1, 1], [0, 1, 1, 1]], 2)
    assert res.covering_degree == 1
    assert [row[:2] for row in res.matrix] == [[1, 0], [0, 1]]
    assert res.column_order == [0, 1, 2, 3]


def test_normal_form_example_with_permutation():
    res = lattice_normal_form([[2, 1, 0, 1], [1, 1, 1, 0]], 2)
    lb = [row[:2] for row in res.matrix]
    assert lb[0][1] == 0 and lb[1][0] == 0
    assert lb[0][0] % 2 == 1 and lb[1][1] % 2 == 1
    assert gcd(res.covering_degree, 2) == 1


def test_normal_form_rejects_rank_deficiency():
    with pytest.raises(ValidationError):
        lattice_normal_form([[1, 1, 0, 0], [1, 1, 2, 2]], 2)  # rows equal mod 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_normal_form_random_matrices_audit(p):
    rng = random.Random(77)
    checked = 0
    for _ in range(200):
        rows, cols = rng.choice([(2, 4), (2, 6), (4, 8)]), 0
        nrows, ncols = rows
        A = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        try:
            res = lattice_normal_form(A, p)
        except ValidationError:
            continue  # rank-deficient sample
        checked += 1
        # shape: exact diagonal left block with diagonal prime to p
        for i in range(nrows):
            for j in range(nrows):
                if i == j:
                    assert res.matrix[i][i] % p != 0
                else:
                    assert res.matrix[i][j] == 0
        # covering degree prime to p: it is the product of the phase-2 alphas, so every alpha is prime to p
        # (lattice_normal_form itself raises on a beta that is not 0 mod p)
        assert res.covering_degree % p != 0
        # row space over Q is preserved (columns permuted consistently)
        permuted_input = [[row[c] for c in res.column_order] for row in A]
        assert rref_over_q(permuted_input) == rref_over_q(res.matrix)
        # transform really maps the input to the output
        prod = [
            [sum(res.transform[i][t] * A[t][c] for t in range(nrows)) for c in range(ncols)]
            for i in range(nrows)
        ]
        permuted_prod = [[row[c] for c in res.column_order] for row in prod]
        assert permuted_prod == res.matrix
    assert checked > 100


# -- code audit --------------------------------------------------------------------------


def oracle_words(rows):
    """All code words by direct subset enumeration over the rows."""
    from itertools import combinations

    n = len(rows)
    length = len(rows[0])
    out = []
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            word = [0] * length
            for i in subset:
                word = [(a + b) % 2 for a, b in zip(word, rows[i])]
            out.append(tuple(word))
    return out


def test_words_are_the_subset_sums_with_multiplicity():
    # duplicate, dependent and zero rows repeat words; the weight distribution counts every repeat
    rng = random.Random(5)
    for _ in range(200):
        cols = rng.randint(1, 10)
        rows = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 4)):
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append(rng.choice([list(a), [x + y + 2 for x, y in zip(a, b)], [0] * cols]))
        rng.shuffle(rows)
        masks = Counter(sum(bit << c for c, bit in enumerate(word)) for word in oracle_words(rows))
        assert Counter(BinaryCode(rows).words()) == masks


def test_code_words_example():
    report = code_audit([[1, 1, 0, 0], [0, 0, 1, 1]])
    assert report.weight_distribution == {0: 1, 2: 2, 4: 1}
    assert report.sublinearity_holds


def test_zero_row_gives_weight_zero_word():
    report = code_audit([[0, 0, 0, 0], [1, 1, 0, 0]])
    assert report.weight_distribution[0] == 2  # empty sum and the zero row


def test_disjoint_weight_two_rows_is_not_a_closure_instance():
    # Disjoint weight-2 rows: the sum of all rows has weight 4 > 2r, so the
    # dichotomy premise fails and the small-weight subset is NOT closed;
    # enumeration decides, and the inference-implication stays vacuous.
    A = [[1, 1] + [0] * 10, [0, 0, 1, 1] + [0] * 8]
    report = code_audit(A)
    assert report.closure_applicable
    assert not report.dichotomy_holds
    assert not report.small_weight_closed
    assert report.closure_inference_consistent


def test_closure_positive_instance():
    # supports concentrated in the first 2r columns: dichotomy holds and the
    # small-weight subset is all of the code, hence closed
    A = [[1, 1] + [0] * 10, [1, 0] + [0] * 10]
    report = code_audit(A)
    assert report.closure_applicable
    assert report.dichotomy_holds
    assert report.small_weight_closed
    assert report.closure_inference_consistent


def test_closure_inference_on_random_matrices():
    # the paper-style inference (dichotomy & 2k>=6r => closed) must never fail
    rng = random.Random(99)
    for _ in range(300):
        A = [[rng.randint(0, 1) for _ in range(12)] for _ in range(4)]
        assert code_audit(A).closure_inference_consistent


def test_code_audit_matches_subset_oracle():
    rng = random.Random(13)
    for _ in range(50):
        A = [[rng.randint(0, 1) for _ in range(12)] for _ in range(4)]
        report = code_audit(A)
        words = oracle_words(A)
        dist = {}
        for w in words:
            dist[sum(w)] = dist.get(sum(w), 0) + 1
        assert report.weight_distribution == dist
        r, k = 2, 6
        assert report.dichotomy_holds == all(
            sum(w) <= 2 * r or 2 * k - sum(w) <= 2 * r - 2 for w in words
        )


def test_closure_by_rank_is_closure_by_pairs():
    # random codes with 2k >= 6r, zero rows and rows that copy or add others; the
    # audit's rank count must agree with testing every pair of small words
    rng = random.Random(31)
    outcomes = Counter()
    for _ in range(300):
        r = rng.randint(1, 3)
        cols = 6 * r + 2 * rng.randint(0, 1)
        live = rng.randint(2, cols)  # rows supported on the first `live` columns
        rows = [[rng.randint(0, 1) if c < live else 0 for c in range(cols)] for _ in range(rng.randint(1, 2 * r))]
        while len(rows) < 2 * r:
            a, b = rng.choice(rows), rng.choice(rows)
            rows.append(rng.choice([[0] * cols, list(a), [x ^ y for x, y in zip(a, b)]]))
        rng.shuffle(rows)
        small = {tuple(w) for w in oracle_words(rows) if sum(w) <= 2 * r}
        closed = all(tuple((x + y) % 2 for x, y in zip(a, b)) in small for a in small for b in small)
        assert code_audit(rows).small_weight_closed == closed
        outcomes[closed] += 1
    assert min(outcomes[True], outcomes[False]) >= 30


def reference_audit(rows) -> dict:
    """The 14 audit fields as `cli.encode` gives a `CodeAuditReport`, from subset sums, pairs of distinct
    words and per-column sums of the entries mod 2."""
    r, k = len(rows) // 2, len(rows[0]) // 2
    words = oracle_words(rows)
    dist = Counter(sum(w) for w in words)
    dichotomy = all(sum(w) <= 2 * r or 2 * k - sum(w) <= 2 * r - 2 for w in words)
    applicable = 2 * k >= 6 * r
    closed = None
    if applicable:
        small = {w for w in words if sum(w) <= 2 * r}
        closed = all(tuple((x + y) % 2 for x, y in zip(a, b)) in small for a in small for b in small)
    distinct = sorted(set(words))
    sublinear = all(
        sum((x + y) % 2 for x, y in zip(a, b)) <= sum(a) + sum(b) for i, a in enumerate(distinct) for b in distinct[i + 1:]
    )
    row_odd = [sum(x % 2 for x in row) for row in rows]
    tail_odd = [sum(row[c] % 2 for row in rows) for c in range(2 * r, 2 * k)]
    nonzero = len([c for c in tail_odd if c])
    return {
        "r": r,
        "k": k,
        "weight_distribution": {str(wt): dist[wt] for wt in sorted(dist)},
        "dichotomy_holds": dichotomy,
        "closure_applicable": applicable,
        "small_weight_closed": closed,
        "closure_inference_consistent": not (dichotomy and applicable) or bool(closed),
        "row_odd_counts": row_odd,
        "rows_have_two_odd_entries": all(c == 2 for c in row_odd),
        "tail_column_odd_counts": tail_odd,
        "tail_columns_even_parity": all(c % 2 == 0 for c in tail_odd),
        "tail_nonzero_columns": nonzero,
        "tail_nonzero_le_r": nonzero <= r,
        "sublinearity_holds": sublinear,
    }


def test_code_audit_matches_the_reference_on_every_field():
    # entries of both signs; zero, duplicate and sum rows repeat words, which the weight
    # distribution counts and the pairs over distinct words skip
    rng = random.Random(2021)
    outcomes = Counter()
    for _ in range(150):
        r, k = rng.randint(1, 4), rng.randint(1, 8)
        rows = [[rng.randint(-5, 5) for _ in range(2 * k)] for _ in range(2 * r)]
        for _ in range(rng.randint(0, 2 * r - 1)):
            a, b = rng.choice(rows), rng.choice(rows)
            rows[rng.randrange(2 * r)] = rng.choice([[0] * (2 * k), list(a), [x + y for x, y in zip(a, b)]])
        report = encode(code_audit(rows))
        expected = reference_audit(rows)
        assert list(report) == list(expected)
        assert report == expected, rows
        outcomes[expected["small_weight_closed"], expected["dichotomy_holds"]] += 1
    assert len(outcomes) >= 4


def test_the_codes_suite_draws_the_recorded_matrices(monkeypatch):
    # SHA-256 of the JSON list of the 1000 matrices that suite_codes hands to code_audit, recorded
    # before the audit's rewrite: a drifted draw could still print PASS
    drawn = []

    def record(matrix):
        drawn.append(matrix)
        return code_audit(matrix)

    monkeypatch.setattr(suites, "code_audit", record)
    checks = suites.suite_codes(4)
    assert [c["status"] for c in checks] == ["PASS", "PASS"]
    assert len(drawn) == 1000
    digest = hashlib.sha256(json.dumps(drawn).encode()).hexdigest()
    assert digest == "7f32521aa0cb9cb105361016dd3431aded6095ba6628292eabf6aedf37aa655f"


def test_code_audit_shape_checks():
    with pytest.raises(ValidationError):
        code_audit([[1, 1, 1]])  # odd number of columns
    with pytest.raises(ResourceCapError):
        BinaryCode([[0, 0]] * 26)


def test_hp2_action_weights_satisfy_codim_bound():
    action = builtin_action("HP2_diagonal(1,2,4)")
    for comp in action.components:
        for o in (2, 3, 4):
            assert codim_fixed(comp.weights(), o) <= 2 * o * m_invariant(comp.weights(), o)


def test_m_invariant_min_over_action():
    action = builtin_action("HP2_diagonal(1,2,4)")
    vectors = [c.weights() for c in action.components]
    assert m_invariant_min(vectors, 2) == 1
    assert m_invariant_min(vectors, 4) == 1
