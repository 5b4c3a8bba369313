"""Combinatorial obstruction machinery.

Three independent layers:

* reduced rotation weights and the m_o invariant of a fixed component,
  with the vanishing-count formulas frozen from the strict inequalities:
    - involution, codim c:            c > 4r       holds iff r <= ceil(c/4)-1
    - cyclic order o via m_o:         m_o > r      holds iff r <= ceil(m_o)-1
    - cyclic order o via codim c:     c > 2*o*r    holds iff r <= ceil(c/(2o))-1
  so the number of leading coefficients forced to vanish is one ceiling rule,
  max(0, ceil(m)), at m = c/4, m_o or c/(2o): `vanish_count_from_m`.

* integer weight-matrix normal form: restricted row operations
  b_i <- alpha*b_i + beta*b_j (i < j, alpha coprime to p, beta = 0 mod p)
  after a unimodular preconditioning with column permutation, producing an
  exactly diagonal left block with unit diagonal mod p.  The transform T
  rides as the right block of the rows (A | I): one row operation moves both.

* binary-code audit: exhaustive enumeration of all 2^(2r) words of the mod-2
  row code, with the weight/co-weight dichotomy, closure of the small-weight
  subset, per-row odd-entry counts and tail-column parities as named booleans.
  Each row is reduced mod 2 once, to one byte per entry.  The words come in
  subset order, built by doubling: word i is the XOR of the rows at the set
  bits of i, so words[i] ^ words[j] == words[i ^ j], and sublinearity
  compares weights[i ^ j] with weights[i] + weights[j] over index pairs.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, compress, repeat
from math import ceil, gcd
from operator import and_, le, xor
from typing import NamedTuple

from .errors import ResourceCapError, StructuralError, ValidationError
from .genus import AHAT_CUSP, cusp_series
from .manifolds import _is_int

CODE_ENUM_CAP = 12  # hard cap on 2r for exhaustive word enumeration; the audit time grows ~4x per row
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # the bytes 0 and 1 as the digits of a binary string


# -- reduced weights and m_o -----------------------------------------------------


def reduced_weight(k: int, order: int) -> int:
    """Representative of +-k mod order in {0..floor(order/2)}."""
    if order < 2:
        raise StructuralError("order must be >= 2")
    r = k % order
    return min(r, order - r)


def m_invariant(weights, order: int) -> Fraction:
    """m_o of one fixed component: sum of reduced weights over the order."""
    return Fraction(sum(reduced_weight(w, order) for w in weights), order)


def m_invariant_min(weight_vectors, order: int) -> Fraction:
    """Minimum of m_o over the components of a fixed-point set, a list of weight lists."""
    if not weight_vectors:
        raise StructuralError("need at least one component")
    return min(m_invariant(ws, order) for ws in weight_vectors)


def codim_fixed(weights, order: int) -> int:
    """Codimension of the order-o fixed set at this component: 2#{w != 0 mod o}."""
    return 2 * sum(1 for w in weights if w % order != 0)


# -- vanishing predictions ---------------------------------------------------------


def vanish_count_from_m(m) -> int:
    """The number of r >= 0 with m > r; `ceil` of a Fraction is exact."""
    return max(0, ceil(Fraction(m)))


def vanish_count_involution(codim: int) -> int:
    return vanish_count_from_m(Fraction(codim, 4))


def vanish_count_cyclic_codim(codim: int, order: int) -> int:
    if order < 2:
        raise StructuralError("order must be >= 2")
    return vanish_count_from_m(Fraction(codim, 2 * order))


class PredictionReport(NamedTuple):
    manifold: str
    order: int
    m_value: Fraction
    predicted_vanishing: int
    first_nonzero_index: int | None
    spin: bool
    passed: bool


def cross_check_prediction(model, weight_vectors, order: int, qorder: int) -> PredictionReport:
    """No computed nonzero coefficient may sit below the predicted vanish count.

    `weight_vectors` holds the rotation weights of each fixed component.  A
    FAIL on a spin manifold signals fabricated fixed-point data or a bug,
    never geometry.
    """
    m_value = m_invariant_min(weight_vectors, order)
    predicted = vanish_count_from_m(m_value) if model.spin else 0
    raw = cusp_series(model, AHAT_CUSP, max(qorder, predicted + 1))
    e = raw.series.lowest_exponent()  # the raw series q^(k/2) phi_0 has integral q-powers, q = s^2
    first_nonzero = None if e is None else e // 2
    passed = first_nonzero is None or first_nonzero >= predicted
    return PredictionReport(
        manifold=model.name,
        order=order,
        m_value=m_value,
        predicted_vanishing=predicted,
        first_nonzero_index=first_nonzero,
        spin=model.spin,
        passed=passed,
    )


# -- restricted fixed point dimension ------------------------------------------------


def rfpd_check(table) -> bool:
    """Every pair of distinct components must satisfy dim F1 + dim F2 < dim X.

    `table` is a list of (dim_X, [component dims]) pairs (or mappings with
    keys "dim" and "components") of integers with 0 <= dim F <= dim X;
    anything else is a ValidationError.
    """
    if not isinstance(table, (list, tuple)):
        raise ValidationError("fixdim table must be a list of entries", code="invalid")
    restricted = True
    for entry in table:
        if isinstance(entry, dict) and {"dim", "components"} <= entry.keys():
            dim_x, dims = entry["dim"], entry["components"]
        elif isinstance(entry, (list, tuple)) and len(entry) == 2:
            dim_x, dims = entry
        else:
            dim_x, dims = None, None
        if not (
            _is_int(dim_x)
            and isinstance(dims, (list, tuple))
            and all(_is_int(d) for d in dims)
        ):
            raise ValidationError(
                f"fixdim entry {entry!r} is not a (dim, [int, ...]) pair or dim/components mapping",
                code="invalid",
            )
        if dim_x < 0 or not all(0 <= d <= dim_x for d in dims):
            raise ValidationError(
                f"fixdim entry {entry!r} needs 0 <= component dim <= ambient dim", code="invalid"
            )
        # every entry is validated, even after a violating one
        restricted = restricted and all(a + b < dim_x for a, b in combinations(dims, 2))
    return restricted


# -- lattice normal form ---------------------------------------------------------------


class NormalFormResult(NamedTuple):
    matrix: list              # transformed matrix, columns permuted (pivots first)
    column_order: list        # new column order as indices into the original
    transform: list           # integer row-transformation T with A' = (T A) permuted
    covering_degree: int      # |det T|, coprime to p


def _integer_matrix(matrix) -> list:
    """A copy of a non-empty rectangular matrix of integers; anything else is a ValidationError.

    One pass over the rows.  A row that is no non-empty list is reported
    first, then a ragged matrix, then an entry that is no int.
    """
    if not isinstance(matrix, (list, tuple)) or not matrix:
        raise ValidationError("matrix must be a non-empty list of rows", code="invalid")
    rows, ragged, non_int = [], False, False
    for row in matrix:
        if not isinstance(row, (list, tuple)) or not row:
            raise ValidationError("matrix rows must be non-empty lists", code="invalid")
        ragged = ragged or len(row) != len(matrix[0])
        non_int = non_int or {*map(type, row)} != {int}  # bools and floats are not entries
        rows.append(list(row))
    if ragged:
        raise ValidationError("ragged matrix", code="invalid")
    if non_int:
        raise ValidationError("matrix entries must be integers", code="invalid")
    return rows


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981  # Miller-Rabin on _PRIME_BASES is exact below this


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test for 2 <= n < PRIME_LIMIT."""
    if any(n % a == 0 for a in _PRIME_BASES):
        return n in _PRIME_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def lattice_normal_form(matrix, p: int) -> NormalFormResult:
    """Bring an integer weight matrix to the diagonal-left-block shape.

    Phase 1 uses unimodular row operations and a column permutation to reach
    an exactly upper-triangular left block whose diagonal is coprime to p and
    whose off-diagonal entries vanish mod p.  Phase 2 clears the remaining
    above-diagonal entries exactly with the restricted operations
    b_i <- alpha b_i + beta b_j (i < j, alpha coprime to p, p | beta); these
    scale the lattice by alpha each, and the product is the covering degree.
    """
    if not isinstance(p, int) or not 2 <= p < PRIME_LIMIT or not _is_prime(p):
        raise ValidationError(f"p must be a prime below {PRIME_LIMIT}, got {p!r}", code="invalid")
    A = _integer_matrix(matrix)
    nrows, ncols = len(A), len(A[0])
    if nrows > ncols:
        raise ValidationError("more rows than columns", code="invalid")
    A = [row + [int(i == j) for j in range(nrows)] for i, row in enumerate(A)]  # A | I: T rides on the right
    pivots: list[int] = []

    def row_add(dst, src, factor):
        A[dst] = [a + factor * b for a, b in zip(A[dst], A[src])]

    # phase 1: unimodular preconditioning
    for i in range(nrows):
        pivot_col = None
        for c in range(ncols):
            if c in pivots:
                continue
            if any(A[t][c] % p for t in range(i, nrows)):
                pivot_col = c
                break
        if pivot_col is None:  # rows i.. vanish mod p, rows 0..i-1 are independent mod p
            raise ValidationError(f"rows are not independent mod {p}: effectiveness violated", code="rank")
        t = next(t for t in range(i, nrows) if A[t][pivot_col] % p)
        A[i], A[t] = A[t], A[i]
        pivots.append(pivot_col)
        # exact clearing below the pivot (Euclid on rows; all unimodular)
        for t in range(i + 1, nrows):
            while A[t][pivot_col] != 0:
                q = A[i][pivot_col] // A[t][pivot_col]
                row_add(i, t, -q)
                A[i], A[t] = A[t], A[i]
            if A[i][pivot_col] < 0:
                A[i] = [-x for x in A[i]]
        # clearing above mod p
        for u in range(i):
            rem = A[u][pivot_col] % p
            if rem:
                inv = pow(A[i][pivot_col], -1, p)
                row_add(u, i, -((rem * inv) % p))
    # phase 2: restricted operations make the left block exactly diagonal
    degree = 1
    for i in range(nrows - 2, -1, -1):
        for j in range(i + 1, nrows):
            e = A[i][pivots[j]]
            if e == 0:
                continue
            alpha = A[j][pivots[j]]
            beta = -e
            if beta % p:
                raise StructuralError("phase-1 postcondition violated (beta not 0 mod p)")
            A[i] = [alpha * a + beta * b for a, b in zip(A[i], A[j])]
            degree *= abs(alpha)
    order = pivots + [c for c in range(ncols) if c not in pivots]
    permuted = [[row[c] for c in order] for row in A]
    result = NormalFormResult(
        matrix=permuted,
        column_order=order,
        transform=[row[ncols:] for row in A],
        covering_degree=degree,
    )
    # postconditions: exact diagonal left block, units mod p
    for i in range(nrows):
        for j in range(nrows):
            if i == j:
                if permuted[i][i] % p == 0:
                    raise StructuralError("normal form diagonal not a unit mod p")
            elif permuted[i][j] != 0:
                raise StructuralError("normal form left block not diagonal")
    if gcd(degree, p) != 1:
        raise StructuralError("covering degree shares a factor with p")
    return result


# -- binary code audit --------------------------------------------------------------


class BinaryCode:
    """Mod-2 row code of an integer matrix, words enumerated as bitmasks."""

    def __init__(self, rows):
        """`rows`: an integer matrix, as `_integer_matrix` returns it."""
        if len(rows) > CODE_ENUM_CAP:
            raise ResourceCapError(
                f"enumeration cap exceeded: {len(rows)} generators > {CODE_ENUM_CAP}"
            )
        self.low_bits = [bytes(map(and_, row, repeat(1))) for row in rows]  # each entry mod 2, one byte each
        # bit c of a row's mask is entry c mod 2: the low bits as the digits b"0"/b"1", last column first
        self.masks = [int(bits[::-1].translate(_DIGITS), 2) for bits in self.low_bits]

    def words(self) -> list:
        """All 2^rows code words in subset order: word i is the XOR of the rows at the set bits of i."""
        words = [0]
        for mask in self.masks:  # doubling: the words that take this row follow those that do not
            words += [*map(xor, words, repeat(mask))]
        return words


def _rank(words) -> int:
    """Rank over F_2 of bitmask words: an XOR basis keyed by leading bit."""
    basis = {}
    for w in words:
        while w and w.bit_length() in basis:
            w ^= basis[w.bit_length()]
        if w:
            basis[w.bit_length()] = w
    return len(basis)


def _sublinear(weights) -> bool:
    """wt(a + b) <= wt(a) + wt(b) for every two code words, from the weights of the words in subset order.

    words[i] ^ words[j] == words[i ^ j], so the index pairs i < j give every sum of two words.  Two
    equal words sum to the zero word, and the zero word words[0] added to a word gives that word:
    such pairs hold trivially, so the pairs with 1 <= i < j give the check over distinct words.
    """
    for i, j in combinations(range(1, len(weights)), 2):
        if weights[i ^ j] > weights[i] + weights[j]:
            return False
    return True


class CodeAuditReport(NamedTuple):
    r: int
    k: int
    weight_distribution: dict
    dichotomy_holds: bool               # wt <= 2r or cowt <= 2r-2 for every word
    closure_applicable: bool            # 2k >= 6r
    small_weight_closed: bool | None    # {wt <= 2r} closed under addition (when applicable)
    closure_inference_consistent: bool  # dichotomy & applicable => closed (theorem audit)
    row_odd_counts: list
    rows_have_two_odd_entries: bool
    tail_column_odd_counts: list
    tail_columns_even_parity: bool
    tail_nonzero_columns: int
    tail_nonzero_le_r: bool
    sublinearity_holds: bool


def code_audit(matrix) -> CodeAuditReport:
    """Exhaustive audit of the mod-2 row code of a 2r x 2k weight matrix."""
    rows = _integer_matrix(matrix)
    nrows, ncols = len(rows), len(rows[0])
    if nrows % 2 or ncols % 2:
        raise ValidationError("weight matrices have 2r rows and 2k columns", code="invalid")
    r, k = nrows // 2, ncols // 2
    code = BinaryCode(rows)
    words = code.words()
    weights = [*map(int.bit_count, words)]
    dist = dict(Counter(weights))
    dichotomy = all(wt <= 2 * r or (2 * k - wt) <= 2 * r - 2 for wt in dist)
    closure_applicable = 2 * k >= 6 * r
    small_closed = None
    if closure_applicable:
        # the small words hold 0, so they are closed under XOR exactly when they are their own span
        small_set = {*compress(words, map(le, weights, repeat(2 * r)))}
        small_closed = len(small_set) == 1 << _rank(small_set)
    row_odd = [*map(int.bit_count, code.masks)]  # the masks hold each entry mod 2
    # the low-bit rows as little-endian integers, one byte per column: a sum of at most CODE_ENUM_CAP
    # rows carries into no other byte, so its bytes are the column counts of odd entries
    column_odd = sum(map(int.from_bytes, code.low_bits, repeat("little"))).to_bytes(ncols, "little")
    tail_odd = [*column_odd[2 * r:]]
    sublinear = _sublinear(weights)
    inference_ok = (not (dichotomy and closure_applicable)) or bool(small_closed)
    tail_nonzero = len(tail_odd) - tail_odd.count(0)
    return CodeAuditReport(
        r=r,
        k=k,
        weight_distribution=dist,
        dichotomy_holds=dichotomy,
        closure_applicable=closure_applicable,
        small_weight_closed=small_closed,
        closure_inference_consistent=inference_ok,
        row_odd_counts=row_odd,
        rows_have_two_odd_entries=all(c == 2 for c in row_odd),
        tail_column_odd_counts=tail_odd,
        tail_columns_even_parity=all(c % 2 == 0 for c in tail_odd),
        tail_nonzero_columns=tail_nonzero,
        tail_nonzero_le_r=tail_nonzero <= r,
        sublinearity_holds=sublinear,
    )
