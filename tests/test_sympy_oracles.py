"""Characteristic series, q-free densities, the generating series and the
rank check of the lattice normal form against sympy.

sympy is used only here, as an oracle that shares no code with `genuslab`:
each closed form is expanded by sympy to x^16 and compared coefficient by
coefficient with the exact polynomial, and sympy's rank over GF(p) decides
which matrices the normal form must reject.
"""

import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from genuslab.errors import ValidationError
from genuslab.genus import GENERIC_RING, GenusSpec, char_series, index_density, legendre_coefficient
from genuslab.obstructions import lattice_normal_form
from genuslab.rings import QQ

X = sympy.Symbol("x")
ORDER = 16


def sympy_coefficients(expr):
    """Coefficients of x^0 .. x^ORDER of a closed form, as Fractions."""
    poly = sympy.series(expr, X, 0, ORDER + 1).removeO()
    return [Fraction(int(c.p), int(c.q)) for c in (sympy.Rational(poly.coeff(X, k)) for k in range(ORDER + 1))]


def coefficients(p):
    return [p.coefficient((k,)) for k in range(ORDER + 1)]


@pytest.mark.parametrize(
    "spec,closed_form",
    [
        (GenusSpec.signature(), X / sympy.tanh(X)),
        (GenusSpec.ahat(), X / (2 * sympy.sinh(X / 2))),
    ],
    ids=["signature", "ahat"],
)
def test_char_series_matches_sympy(spec, closed_form):
    assert coefficients(char_series(spec, ORDER)) == sympy_coefficients(closed_form)


@pytest.mark.parametrize(
    "cusp,closed_form",
    [
        ("signature", X * sympy.coth(X / 2)),
        ("ahat", X / (2 * sympy.sinh(X / 2))),
    ],
    ids=["signature-op", "ahat-op"],
)
def test_q_free_densities_match_sympy(cusp, closed_form):
    dens = index_density(cusp, ORDER, QQ)
    assert dens.ring.caps == (ORDER,)
    assert coefficients(dens) == sympy_coefficients(closed_form)


def test_legendre_coefficients_match_sympy():
    t, d, e = sympy.symbols("t d e")
    expansion = sympy.expand(sympy.series((1 - 2 * d * t**2 + e * t**4) ** sympy.Rational(-1, 2), t, 0, ORDER + 1).removeO())
    D, E = GENERIC_RING.gen("delta"), GENERIC_RING.gen("epsilon")
    for k in range(ORDER // 2 + 1):
        terms = sympy.Poly(expansion.coeff(t, 2 * k), d, e).terms()
        expected = sum(
            (D ** i * E ** j * Fraction(int(c.p), int(c.q)) for (i, j), c in terms), GENERIC_RING.zero()
        )
        assert legendre_coefficient(GenusSpec.generic(), k) == expected, k


@pytest.mark.parametrize("p", [2, 3, 5])
def test_normal_form_rejects_exactly_the_rows_dependent_mod_p(p):
    # sympy's rank over GF(p) is the oracle; at p = 3 the first matrix shows its dependence only
    # at the last row
    rng = random.Random(p)
    samples = [[[1, 0, 0], [0, 1, 0], [1, 1, 3]]]
    for _ in range(150):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(nrows, 5)
        samples.append([[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)])
    deficient = 0
    for A in samples:
        field = sympy.GF(p)
        rank = DomainMatrix([[field(x) for x in row] for row in A], (len(A), len(A[0])), field).rank()
        if rank == len(A):
            lattice_normal_form(A, p)
            continue
        deficient += 1
        message = f"^rows are not independent mod {p}: effectiveness violated$"
        with pytest.raises(ValidationError, match=message) as info:
            lattice_normal_form(A, p)
        assert info.value.code == "rank"
    assert deficient >= 10
