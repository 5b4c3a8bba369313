"""Characteristic series and q-free densities against sympy's series expansions.

sympy is used only here, as an oracle that shares no code with `genuslab`:
each closed form is expanded by sympy to x^16 and compared coefficient by
coefficient with the exact polynomial.
"""

from fractions import Fraction

import pytest
import sympy

from genuslab.genus import GenusSpec, char_series, index_density
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
    "kind,closed_form",
    [
        ("signature-op", X * sympy.coth(X / 2)),
        ("ahat-op", X / (2 * sympy.sinh(X / 2))),
    ],
    ids=["signature-op", "ahat-op"],
)
def test_q_free_densities_match_sympy(kind, closed_form):
    dens = index_density(kind, ORDER, QQ)
    assert dens.ring.caps == (ORDER,)
    assert coefficients(dens) == sympy_coefficients(closed_form)
