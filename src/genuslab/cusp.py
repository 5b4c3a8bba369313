"""Internally derived q-expansions of the modular generators, and
`verify_modularity`: every index series equals the substitution of the
manifold's generic genus at delta(q), epsilon(q) — the computational form of
modularity.

Every index series comes from `genus.cusp_series(model, cusp, qorder)`, the
raw weight-2k series phi(M) at the cusp: the loop-space signature series at
the signature cusp, and the A-hat-word series q^(k/2) phi_0 at the A-hat cusp.
Both cusps are bootstrapped from the catalog, never from tables: delta(q) and
epsilon(q) are the cusp series of CP^2 and HP^2, whose genera are delta and
epsilon.  The epsilon-consistency identity epsilon = 3*delta^2 - 2*(series of
CP^4) pins the bootstrap against an independent manifold in both cusps.

The normalization makes epsilon exactly 1 at the signature cusp and exactly
q = s^2 at the A-hat cusp (Hirzebruch-Berger-Jung ch. 6; Zagier 1988), and
`generator_expansions` checks both identities.  So the weight-0 series
phi / epsilon^(k/2) needs no division and no square root for odd k: it is the
raw series at the signature cusp and its shift by k s-powers, phi_0 =
q^(-k/2) raw, at the A-hat cusp (`normalized`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .errors import InternalInconsistencyError, StructuralError
from .genus import AHAT_CUSP, SIGNATURE_CUSP, GenusSpec, IndexSeries, cusp_series, genus_value
from .manifolds import ManifoldModel, builtin
from .series import QSeries


class CuspExpansion(NamedTuple):
    delta_series: QSeries
    epsilon_series: QSeries


@cache
def generator_expansions(cusp: str, qorder: int) -> CuspExpansion:
    """delta(q), epsilon(q) in the chosen cusp, derived from CP^2 and HP^2."""
    if qorder < 2:
        raise StructuralError("generator expansions need qorder >= 2")
    delta = cusp_series(builtin("CP2"), cusp, qorder).series
    hp2 = cusp_series(builtin("HP2"), cusp, qorder)
    epsilon = hp2.series
    if delta.coefficient(0) != (1 if cusp == SIGNATURE_CUSP else Fraction(-1, 8)):
        raise InternalInconsistencyError(f"{cusp}-cusp delta has constant term {delta.coefficient(0)}")
    if normalized(hp2, cusp) != epsilon.ring.one():
        raise InternalInconsistencyError(
            f"{cusp}-cusp epsilon is not exactly {'1' if cusp == SIGNATURE_CUSP else 'q'}"
        )
    cp4 = cusp_series(builtin("CP4"), cusp, qorder).series
    if epsilon != delta * delta * 3 - cp4 * 2:
        raise InternalInconsistencyError(
            f"epsilon-consistency identity fails in the {cusp} cusp"
        )
    return CuspExpansion(delta_series=delta, epsilon_series=epsilon)


def verify_modularity(model: ManifoldModel, cusp: str, qorder: int) -> bool:
    """Index series == the generic genus, a polynomial in delta and epsilon, at their q-series; exact to order."""
    if model.dim_real % 4:
        raise StructuralError("modularity verification needs dim divisible by 4")
    series = cusp_series(model, cusp, qorder).series
    e = generator_expansions(cusp, qorder)
    values = {"delta": e.delta_series, "epsilon": e.epsilon_series}
    return series == genus_value(GenusSpec.generic(), model).evaluate(values, e.delta_series.ring.zero())


def normalized(ix: IndexSeries, cusp: str) -> QSeries:
    """phi / epsilon^(k/2): the raw series at the signature cusp, phi_0 = q^(-k/2) raw at the A-hat cusp."""
    return ix.series.shift(-ix.k) if cusp == AHAT_CUSP else ix.series


def normalized_phi(model: ManifoldModel, cusp: str, qorder: int) -> QSeries:
    """The weight-0 normalized series of the model (`normalized`)."""
    if model.dim_real % 4:
        raise StructuralError("normalization needs dim divisible by 4")
    return normalized(cusp_series(model, cusp, qorder), cusp)


def self_intersection_compare(a: IndexSeries, b: IndexSeries, cusp: str) -> bool:
    """Weight-0 equality of two index series of possibly different dimensions."""
    return normalized(a, cusp) == normalized(b, cusp)
