"""Internally derived q-expansions of the modular generators, and the
verification that every index series equals the substitution of the manifold's
generic genus — the computational form of modularity.

Every index series comes from `genus.cusp_series(model, cusp, qorder)`, the
raw weight-2k series phi(M) at the cusp: the loop-space signature series at
the signature cusp, and the A-hat-word series q^(k/2) phi_0 at the A-hat cusp.
Both cusps are bootstrapped from the catalog, never from tables: delta(q) and
epsilon(q) are the cusp series of CP^2 and HP^2, whose genera are delta and
epsilon.  The epsilon-consistency identity epsilon = 3*delta^2 - 2*(series of
CP^4) pins the bootstrap against an independent manifold in both cusps.

Weight-0 comparisons divide a cusp series by epsilon^{k/2} and, for odd k,
compare squared series to avoid square roots of q-series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .errors import InternalInconsistencyError, StructuralError
from .genus import SIGNATURE_CUSP, GenusSpec, IndexSeries, cusp_series, genus_value
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
    epsilon = cusp_series(builtin("HP2"), cusp, qorder).series
    if cusp == SIGNATURE_CUSP:
        if delta.q_coefficient(0) != 1 or epsilon.q_coefficient(0) != 1:
            raise InternalInconsistencyError(
                "signature-cusp generators must have constant term 1"
            )
    else:
        if delta.q_coefficient(0) != Fraction(-1, 8):
            raise InternalInconsistencyError("A-hat-cusp delta must start at -1/8")
        if epsilon.lowest_exponent() != 2:
            raise InternalInconsistencyError("A-hat-cusp epsilon must start at q^1")
    cp4 = cusp_series(builtin("CP4"), cusp, qorder).series
    if not epsilon.same_to(delta * delta * 3 - cp4 * 2):
        raise InternalInconsistencyError(
            f"epsilon-consistency identity fails in the {cusp} cusp"
        )
    return CuspExpansion(delta_series=delta, epsilon_series=epsilon)


def substituted_series(model: ManifoldModel, cusp: str, qorder: int) -> QSeries:
    """The generic genus of the model with delta, epsilon replaced by q-series."""
    expansion = generator_expansions(cusp, qorder)
    value = genus_value(GenusSpec.generic(), model)  # a polynomial in delta, epsilon
    ring = expansion.delta_series.ring
    if value.is_zero():  # e.g. HP3: signature and A-hat both vanish in weight 6
        return ring.zero()
    result = value.evaluate(
        {"delta": expansion.delta_series, "epsilon": expansion.epsilon_series}
    )
    if isinstance(result, (int, Fraction)):
        result = ring.const(result)
    return result


def verify_modularity(model: ManifoldModel, cusp: str, qorder: int) -> bool:
    """Index-series pipeline == modular-substitution pipeline, exactly to order."""
    if model.dim_real % 4:
        raise StructuralError("modularity verification needs dim divisible by 4")
    series = cusp_series(model, cusp, qorder).series
    substituted = substituted_series(model, cusp, qorder)
    return series.same_to(substituted)


class NormalizedPhi(NamedTuple):
    """Weight-0 normalized expansion.

    `power` is 1 when the series is Phi itself (k even) and 2 when it is
    Phi^2 (k odd, avoiding square roots of q-series); comparisons must square
    a power-1 series before matching it against a power-2 one.
    """

    series: QSeries
    power: int


def normalized_phi(model: ManifoldModel, cusp: str, qorder: int) -> NormalizedPhi:
    """Index series divided by epsilon^{k/2} (squared identity for odd k)."""
    if model.dim_real % 4:
        raise StructuralError("normalization needs dim divisible by 4")
    return normalized_from_index(cusp_series(model, cusp, qorder), cusp, qorder)


def normalized_from_index(ix: IndexSeries, cusp: str, qorder: int) -> NormalizedPhi:
    """Normalize an already computed index series using its dimension tag."""
    k = ix.k
    eps = generator_expansions(cusp, max(qorder, 2)).epsilon_series
    if k % 2 == 0:
        return NormalizedPhi(ix.series * eps ** (-(k // 2)), 1)
    return NormalizedPhi((ix.series * ix.series) * eps ** (-k), 2)


def self_intersection_compare(a: IndexSeries, b: IndexSeries, cusp: str, qorder: int) -> bool:
    """Weight-0 equality of two index series of possibly different dimensions."""
    na = normalized_from_index(a, cusp, qorder)
    nb = normalized_from_index(b, cusp, qorder)
    sa, sb = na.series, nb.series
    if na.power != nb.power:
        if na.power == 1:
            sa = sa * sa
        else:
            sb = sb * sb
    return sa.same_to(sb)
