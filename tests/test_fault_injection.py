"""Fault injection: a fault planted in one layer FAILs a known set of `verify --suite all` checks.

Each fault rebinds a function in every `genuslab` module that binds it, with
the package's caches emptied before and after, and then `suites.run_suite("all", 6)`
runs in-process (its forked `codes` child inherits the fault).  A control
fault asserts the exact set of FAIL names.  A blind spot is a fault that no
check sees yet: it is a strict xfail that asserts at least one FAIL, so the
check that closes it turns the xfail into a failure to be moved to the
controls.  Each blind spot names the ROADMAP item that is to close it.
"""

import sys
from fractions import Fraction

import pytest

from genuslab import suites
from genuslab.cusp import normalized
from genuslab.genus import SIGNATURE_CUSP, cusp_series
from genuslab.localization import local_term
from genuslab.obstructions import code_audit, codim_fixed
from genuslab.series import QSeries


def plus_q1(model, cusp, qorder):
    """The cusp series plus s^2 = q^1, at both cusps."""
    ix = cusp_series(model, cusp, qorder)
    ring = ix.series.ring
    return ix._replace(series=ix.series + QSeries(ring, 2, [1], ring.order))


def rescaled_at_signature_cusp(model, cusp, qorder):
    """The signature-cusp series at 2s: a ring automorphism, so every identity between the series survives."""
    ix = cusp_series(model, cusp, qorder)
    return ix._replace(series=ix.series.rescale(Fraction(2))) if cusp == SIGNATURE_CUSP else ix


CONTROLS = {
    "local-term-doubled": (
        local_term, lambda component, lam, qorder: local_term(component, lam, qorder) * 2,
        {"rigidity-HP2-diagonal", "rigidity-CP2-observational", "order4-point-term-unit"},
    ),
    "codim-fixed-counts-every-weight": (
        codim_fixed, lambda weights, order: 2 * len(weights),
        {"m-invariant-random-vectors"},
    ),
    "cusp-series-plus-q1": (
        cusp_series, plus_q1,
        {"hp2-normalized-is-one", "hp2xhp2-normalized-is-one", "epsilon-consistency-signature",
         "epsilon-consistency-ahat", "rigidity-HP2-diagonal"}
        | {f"expansion-head-{name}" for name in ("CP2", "CP4", "HP2", "HP3", "V(4,4)", "product(CP2,CP2)")},
    ),
}

BLIND_SPOTS = {
    "code-audit-column-0-flipped": (
        code_audit, lambda matrix: code_audit([[row[0] ^ 1, *row[1:]] for row in matrix]), 4,
        "the seeded 4x12 matrices make both audited predicates False whatever the audit says",
    ),
    "normalized-is-constant-one": (
        normalized, lambda ix, cusp: ix.series.ring.one(), 3,
        "hp2-normalized-is-one and the cusp bootstrap compare the normalized series with 1; "
        "only the golden expand digests see it",
    ),
    "signature-cusp-rescaled": (
        cusp_series, rescaled_at_signature_cusp, 2,
        "no check fixes a signature-cusp coefficient beyond q^0",
    ),
}


def failed_checks(monkeypatch, empty_caches, original, fault) -> set:
    """The names of the checks that FAIL with `fault` bound wherever `original` is."""
    empty_caches()
    try:
        with monkeypatch.context() as patch:
            bound = [(module, attr) for name, module in list(sys.modules.items())
                     if name == "genuslab" or name.startswith("genuslab.")
                     for attr, value in vars(module).items() if value is original]
            if not bound:  # not an AssertionError, which a blind spot's xfail would take for a miss
                pytest.fail(f"{original.__name__} is bound in no genuslab module")
            for module, attr in bound:
                patch.setattr(module, attr, fault)
            return {c["name"] for c in suites.run_suite("all", 6) if c["status"] != "PASS"}
    finally:
        empty_caches()


@pytest.mark.parametrize("name", CONTROLS)
def test_a_control_fault_fails_exactly_its_checks(name, monkeypatch, empty_caches):
    original, fault, expected = CONTROLS[name]
    assert failed_checks(monkeypatch, empty_caches, original, fault) == expected


@pytest.mark.parametrize(
    "name",
    [pytest.param(name, marks=pytest.mark.xfail(raises=AssertionError, strict=True,
                                                reason=f"ROADMAP item {item}: {why}"))
     for name, (_, _, item, why) in BLIND_SPOTS.items()],
)
def test_a_blind_spot_fault_fails_some_check(name, monkeypatch, empty_caches):
    original, fault, *_ = BLIND_SPOTS[name]
    assert failed_checks(monkeypatch, empty_caches, original, fault)
