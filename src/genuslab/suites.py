"""The verification matrix: every checkable identity as a named PASS/FAIL item.

Each check returns a dict {"name", "status", "detail"}; suites are fixed lists
of checks so `verify --suite all` output is byte-identical across runs (all
randomness is seeded, all values exact).

`run_suite("all", q)` runs the `codes` suite in a child forked before the first
suite, where `os.fork` exists, while the parent runs the other twelve in order.
`codes`, the 1000-matrix binary-code audit, is about 40% of the work of a cold
`verify --suite all` job; it does not depend on q and reads and fills no cache,
while the other suites share the catalog, genus, cusp-series and N-factor
caches. The child writes its checks as JSON to a pipe and leaves by `os._exit`;
the parent reads them, reaps the child and puts them in their place, so the
output is that of the sequential run. If the child cannot be forked, exits
nonzero or writes what does not parse, the parent runs `codes` itself, so a
fault shows as it does in the sequential run. If a parent suite raises, the
child is killed and reaped before the exception leaves `run_suite`. Single
suites, and platforms without `os.fork`, run sequentially.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import repeat
from math import comb
from operator import add, and_

from .cusp import (
    generator_expansions,
    normalized_phi,
    self_intersection_compare,
    verify_modularity,
)
from .errors import InternalInconsistencyError, ValidationError
from .genus import (
    AHAT_CUSP,
    GENERIC_RING,
    SIGNATURE_CUSP,
    GenusSpec,
    TANGENT,
    cp_generating_check,
    cusp_series,
    genus_value,
    hypersurface_index_closed,
    hypersurface_index_closed_form_value,
    twisted_index,
)
from .localization import (
    CircleActionData,
    FixedComponent,
    NormalSummand,
    builtin_action,
    detect_parity,
    dump_action,
    equivariant_series,
    load_action,
    odd_action_forces_zero,
    order4_local_identities,
    rigidity_check,
)
from .manifolds import builtin, dump_model, euler_characteristic, load_model
from .obstructions import (
    code_audit,
    codim_fixed,
    cross_check_prediction,
    m_invariant,
    reduced_weight,
)

CATALOG_FOR_EXPANSIONS = ("CP2", "CP4", "HP2", "HP3", "V(4,4)", "product(CP2,CP2)")
MODULARITY_SET = ("CP4", "CP6", "HP2", "HP3", "V(4,4)", "product(CP2,CP2)")
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")  # the digits of a binary string as the bytes 0 and 1


def _check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "status": "PASS" if passed else "FAIL", "detail": detail}


def suite_generating(qorder: int) -> list:
    out = []
    out.append(
        _check(
            "generating-function-generic-k<=4",
            cp_generating_check(GenusSpec.generic(), 4),
            "genus of CP^{2k} vs t^{2k} coefficient of (1-2dt^2+et^4)^{-1/2}",
        )
    )
    delta = GENERIC_RING.gen("delta")
    epsilon = GENERIC_RING.gen("epsilon")
    out.append(
        _check(
            "cp2-is-delta",
            genus_value(GenusSpec.generic(), builtin("CP2")) == delta,
            "phi(CP2) = delta",
        )
    )
    out.append(
        _check(
            "cp4-coefficient",
            genus_value(GenusSpec.generic(), builtin("CP4"))
            == (delta * delta * 3 - epsilon) * Fraction(1, 2),
            "phi(CP4) = (3 delta^2 - epsilon)/2",
        )
    )
    return out


def suite_normalization(qorder: int) -> list:
    out = []
    epsilon = GENERIC_RING.gen("epsilon")
    out.append(
        _check(
            "hp2-genus-is-epsilon",
            genus_value(GenusSpec.generic(), builtin("HP2")) == epsilon,
            "phi(HP2) = epsilon",
        )
    )
    n = normalized_phi(builtin("HP2"), SIGNATURE_CUSP, qorder)
    out.append(_check("hp2-normalized-is-one", n == n.ring.one(), f"to q-order {qorder}"))
    n2 = normalized_phi(builtin("product(HP2,HP2)"), SIGNATURE_CUSP, max(2, qorder - 1))
    out.append(
        _check(
            "hp2xhp2-normalized-is-one",
            n2 == n2.ring.one(),
            "normalized genus is multiplicative",
        )
    )
    return out


def suite_closedform(qorder: int) -> list:
    out = []
    for n in (4, 6, 8):
        expected = hypersurface_index_closed_form_value(n)
        try:
            got = hypersurface_index_closed(n)
            ok = got == expected
            detail = f"three pipelines = {got}, closed form = {expected}"
        except InternalInconsistencyError as exc:  # the pipelines disagree: a FAIL, not a crash
            ok, detail = False, str(exc)
        out.append(_check(f"hypersurface-index-n={n}", ok, detail))
    return out


def suite_euler(qorder: int) -> list:
    out = []
    for n in (1, 2, 4, 6, 8, 10):
        closed = Fraction((n - 1) ** (n + 2) - 1, n) + (n + 2)
        got = euler_characteristic(builtin(f"V({n},{n})"))
        out.append(
            _check(f"euler-V({n},{n})", got == closed, f"chi = {got}, closed form = {closed}")
        )
    for n in (3, 5):  # closed form undefined (non-integral); binomial oracle instead
        oracle = n * sum(comb(n + 2, j) * (-n) ** (n - j) for j in range(n + 1))
        got = euler_characteristic(builtin(f"V({n},{n})"))
        out.append(
            _check(f"euler-V({n},{n})-oracle", got == oracle, f"chi = {got}, oracle = {oracle}")
        )
    return out


def suite_ahat_vanishing(qorder: int) -> list:
    out = []
    for m in (1, 2, 3):
        got = genus_value(GenusSpec.ahat(), builtin(f"CP{2 * m + 1}"))
        out.append(_check(f"ahat-CP{2 * m + 1}-vanishes", got == 0, "parity"))
    for n in (1, 2, 3):
        got = genus_value(GenusSpec.ahat(), builtin(f"HP{n}"))
        out.append(_check(f"ahat-HP{n}-vanishes", got == 0, ""))
    got = genus_value(GenusSpec.ahat(), builtin("CP2"))
    out.append(_check("ahat-CP2-is-minus-eighth", got == Fraction(-1, 8), f"A-hat = {got}"))
    return out


def suite_modularity(qorder: int) -> list:
    out = []
    for cusp in (SIGNATURE_CUSP, AHAT_CUSP):
        try:
            generator_expansions(cusp, qorder)
            out.append(_check(f"epsilon-consistency-{cusp}", True, "via CP4"))
        except InternalInconsistencyError as exc:
            out.append(_check(f"epsilon-consistency-{cusp}", False, str(exc)))
            continue
        for name in MODULARITY_SET:
            ok = verify_modularity(builtin(name), cusp, qorder)
            out.append(_check(f"modularity-{name}-{cusp}", ok, f"q-order {qorder}"))
    return out


def suite_rigidity(qorder: int) -> list:
    out = []
    q = min(qorder, 5)
    report = rigidity_check(
        builtin_action("HP2_diagonal(1,2,4)"), [Fraction(2), Fraction(3), Fraction(5)], q
    )
    out.append(
        _check(
            "rigidity-HP2-diagonal",
            report.status == "PASS" and bool(report.matches_loop_series),
            f"lambda in (2,3,5), q-order {q}",
        )
    )
    zero_ok = True
    for lam in (Fraction(2), Fraction(3), Fraction(5)):
        s = equivariant_series(builtin_action("HP1_diagonal(1,2)"), lam, q)
        zero_ok = zero_ok and s.is_zero()
    out.append(_check("rigidity-HP1-cancellation", zero_ok, "sum of point terms vanishes"))
    cp = rigidity_check(builtin_action("CP2_linear(0,1,2)"), [Fraction(2), Fraction(3)], min(q, 3))
    out.append(
        _check(
            "rigidity-CP2-observational",
            cp.q0_constant and cp.status in ("OBSERVATIONAL", "PASS"),
            "non-spin: q^0 signature rigidity only",
        )
    )
    return out


def suite_localterms(qorder: int) -> list:
    ids = order4_local_identities(min(qorder, 5))
    return [
        _check("order4-normal-pair-minus-one", ids["normal_pair_is_minus_one"], "exact over Q(i)"),
        _check(
            "order4-point-term-unit",
            ids["point_term_is_plus_minus_one"],
            f"value {ids['point_term_value']}",
        ),
    ]


def suite_expansion(qorder: int) -> list:
    out = []
    # the checks read the s^0 and s^2 coefficients only; at the job's q-order the series are
    # those that the cusp bootstrap and the modularity suite have built
    for name in CATALOG_FOR_EXPANSIONS:
        m = builtin(name)
        raw = cusp_series(m, AHAT_CUSP, qorder).series
        ok0 = raw.coefficient(0) == genus_value(GenusSpec.ahat(), m)
        ok1 = raw.coefficient(2) == -twisted_index("ahat", m, TANGENT)
        out.append(_check(f"expansion-head-{name}", ok0 and ok1, "A-hat and tangent twist"))
    hp2 = cusp_series(builtin("HP2"), AHAT_CUSP, qorder).series
    out.append(_check("expansion-HP2-q-coefficient-nonzero", hp2.coefficient(2) != 0, ""))
    return out


def _oracle_reduced(k: int, o: int) -> int:
    for r in range(o // 2 + 1):
        if (k - r) % o == 0 or (k + r) % o == 0:
            return r
    raise AssertionError


def suite_obstruction(qorder: int) -> list:
    out = []
    exhaustive = all(
        reduced_weight(k, o) == _oracle_reduced(k, o)
        for o in range(2, 7)
        for k in range(-12, 13)
    )
    out.append(_check("reduced-weight-exhaustive", exhaustive, "o <= 6, |w| <= 12"))
    rng = random.Random(20240817)
    vectors_ok = True
    nonzero = [w for w in range(-12, 13) if w != 0]
    for _ in range(500):
        o = rng.randint(2, 6)
        d = rng.randint(1, 8)
        ws = [rng.choice(nonzero) for _ in range(d)]
        expected = Fraction(sum(_oracle_reduced(w, o) for w in ws), o)
        if m_invariant(ws, o) != expected:
            vectors_ok = False
            break
        if codim_fixed(ws, o) > 2 * o * m_invariant(ws, o):
            vectors_ok = False
            break
    out.append(_check("m-invariant-random-vectors", vectors_ok, "500 seeded samples, d <= 8"))
    for action_name, orders in (
        ("HP2_diagonal(1,2,4)", (2, 4)),
        ("HP1_diagonal(1,2)", (2,)),
        ("CP2_linear(0,1,2)", (2,)),
    ):
        action = builtin_action(action_name)
        vectors = [c.weights() for c in action.components]
        ok = all(
            cross_check_prediction(action.ambient_model, vectors, o, qorder).passed for o in orders
        )
        out.append(_check(f"prediction-cross-check-{action_name}", ok, ""))
    return out


def suite_codes(qorder: int) -> list:
    rng = random.Random(5771)
    sublinear_ok = True
    predicates_ok = True
    r, k = 2, 6
    parity = int("1" * 12, 16)  # the low bit of each of 12 four-bit columns
    for _ in range(1000):
        # one random 4x12 matrix over {0, 1}: bit 12 i + j of the draw is entry (i, j)
        bits = f"{rng.getrandbits(48):048b}"[::-1]
        rows = [bits[12 * i:12 * i + 12] for i in range(4)]
        entries = bits.encode().translate(_BIT_VALUES)
        A = [[*entries[12 * i:12 * i + 12]] for i in range(4)]
        report = code_audit(A)
        if not report.sublinearity_holds:
            sublinear_ok = False
            break
        # independent oracle for the named predicates: the sums of all row subsets, doubled row by
        # row, as integers with one 4-bit column per entry (a column sum stays below 16); the
        # parity of each column sum is its low bit
        words = [0]
        for row in rows:
            words += [*map(add, words, repeat(int(row, 16)))]
        weights = {*map(int.bit_count, map(and_, words, repeat(parity)))}
        dich = all(wt <= 2 * r or 2 * k - wt <= 2 * r - 2 for wt in weights)
        rows_odd = all(row.count("1") == 2 for row in rows)
        if dich != report.dichotomy_holds or rows_odd != report.rows_have_two_odd_entries:
            predicates_ok = False
            break
    out = [
        _check("code-sublinearity-1000-random", sublinear_ok, "4x12 matrices, seeded"),
        _check("code-predicates-match-enumeration", predicates_ok, ""),
    ]
    return out


def suite_selfintersection(qorder: int) -> list:
    out = []
    q = min(qorder, 5)
    # involution on HP2 with fixed set HP1 u pt: the transversal self-intersection
    # is a point, so the normalized series agree
    a = cusp_series(builtin("HP2"), SIGNATURE_CUSP, q)
    b = cusp_series(builtin("pt"), SIGNATURE_CUSP, q)
    out.append(
        _check(
            "self-intersection-HP2-fixed-set",
            self_intersection_compare(a, b, SIGNATURE_CUSP),
            "normalized series of HP2 vs a point",
        )
    )
    out.append(
        _check(
            "self-intersection-identity",
            self_intersection_compare(a, a, SIGNATURE_CUSP),
            "identical manifolds compare equal",
        )
    )
    # odd-action detection: codimensions 2 mod 4 on a spin ambient force the
    # zero series; an empty self-intersection then compares against 0
    synthetic = CircleActionData(
        components=(FixedComponent(builtin("HP2"), (NormalSummand({}, 1),)),),
        ambient_model=builtin("HP3"),
        name="synthetic odd action",
    )
    zero = cusp_series(builtin("CP3"), AHAT_CUSP, q)  # identically zero series
    out.append(
        _check(
            "odd-action-zero-claim",
            detect_parity(synthetic) == "odd"
            and odd_action_forces_zero(synthetic)
            and self_intersection_compare(zero, zero, SIGNATURE_CUSP),
            "codim 2 mod 4 detected; zero series compares to zero",
        )
    )
    return out


def suite_roundtrip(qorder: int) -> list:
    out = []
    doc = dump_model(builtin("CP2"))
    loaded = load_model(doc)
    ok = (
        dump_model(loaded) == doc
        and loaded.cohomology == builtin("CP2").cohomology
        and loaded.tangent == builtin("CP2").tangent
    )
    out.append(_check("model-file-round-trip", ok, "CP2"))
    action = builtin_action("CP2_linear(0,0,1)")
    redone = load_action(dump_action(action))
    s1 = equivariant_series(action, Fraction(2), 2)
    s2 = equivariant_series(redone, Fraction(2), 2)
    out.append(_check("action-file-round-trip", s1 == s2, "CP2_linear(0,0,1)"))
    return out


SUITES = {
    "generating": suite_generating,
    "normalization": suite_normalization,
    "closedform": suite_closedform,
    "euler": suite_euler,
    "ahat-vanishing": suite_ahat_vanishing,
    "modularity": suite_modularity,
    "rigidity": suite_rigidity,
    "localterms": suite_localterms,
    "expansion": suite_expansion,
    "selfintersection": suite_selfintersection,
    "obstruction": suite_obstruction,
    "codes": suite_codes,
    "roundtrip": suite_roundtrip,
}


def run_suite(name: str, qorder: int) -> list:
    """Run one named suite, or all of them in a fixed order."""
    if name != "all" and name not in SUITES:
        raise ValidationError(
            f"unknown suite {name!r}; choose from {', '.join(['all', *SUITES])}",
            code="invalid",
        )
    if name in ("all", "modularity") and qorder < 2:
        raise ValidationError(
            f"suite {name!r} needs q-order >= 2 for the cusp generator expansions",
            code="invalid",
        )
    if name != "all":
        return SUITES[name](qorder)
    child = _fork_codes(qorder) if hasattr(os, "fork") else None
    if child is None:
        return [check for key in SUITES for check in SUITES[key](qorder)]
    pid, reader = child
    try:
        checks = {key: SUITES[key](qorder) for key in SUITES if key != "codes"}
    except BaseException:
        import signal  # loaded only here: the CLI does not need it otherwise

        os.close(reader)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    checks["codes"] = _codes_from_child(pid, reader)
    if checks["codes"] is None:
        checks["codes"] = SUITES["codes"](qorder)
    return [check for key in SUITES for check in checks[key]]


def _fork_codes(qorder: int):
    """(pid, read end of its pipe) of a child that runs the codes suite, or None if none can be forked."""
    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(reader)
        os.close(writer)
        return None
    if pid == 0:  # the child: its checks as JSON on the pipe, then out by os._exit past every handler
        status = 1
        try:
            os.close(reader)
            data = json.dumps(SUITES["codes"](qorder)).encode()
            while data:
                data = data[os.write(writer, data):]
            status = 0
        finally:
            os._exit(status)
    os.close(writer)
    return pid, reader


def _codes_from_child(pid: int, reader: int):
    """The checks that the child wrote, after reaping it; None if it exited nonzero or they do not parse."""
    chunks = []  # by os.read, as the child writes by os.write: a buffered file adds 0.4 MB to a job's peak RSS
    while chunk := os.read(reader, 1 << 16):
        chunks.append(chunk)
    os.close(reader)
    _, status = os.waitpid(pid, 0)
    if status == 0:
        try:
            return json.loads(b"".join(chunks))
        except ValueError:
            pass
    return None
